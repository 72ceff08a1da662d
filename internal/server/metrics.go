package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"netclus"
	"netclus/internal/server/api"
)

// Metrics is the process-wide request instrumentation: per-endpoint request
// counters (by status code) and latency histograms, plus panic and in-flight
// gauges. It renders itself in the Prometheus text exposition format without
// any client-library dependency — the counter families are few and fixed, so
// a map under a small mutex plus atomics on the hot path is all it takes.
type Metrics struct {
	mu       sync.Mutex
	requests map[reqKey]*atomic.Int64
	hists    map[string]*histogram

	panics   atomic.Int64
	inflight atomic.Int64
}

type reqKey struct {
	endpoint string
	dataset  string
	code     int
}

// latencyBounds are the histogram bucket upper bounds in seconds, log-spaced
// from 100µs (a cached point query) to 30s (a heavy clustering job).
var latencyBounds = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// histogram is a fixed-bucket latency histogram with atomic counters. counts
// has one slot per bound plus the +Inf overflow.
type histogram struct {
	counts    []atomic.Int64
	sumMicros atomic.Int64
	total     atomic.Int64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]atomic.Int64, len(latencyBounds)+1)}
}

func (h *histogram) observe(d time.Duration) {
	secs := d.Seconds()
	i := sort.SearchFloat64s(latencyBounds, secs)
	h.counts[i].Add(1)
	h.sumMicros.Add(d.Microseconds())
	h.total.Add(1)
}

// NewMetrics returns empty instrumentation.
func NewMetrics() *Metrics {
	return &Metrics{
		requests: make(map[reqKey]*atomic.Int64),
		hists:    make(map[string]*histogram),
	}
}

// Observe records one finished request.
func (m *Metrics) Observe(endpoint, dataset string, code int, d time.Duration) {
	k := reqKey{endpoint: endpoint, dataset: dataset, code: code}
	m.mu.Lock()
	c := m.requests[k]
	if c == nil {
		c = new(atomic.Int64)
		m.requests[k] = c
	}
	h := m.hists[endpoint]
	if h == nil {
		h = newHistogram()
		m.hists[endpoint] = h
	}
	m.mu.Unlock()
	c.Add(1)
	h.observe(d)
}

// Panicked records a request handler panic.
func (m *Metrics) Panicked() { m.panics.Add(1) }

// KNNBatchCounts returns 0, 0: every kNN request runs on its own, so there
// are no batched sweeps to count. It is kept only because benchmark/layers.go
// compiles against it; ROADMAP item 1 (A) removes it together with the probe
// that reads it.
func (m *Metrics) KNNBatchCounts() (batches, requests int64) { return 0, 0 }

// Panics returns the panic count.
func (m *Metrics) Panics() int64 { return m.panics.Load() }

// RequestCount sums the request counters matching endpoint and code
// (empty endpoint / zero code match everything), for tests and health.
func (m *Metrics) RequestCount(endpoint string, code int) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for k, c := range m.requests {
		if (endpoint == "" || k.endpoint == endpoint) && (code == 0 || k.code == code) {
			n += c.Load()
		}
	}
	return n
}

// family is one row of the exposition table: a metric family and the function
// that reads its samples out of a scrape.
type family struct {
	name, help, typ string
	// sparse marks a family whose subsystem or dataset kind may be absent
	// from the process: it is left out of a scrape it has no samples in, and
	// its samples are ordered by label text rather than by emission.
	sparse bool
	emit   func(sc *scrape, put putFunc)
}

// putFunc adds one sample. tail is what follows the family name on the
// sample line: empty, a {label set}, or a histogram suffix plus label set.
type putFunc func(tail string, v any)

// scrape is the one snapshot a /metrics response renders from: each
// subsystem's counters read once, and one /v1/datasets entry per dataset.
type scrape struct {
	m     *Metrics
	adm   AdmissionStats
	cache *ResultCacheStatsSnapshot // nil when the result cache is off
	ds    []api.DatasetInfo
	label []string // `dataset="name"`, quoted once per dataset
}

// WritePrometheus renders the families table in the text exposition format:
// the request counters and histograms, the admission controller, the result
// cache, and per dataset the engine's buffer/cache/shard counter deltas plus
// the aggregated prune counters. Output is deterministically ordered so
// scrapes diff cleanly.
func (m *Metrics) WritePrometheus(w io.Writer, adm *Admission, reg *Registry, cache *ResultCache) {
	sc := &scrape{m: m, adm: adm.Stats()}
	if cache != nil {
		cs := cache.Stats()
		sc.cache = &cs
	}
	for _, d := range reg.List() {
		sc.ds = append(sc.ds, d.info())
		sc.label = append(sc.label, fmt.Sprintf("dataset=%q", d.Name))
	}
	type sample struct {
		tail string
		v    any
	}
	var rows []sample
	put := func(tail string, v any) { rows = append(rows, sample{tail, v}) }
	for _, f := range families {
		rows = rows[:0]
		f.emit(sc, put)
		if f.sparse {
			if len(rows) == 0 {
				continue
			}
			sort.SliceStable(rows, func(i, j int) bool { return rows[i].tail < rows[j].tail })
		}
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, r := range rows {
			fmt.Fprintf(w, "%s%s %v\n", f.name, r.tail, r.v)
		}
	}
}

// cached is a label-less family of the result cache, absent when it is off.
func cached(name, typ, help string, v func(c *ResultCacheStatsSnapshot) int64) family {
	return family{name: name, help: help, typ: typ, sparse: true, emit: func(sc *scrape, put putFunc) {
		if sc.cache != nil {
			put("", v(sc.cache))
		}
	}}
}

// gauge is a documented per-dataset family, declared in every scrape; counter
// is a serving-attributable delta of one of the engine's counter families,
// declared when some dataset has it. emit runs once per dataset with a put
// that prefixes the dataset label to further `,name="value"` labels, if any.
func gauge(name, help string, emit func(d *api.DatasetInfo, put putFunc)) family {
	return family{name: name, help: help, typ: "gauge", emit: perDataset(emit)}
}

func counter(name string, emit func(d *api.DatasetInfo, put putFunc)) family {
	return family{name: name, typ: "counter", sparse: true, emit: perDataset(emit)}
}

func perDataset(emit func(d *api.DatasetInfo, put putFunc)) func(*scrape, putFunc) {
	return func(sc *scrape, put putFunc) {
		for i := range sc.ds {
			label := sc.label[i]
			emit(&sc.ds[i], func(extra string, v any) { put("{"+label+extra+"}", v) })
		}
	}
}

// each reads samples, and of one sample, out of one block of a dataset's
// entry; a dataset whose kind lacks the block has none in the family.
func each[B any](block func(*api.DatasetInfo) *B, emit func(b *B, put putFunc)) func(*api.DatasetInfo, putFunc) {
	return func(d *api.DatasetInfo, put putFunc) {
		if b := block(d); b != nil {
			emit(b, put)
		}
	}
}

func of[B any](block func(*api.DatasetInfo) *B, v func(b *B) any) func(*api.DatasetInfo, putFunc) {
	return each(block, func(b *B, put putFunc) { put("", v(b)) })
}

func entry(d *api.DatasetInfo) *api.DatasetInfo            { return d }
func prune(d *api.DatasetInfo) *netclus.PruneStats         { return &d.Prune }
func csr(d *api.DatasetInfo) *netclus.CSRStats             { return d.CSR }
func store(d *api.DatasetInfo) *netclus.StoreStats         { return d.Store }
func live(d *api.DatasetInfo) *netclus.LiveStats           { return d.Live }
func shardSet(d *api.DatasetInfo) *netclus.ShardedSetStats { return d.ShardSet }

func bit(b bool) int {
	if b {
		return 1
	}
	return 0
}

func shardLabel(i int) string { return fmt.Sprintf(`,shard="%d"`, i) }

// families is the exposition, in output order: server-wide families, the
// per-dataset gauges, then the per-dataset counters in name order.
var families = []family{
	{name: "netclusd_requests_total", help: "Requests served, by endpoint, dataset and status code.", typ: "counter", emit: emitRequests},
	{name: "netclusd_request_seconds", help: "Request latency, by endpoint.", typ: "histogram", emit: emitLatencies},
	{name: "netclusd_inflight_requests", typ: "gauge", help: "Requests currently being handled.", emit: func(sc *scrape, put putFunc) { put("", sc.m.inflight.Load()) }},
	{name: "netclusd_panics_total", typ: "counter", help: "Request handlers recovered from a panic.", emit: func(sc *scrape, put putFunc) { put("", sc.m.panics.Load()) }},
	{name: "netclusd_admission_capacity", typ: "gauge", help: "Total admission cost units.", emit: func(sc *scrape, put putFunc) { put("", sc.adm.Capacity) }},
	{name: "netclusd_admission_in_use", typ: "gauge", help: "Admission cost units in use.", emit: func(sc *scrape, put putFunc) { put("", sc.adm.InUse) }},
	{name: "netclusd_admission_waiting", typ: "gauge", help: "Requests queued for admission.", emit: func(sc *scrape, put putFunc) { put("", sc.adm.Waiting) }},
	{name: "netclusd_admission_admitted_total", typ: "counter", help: "Requests admitted.", emit: func(sc *scrape, put putFunc) { put("", sc.adm.Admitted) }},
	{name: "netclusd_admission_rejected_total", typ: "counter", help: "Requests shed with 429.", emit: func(sc *scrape, put putFunc) { put("", sc.adm.Rejected) }},
	{name: "netclusd_admission_timeout_total", typ: "counter", help: "Requests that gave up waiting for admission.", emit: func(sc *scrape, put putFunc) { put("", sc.adm.TimedOut) }},
	cached("netclusd_result_cache_hits_total", "counter", "Result-cache exact-key hits.", func(c *ResultCacheStatsSnapshot) int64 { return c.Hits }),
	cached("netclusd_result_cache_misses_total", "counter", "Result-cache misses.", func(c *ResultCacheStatsSnapshot) int64 { return c.Misses }),
	cached("netclusd_result_cache_singleflight_shared_total", "counter", "Requests that shared another request's in-flight computation.", func(c *ResultCacheStatsSnapshot) int64 { return c.Shared }),
	cached("netclusd_result_cache_evictions_total", "counter", "Entries evicted to hold the byte budget.", func(c *ResultCacheStatsSnapshot) int64 { return c.Evictions }),
	cached("netclusd_result_cache_entries", "gauge", "Entries currently cached.", func(c *ResultCacheStatsSnapshot) int64 { return c.Entries }),
	cached("netclusd_result_cache_bytes", "gauge", "Bytes currently cached.", func(c *ResultCacheStatsSnapshot) int64 { return c.Bytes }),
	cached("netclusd_result_cache_capacity_bytes", "gauge", "Result-cache byte budget.", func(c *ResultCacheStatsSnapshot) int64 { return c.Capacity }),

	gauge("netclusd_dataset_hot", "Dataset serves from a compiled CSR replica.", of(entry, func(d *api.DatasetInfo) any { return bit(d.Hot) })),
	gauge("netclusd_csr_compile_seconds", "Time spent compiling the hot CSR replica.", of(csr, func(c *netclus.CSRStats) any { return c.CompileTime.Seconds() })),
	gauge("netclusd_csr_resident_bytes", "Bytes held by the hot CSR replica.", of(csr, func(c *netclus.CSRStats) any { return c.ResidentBytes })),
	gauge("netclusd_dataset_live", "Dataset accepts writes through a mutable overlay.", of(entry, func(d *api.DatasetInfo) any { return bit(d.Live != nil) })),
	gauge("netclusd_dataset_epoch", "Current content epoch of the dataset.", of(entry, func(d *api.DatasetInfo) any { return d.Epoch })),
	gauge("netclusd_delta_pending_ops", "Delta ops awaiting the next compaction, per live dataset.", of(live, func(s *netclus.LiveStats) any { return s.PendingOps })),
	gauge("netclusd_compact_pause_seconds", "Pause of the most recent compaction (the rebase on the reconciler).", of(live, func(s *netclus.LiveStats) any { return s.LastPauseMS / 1e3 })),
	gauge("netclusd_dataset_shards", "Shard count of sharded datasets (0 = unsharded).", of(entry, func(d *api.DatasetInfo) any { return d.Shards })),
	gauge("netclusd_shard_resident_bytes", "Bytes held by one shard's CSR snapshot and cut tables.", each(shardSet, func(s *netclus.ShardedSetStats, put putFunc) {
		for i, ss := range s.PerShard {
			put(shardLabel(i), ss.ResidentBytes)
		}
	})),

	counter("netclusd_compactions_total", of(live, func(s *netclus.LiveStats) any { return s.Compactions })),
	counter("netclusd_dataset_queries_total", of(entry, func(d *api.DatasetInfo) any { return d.Queries })),
	counter("netclusd_live_floods_total", of(live, func(s *netclus.LiveStats) any { return s.LiveFloods })),
	counter("netclusd_live_repair_visits_total", of(live, func(s *netclus.LiveStats) any { return s.LiveRepairVisits })),
	counter("netclusd_prune_candidates_total", of(prune, func(p *netclus.PruneStats) any { return p.Candidates })),
	counter("netclusd_prune_early_stops_total", of(prune, func(p *netclus.PruneStats) any { return p.EarlyStops })),
	counter("netclusd_prune_filter_accepted_total", of(prune, func(p *netclus.PruneStats) any { return p.FilterAccepted })),
	counter("netclusd_prune_filter_rejected_total", of(prune, func(p *netclus.PruneStats) any { return p.FilterRejected })),
	counter("netclusd_prune_filter_uncertain_total", of(prune, func(p *netclus.PruneStats) any { return p.FilterUncertain })),
	counter("netclusd_prune_pruned_pushes_total", of(prune, func(p *netclus.PruneStats) any { return p.PrunedPushes })),
	counter("netclusd_prune_refinements_total", of(prune, func(p *netclus.PruneStats) any { return p.Refinements })),
	counter("netclusd_prune_zero_traversal_queries_total", of(prune, func(p *netclus.PruneStats) any { return p.ZeroTraversalQueries })),
	counter("netclusd_store_cache_evictions_total", each(store, func(s *netclus.StoreStats, put putFunc) {
		put(`,cache="adj"`, s.Cache.AdjEvictions)
		put(`,cache="group"`, s.Cache.GroupEvictions)
	})),
	counter("netclusd_store_cache_hits_total", each(store, func(s *netclus.StoreStats, put putFunc) {
		put(`,cache="adj"`, s.Cache.AdjHits)
		put(`,cache="group"`, s.Cache.GroupHits)
		put(`,cache="leaf"`, s.Cache.LeafHits)
	})),
	counter("netclusd_store_cache_misses_total", each(store, func(s *netclus.StoreStats, put putFunc) {
		put(`,cache="adj"`, s.Cache.AdjMisses)
		put(`,cache="group"`, s.Cache.GroupMisses)
		put(`,cache="leaf"`, s.Cache.LeafMisses)
	})),
	counter("netclusd_store_evictions_total", of(store, func(s *netclus.StoreStats) any { return s.Buffer.Evictions })),
	counter("netclusd_store_logical_reads_total", of(store, func(s *netclus.StoreStats) any { return s.Buffer.LogicalReads })),
	counter("netclusd_store_page_writes_total", of(store, func(s *netclus.StoreStats) any { return s.Buffer.PageWrites })),
	counter("netclusd_store_physical_reads_total", of(store, func(s *netclus.StoreStats) any { return s.Buffer.PhysicalReads })),
	counter("netclusd_write_batches_total", of(live, func(s *netclus.LiveStats) any { return s.Batches })),
	counter("netclusd_write_ops_total", of(live, func(s *netclus.LiveStats) any { return s.Ops })),
	counter("netclusd_write_rejected_total", of(live, func(s *netclus.LiveStats) any { return s.Rejected })),
}

// emitRequests reads the request counters, ordered by endpoint, dataset and
// status code.
func emitRequests(sc *scrape, put putFunc) {
	type row struct {
		reqKey
		c *atomic.Int64
	}
	sc.m.mu.Lock()
	rows := make([]row, 0, len(sc.m.requests))
	for k, c := range sc.m.requests {
		rows = append(rows, row{k, c})
	}
	sc.m.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.endpoint != b.endpoint {
			return a.endpoint < b.endpoint
		}
		if a.dataset != b.dataset {
			return a.dataset < b.dataset
		}
		return a.code < b.code
	})
	for _, r := range rows {
		put(fmt.Sprintf("{endpoint=%q,dataset=%q,code=\"%d\"}", r.endpoint, r.dataset, r.code), r.c.Load())
	}
}

// emitLatencies reads the per-endpoint latency histograms as cumulative
// buckets, sum and count.
func emitLatencies(sc *scrape, put putFunc) {
	sc.m.mu.Lock()
	names := make([]string, 0, len(sc.m.hists))
	for n := range sc.m.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	hists := make([]*histogram, len(names))
	for i, n := range names {
		hists[i] = sc.m.hists[n]
	}
	sc.m.mu.Unlock()
	for i, n := range names {
		h, cum := hists[i], int64(0)
		for j, bound := range latencyBounds {
			cum += h.counts[j].Load()
			put(fmt.Sprintf("_bucket{endpoint=%q,le=\"%g\"}", n, bound), cum)
		}
		cum += h.counts[len(latencyBounds)].Load()
		put(fmt.Sprintf("_bucket{endpoint=%q,le=\"+Inf\"}", n), cum)
		put(fmt.Sprintf("_sum{endpoint=%q}", n), float64(h.sumMicros.Load())/1e6)
		put(fmt.Sprintf("_count{endpoint=%q}", n), h.total.Load())
	}
}
