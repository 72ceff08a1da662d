package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"netclus"
	"netclus/internal/server/api"
)

// ltSample is one finished loadtest request.
type ltSample struct {
	endpoint string
	code     int
	latency  time.Duration
	failed   bool // transport error, no status code
}

// endpointSummary aggregates one endpoint's samples.
type endpointSummary struct {
	Requests  int            `json:"requests"`
	Errors    int            `json:"errors"`
	Status    map[string]int `json:"status"`
	MeanMS    float64        `json:"mean_ms"`
	P50MS     float64        `json:"p50_ms"`
	P95MS     float64        `json:"p95_ms"`
	P99MS     float64        `json:"p99_ms"`
	MaxMS     float64        `json:"max_ms"`
	PerSecond float64        `json:"per_second"`
}

// ltCacheStats is the dataset's result-cache delta over one run, scraped from
// /v1/datasets before and after, plus the derived hit ratio.
type ltCacheStats struct {
	api.ResultCacheStats
	HitRatio float64 `json:"hit_ratio"`
}

// ltWriteStats is the dataset's write-path delta over one run, scraped from
// the live stats in /v1/datasets before and after: batches and ops the run
// committed and rejections.
type ltWriteStats struct {
	Batches  int64 `json:"batches"`
	Ops      int64 `json:"ops"`
	Rejected int64 `json:"rejected"`
}

// ltSummary is the loadtest report written to -out. Seed and Zipf record the
// generator inputs so a run is reproducible from its report alone.
type ltSummary struct {
	Target      string                     `json:"target"`
	Dataset     string                     `json:"dataset"`
	Workers     int                        `json:"workers"`
	Seed        int64                      `json:"seed"`
	Zipf        float64                    `json:"zipf"`
	Scale       float64                    `json:"scale,omitempty"`
	DurationS   float64                    `json:"duration_s"`
	Requests    int                        `json:"requests"`
	Errors      int                        `json:"errors"`
	PerSecond   float64                    `json:"per_second"`
	Endpoints   map[string]endpointSummary `json:"endpoints"`
	ResultCache *ltCacheStats              `json:"result_cache,omitempty"`
	Writes      *ltWriteStats              `json:"writes,omitempty"`
}

// percentile returns the p-th percentile of sorted (nearest-rank).
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p/100*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// summarize folds the samples into the report.
func summarize(target, dataset string, workers int, elapsed time.Duration, samples []ltSample) ltSummary {
	sum := ltSummary{
		Target: target, Dataset: dataset, Workers: workers,
		DurationS: elapsed.Seconds(),
		Endpoints: make(map[string]endpointSummary),
	}
	byEP := make(map[string][]ltSample)
	for _, s := range samples {
		byEP[s.endpoint] = append(byEP[s.endpoint], s)
	}
	for ep, ss := range byEP {
		es := endpointSummary{Status: make(map[string]int)}
		var lats []time.Duration
		var total time.Duration
		for _, s := range ss {
			es.Requests++
			if s.failed {
				es.Errors++
				continue
			}
			es.Status[fmt.Sprintf("%d", s.code)]++
			lats = append(lats, s.latency)
			total += s.latency
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		if len(lats) > 0 {
			es.MeanMS = ms(total / time.Duration(len(lats)))
			es.P50MS = ms(percentile(lats, 50))
			es.P95MS = ms(percentile(lats, 95))
			es.P99MS = ms(percentile(lats, 99))
			es.MaxMS = ms(lats[len(lats)-1])
		}
		if sum.DurationS > 0 {
			es.PerSecond = float64(es.Requests) / sum.DurationS
		}
		sum.Requests += es.Requests
		sum.Errors += es.Errors
		sum.Endpoints[ep] = es
	}
	if sum.DurationS > 0 {
		sum.PerSecond = float64(sum.Requests) / sum.DurationS
	}
	return sum
}

// epDelta compares one endpoint between the cold and hot runs; speedups are
// cold/hot ratios, so > 1 means the hot replica is faster.
type epDelta struct {
	P50Speedup  float64 `json:"p50_speedup"`
	P95Speedup  float64 `json:"p95_speedup"`
	MeanSpeedup float64 `json:"mean_speedup"`
	Throughput  float64 `json:"throughput_ratio"`
}

// ltCompareSummary is the -compare report: the same mix driven against two
// datasets (typically a cold store and its hot CSR replica) plus the
// per-endpoint deltas.
type ltCompareSummary struct {
	Cold  ltSummary          `json:"cold"`
	Hot   ltSummary          `json:"hot"`
	Delta map[string]epDelta `json:"delta"`
}

func ratio(cold, hot float64) float64 {
	if hot <= 0 {
		return 0
	}
	return cold / hot
}

// compareSummaries folds two runs of the same mix into the delta report.
func compareSummaries(cold, hot ltSummary) ltCompareSummary {
	cmp := ltCompareSummary{Cold: cold, Hot: hot, Delta: make(map[string]epDelta)}
	for ep, cs := range cold.Endpoints {
		hs, ok := hot.Endpoints[ep]
		if !ok {
			continue
		}
		cmp.Delta[ep] = epDelta{
			P50Speedup:  ratio(cs.P50MS, hs.P50MS),
			P95Speedup:  ratio(cs.P95MS, hs.P95MS),
			MeanSpeedup: ratio(cs.MeanMS, hs.MeanMS),
			Throughput:  ratio(hs.PerSecond, cs.PerSecond),
		}
	}
	return cmp
}

// mixEntry is one weighted endpoint of the traffic mix.
type mixEntry struct {
	endpoint string
	weight   int
}

// parseMix reads "knn:8,range:4,cluster:1,write:2". The write entry sends
// mutation batches against live datasets; -write-mix shapes their kind split.
func parseMix(s string) ([]mixEntry, error) {
	var mix []mixEntry
	for _, part := range strings.Split(s, ",") {
		name, w, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("bad mix entry %q (want endpoint:weight)", part)
		}
		var weight int
		if _, err := fmt.Sscanf(w, "%d", &weight); err != nil || weight < 0 {
			return nil, fmt.Errorf("bad mix weight %q", w)
		}
		switch name {
		case "knn", "range", "cluster", "write":
		default:
			return nil, fmt.Errorf("unknown mix endpoint %q (want knn, range, cluster or write)", name)
		}
		if weight > 0 {
			mix = append(mix, mixEntry{endpoint: name, weight: weight})
		}
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("empty traffic mix")
	}
	return mix, nil
}

// parseWriteMix reads "insert:2,move:1,delete:1" — the kind split of the
// mutation batches the mix's write entry sends.
func parseWriteMix(s string) ([]mixEntry, error) {
	var mix []mixEntry
	for _, part := range strings.Split(s, ",") {
		name, w, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("bad write-mix entry %q (want kind:weight)", part)
		}
		var weight int
		if _, err := fmt.Sscanf(w, "%d", &weight); err != nil || weight < 0 {
			return nil, fmt.Errorf("bad write-mix weight %q", w)
		}
		switch name {
		case "insert", "move", "delete":
		default:
			return nil, fmt.Errorf("unknown write kind %q (want insert, move or delete)", name)
		}
		if weight > 0 {
			mix = append(mix, mixEntry{endpoint: name, weight: weight})
		}
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("empty write mix")
	}
	return mix, nil
}

// pickEndpoint draws from the mix by weight.
func pickEndpoint(mix []mixEntry, rng *rand.Rand) string {
	total := 0
	for _, m := range mix {
		total += m.weight
	}
	n := rng.Intn(total)
	for _, m := range mix {
		if n < m.weight {
			return m.endpoint
		}
		n -= m.weight
	}
	return mix[len(mix)-1].endpoint
}

// datasetProbe asks the target about the dataset: its point count (so query
// point IDs can be drawn from the real ID space), its result-cache counters
// (nil when the dataset is served uncached), and its live write-path stats
// (nil when the dataset is immutable).
func datasetProbe(client *http.Client, target, dataset string) (int, *api.ResultCacheStats, *netclus.LiveStats, error) {
	resp, err := client.Get(target + "/v1/datasets")
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, nil, nil, fmt.Errorf("GET /v1/datasets: %s", resp.Status)
	}
	var body api.DatasetsResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, nil, nil, err
	}
	for _, d := range body.Datasets {
		if d.Name == dataset {
			if d.Points == 0 {
				return 0, nil, nil, fmt.Errorf("dataset %q has no points", dataset)
			}
			return d.Points, d.ResultCache, d.Live, nil
		}
	}
	return 0, nil, nil, fmt.Errorf("dataset %q not served (have %d datasets)", dataset, len(body.Datasets))
}

// ltConfig is one loadtest run: target and dataset, the traffic shape, and
// the substream coordinates (seed, run index) its workers draw from.
type ltConfig struct {
	target   string
	dataset  string
	points   int
	workers  int
	duration time.Duration
	mix      []mixEntry
	writeMix []mixEntry // kind split of write batches; nil when the mix has no writes
	eps      float64
	k        int
	seed     int64
	zipf     float64 // 0 = uniform, > 1 = zipf skew exponent
	scale    float64 // dataset scale, recorded in the report only
	run      int     // substream index: 0 primary leg, 1 the -compare leg

	// livePoints tracks the dataset's moving point count under writes, fed
	// back from MutateResponse so target IDs stay within the live ID space.
	livePoints *atomic.Int64
}

// runLoadtest drives the mixed workload and returns the summary. It is the
// testable core of the loadtest subcommand.
func runLoadtest(client *http.Client, cfg ltConfig) ltSummary {
	var before api.ResultCacheStats
	var liveBefore netclus.LiveStats
	hasCache, hasLive := false, false
	if _, rc, ls, err := datasetProbe(client, cfg.target, cfg.dataset); err == nil {
		if rc != nil {
			before, hasCache = *rc, true
		}
		if ls != nil {
			liveBefore, hasLive = *ls, true
		}
	}
	cfg.livePoints = new(atomic.Int64)
	cfg.livePoints.Store(int64(cfg.points))
	var (
		mu      sync.Mutex
		samples []ltSample
	)
	start := time.Now()
	deadline := start.Add(cfg.duration)
	var wg sync.WaitGroup
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(substream(cfg.seed, cfg.run, w)))
			picker := newReqPicker(rng, &cfg)
			var local []ltSample
			for time.Now().Before(deadline) {
				ep, vals := picker.pick()
				var s ltSample
				if ep == "write" {
					s = doWrite(client, &cfg, picker.pickWrite())
				} else {
					url := cfg.target + "/v1/" + cfg.dataset + "/" + ep + "?" + vals.Encode()
					start := time.Now()
					resp, err := client.Get(url)
					s = ltSample{endpoint: ep, latency: time.Since(start)}
					if err != nil {
						s.failed = true
					} else {
						s.code = resp.StatusCode
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
				local = append(local, s)
			}
			mu.Lock()
			samples = append(samples, local...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	sum := summarize(cfg.target, cfg.dataset, cfg.workers, time.Since(start), samples)
	sum.Seed = cfg.seed
	sum.Zipf = cfg.zipf
	sum.Scale = cfg.scale
	if hasCache || hasLive {
		_, rc, ls, err := datasetProbe(client, cfg.target, cfg.dataset)
		if err == nil && hasCache && rc != nil {
			delta := api.ResultCacheStats{
				Hits:               rc.Hits - before.Hits,
				Misses:             rc.Misses - before.Misses,
				SingleflightShared: rc.SingleflightShared - before.SingleflightShared,
			}
			sum.ResultCache = &ltCacheStats{ResultCacheStats: delta, HitRatio: delta.HitRatio()}
		}
		if err == nil && hasLive && ls != nil {
			sum.Writes = &ltWriteStats{
				Batches:  ls.Batches - liveBefore.Batches,
				Ops:      ls.Ops - liveBefore.Ops,
				Rejected: ls.Rejected - liveBefore.Rejected,
			}
		}
	}
	return sum
}

// doWrite posts one mutation batch and feeds the server's post-batch point
// count back into the shared counter, keeping later target IDs in range.
func doWrite(client *http.Client, cfg *ltConfig, body []byte) ltSample {
	url := cfg.target + "/v1/datasets/" + cfg.dataset + "/points"
	start := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	s := ltSample{endpoint: "write", latency: time.Since(start)}
	if err != nil {
		s.failed = true
		return s
	}
	s.code = resp.StatusCode
	if resp.StatusCode == http.StatusOK {
		var mr api.MutateResponse
		if json.NewDecoder(resp.Body).Decode(&mr) == nil && mr.Points > 0 {
			cfg.livePoints.Store(int64(mr.Points))
		}
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return s
}

func loadtest(args []string) error {
	fs := flag.NewFlagSet("loadtest", flag.ExitOnError)
	target := fs.String("target", "http://127.0.0.1:8080", "base URL of the netclusd to load")
	dataset := fs.String("dataset", "", "dataset name to query (required)")
	duration := fs.Duration("duration", 10*time.Second, "how long to drive traffic")
	workers := fs.Int("workers", 8, "concurrent client connections")
	mixFlag := fs.String("mix", "knn:8,range:4,cluster:1", "traffic mix as endpoint:weight[,...]; include write:N to mutate live datasets")
	writeMixFlag := fs.String("write-mix", "insert:2,move:1,delete:1", "mutation kind split for the write share of the mix")
	eps := fs.Float64("eps", 1, "eps for range and clustering requests")
	k := fs.Int("k", 8, "k for kNN requests")
	seed := fs.Int64("seed", 1, "random seed")
	zipf := fs.Float64("zipf", 0, "zipf skew exponent over points, eps ranks and the mix (0 = uniform; else must be > 1)")
	scaleFlag := fs.Float64("scale", 0, "dataset scale factor, recorded verbatim in the report header")
	out := fs.String("out", "", "write the JSON summary to this file")
	compare := fs.String("compare", "",
		"drive the same mix against this second dataset (e.g. the hot replica of a cold store) and report deltas")
	fs.Parse(args)
	if *dataset == "" {
		return fmt.Errorf("-dataset is required")
	}
	if *zipf != 0 && *zipf <= 1 {
		return fmt.Errorf("-zipf must be 0 (uniform) or > 1, got %g", *zipf)
	}
	mix, err := parseMix(*mixFlag)
	if err != nil {
		return err
	}
	var writeMix []mixEntry
	for _, e := range mix {
		if e.endpoint == "write" {
			if writeMix, err = parseWriteMix(*writeMixFlag); err != nil {
				return err
			}
			break
		}
	}
	base := strings.TrimRight(*target, "/")
	client := &http.Client{Timeout: 2 * time.Minute}
	points, _, _, err := datasetProbe(client, base, *dataset)
	if err != nil {
		return err
	}
	fmt.Printf("loadtest: %s dataset %s (%d points), %d workers, mix %s, zipf %g, %s\n",
		base, *dataset, points, *workers, *mixFlag, *zipf, *duration)
	cfg := ltConfig{
		target: base, dataset: *dataset, points: points, workers: *workers,
		duration: *duration, mix: mix, eps: *eps, k: *k, seed: *seed, zipf: *zipf,
		scale: *scaleFlag, writeMix: writeMix,
	}
	sum := runLoadtest(client, cfg)
	printSummary(sum)

	var report any = sum
	errors := sum.Errors
	if *compare != "" {
		cpoints, _, _, err := datasetProbe(client, base, *compare)
		if err != nil {
			return err
		}
		if cpoints != points {
			return fmt.Errorf("datasets differ: %s has %d points, %s has %d", *dataset, points, *compare, cpoints)
		}
		fmt.Printf("loadtest: comparing against dataset %s\n", *compare)
		ccfg := cfg
		ccfg.dataset = *compare
		ccfg.run = 1
		hot := runLoadtest(client, ccfg)
		printSummary(hot)
		cmp := compareSummaries(sum, hot)
		for _, ep := range sortedKeys(cmp.Delta) {
			d := cmp.Delta[ep]
			fmt.Printf("  %-8s %s vs %s: p50 %.2fx  p95 %.2fx  mean %.2fx  throughput %.2fx\n",
				ep, *compare, *dataset, d.P50Speedup, d.P95Speedup, d.MeanSpeedup, d.Throughput)
		}
		report = cmp
		errors += hot.Errors
	}
	if *out != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if errors > 0 {
		return fmt.Errorf("%d transport errors", errors)
	}
	return nil
}

func sortedKeys(m map[string]epDelta) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func printSummary(sum ltSummary) {
	fmt.Printf("total: %d requests in %.1fs (%.0f req/s), %d transport errors\n",
		sum.Requests, sum.DurationS, sum.PerSecond, sum.Errors)
	if rc := sum.ResultCache; rc != nil {
		fmt.Printf("cache: %d hits, %d misses, %d shared (hit ratio %.2f)\n",
			rc.Hits, rc.Misses, rc.SingleflightShared, rc.HitRatio)
	}
	if w := sum.Writes; w != nil {
		fmt.Printf("writes: %d batches (%d ops, %d rejected)\n", w.Batches, w.Ops, w.Rejected)
	}
	eps := make([]string, 0, len(sum.Endpoints))
	for ep := range sum.Endpoints {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	for _, ep := range eps {
		es := sum.Endpoints[ep]
		fmt.Printf("  %-8s %6d req (%.0f/s)  p50 %.2fms  p95 %.2fms  p99 %.2fms  max %.2fms  status %v\n",
			ep, es.Requests, es.PerSecond, es.P50MS, es.P95MS, es.P99MS, es.MaxMS, statusList(es.Status))
	}
}

func statusList(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s:%d", k, m[k])
	}
	return "[" + strings.Join(parts, " ") + "]"
}
