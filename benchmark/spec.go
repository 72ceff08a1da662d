package main

// workload is one set of inputs the benchmark runs. Every workload runs the
// same cycle over and over — library rounds on the workload's backend, then a
// burst of closed-loop HTTP requests against a server hosting it — because
// the driver wants every end-to-end metric from every workload; what differs
// is the network, the backend the calls land on, the traffic mix, and where
// the measured seconds go.
type workload struct {
	Name string
	// Why is the one-line reason BENCHMARK.json records for the workload.
	Why string

	Road  string  // datagen road stand-in (RoadDataset name)
	Scale float64 // its scale

	// Backend selects what the library rounds and the served dataset run on:
	// "csr" (compiled snapshot, hot dataset), "store" (disk store behind a
	// buffer smaller than its files) or "live" (delta overlay over the
	// compiled snapshot, pre-mutated so reads run on a merged view).
	Backend     string
	BufferBytes int // store backend only

	// A cycle is Rounds library rounds and then a burst of Requests requests
	// from every client. Requests is a whole number of periods of the
	// clustering-job and write schedules below, so every burst is the same
	// work; the two together set the share of the time the library gets
	// (about 0.6 on the batch workloads, 0.3 on the serve ones).
	Rounds   int
	Requests int
	// Probes is the number of kNN and of range queries per library round.
	Probes int

	Zipf float64 // point skew of the request stream; 0 = uniform
	// Every WriteEvery-th request of a client is a mutation batch and every
	// ClusterEvery-th a clustering job (0 = never). The schedule is fixed, not
	// drawn: a clustering job costs hundreds of reads, so a run's throughput
	// would otherwise follow how many of them its draw happened to contain.
	WriteEvery   int
	ClusterEvery int
}

// runSeconds is how long one run measures, BENCHMARK.json's run_seconds.
const runSeconds = 28

// workloads are the four benchmark workloads, in BENCHMARK.json order. Scales
// are chosen so that one run — the gate, set-up several times and the measured
// seconds — fits the driver's per-run budget on a 2-core host; see README.md
// for how they relate to the scales ISSUE 11 first proposed.
var workloads = []workload{
	{
		Name: "batch-mem",
		Why:  "SF x0.5 on the compiled CSR snapshot: time goes to internal/csr kernels and internal/core label/merge; storage and delta do nothing, so a kernel gain shows here and a storage gain must not",
		Road: "SF", Scale: 0.5, Backend: "csr",
		Rounds: 2, Requests: 1000, Probes: 8000,
		ClusterEvery: 1000,
	},
	{
		Name: "batch-disk",
		Why:  "SF x0.0625 in a storage.Store whose files are 4.7x its 256 KiB buffer: the same core calls spend their time in storage/pagebuf/bptree and the generic network traversal instead of CSR",
		Road: "SF", Scale: 0.0625, Backend: "store", BufferBytes: 256 << 10,
		Rounds: 1, Requests: 1000, Probes: 2000,
		ClusterEvery: 1000,
	},
	{
		Name: "serve-read",
		Why:  "TG x1.0 hot dataset under zipf s=1.1 reads: internal/server (api, cache, admission, batcher, encode) does most of the work and most reads hit the result cache; delta and storage do nothing",
		Road: "TG", Scale: 1.0, Backend: "csr",
		Rounds: 1, Requests: 500, Probes: 8000,
		Zipf: 1.1, ClusterEvery: 500,
	},
	{
		Name: "serve-write",
		Why:  "TG x1.0 as a live dataset, 10% write batches: internal/delta (apply, incremental relabel, compaction) dominates; every batch bumps the epoch, so the cache is useless and reads run on a merged view",
		Road: "TG", Scale: 1.0, Backend: "live",
		Rounds: 1, Requests: 200, Probes: 2000,
		WriteEvery: 10, ClusterEvery: 50,
	},
}

func workloadByName(name string) (workload, int, bool) {
	for i, w := range workloads {
		if w.Name == name {
			return w, i, true
		}
	}
	return workload{}, 0, false
}

// metricDef names one metric the benchmark prints. Bound is the share of the
// parent's median by which an end-to-end metric may worsen; per-layer metrics
// carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the metrics a user of netclus would see, in print order.
// Every timing is a quiet quartile (stats.go) and carries the widest bound the
// driver takes. Over ten seeds in a quiet stretch the interquartile spreads
// are 1–9% of the median, about the third of the bound the driver asks for as
// margin; the bound itself is for the stretches in which the shared host runs
// everything 20–50% slower, which a tighter one would turn into a refused
// benchmark. The heap size does not depend on the host's mood.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"resident_mb", "MiB", "lower", 0.10},
	{"dbscan_ms", "ms", "lower", 0.25},
	{"epslink_ms", "ms", "lower", 0.25},
	{"dbscan_par_ms", "ms", "lower", 0.25},
	{"epslink_par_ms", "ms", "lower", 0.25},
	{"kmedoids_ms", "ms", "lower", 0.25},
	{"singlelink_ms", "ms", "lower", 0.25},
	{"knn_us", "us", "lower", 0.25},
	{"range_us", "us", "lower", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"read_p95_ms", "ms", "lower", 0.25},
	{"cluster_ms", "ms", "lower", 0.25},
	{"throughput_rps", "1/s", "higher", 0.25},
}

// values is one run's metrics by name.
type values map[string]float64

func (v values) add(o values) {
	for k, x := range o {
		v[k] = x
	}
}
