package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"netclus"
)

// Set-up runs at least minSetups times and then until setupBudget is spent or
// maxSetups is reached, so a 20 ms set-up is sampled as steadily as a 200 ms
// one; setup_s is their quiet quartile and the last deployment is the one
// measured.
const (
	minSetups   = 5
	maxSetups   = 40
	setupBudget = 1500 * time.Millisecond
)

// runConfig is one benchmark run.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	OutDir   string

	// Scale multiplies the workload's network scale and Cycles bounds the run
	// by count instead of time. The smoke test sets them to run every code
	// path in seconds with an exactly repeating operation stream; the driver
	// never does.
	Scale  float64
	Cycles int
}

// runResult is what one run prints.
type runResult struct {
	Correct   bool
	Attempted int
	Failed    int
	Failures  []string
	Metrics   values // end-to-end when untraced, per-layer when traced
	Info      map[string]any
}

// hostCPUs is the number of processors the benchmark may use at all:
// min(nproc, 4).
func hostCPUs() int { return min(runtime.NumCPU(), 4) }

// gomaxprocs is the processor count of the measured sections, and their
// Workers and client count: every processor but one. The host is shared, and
// a run that needs all of its cores at once measures whoever else wants one
// (README.md, "Repeatability"); the traced run's layer probes, which carry no
// bound, use hostCPUs.
func gomaxprocs() int { return max(1, hostCPUs()-1) }

func run(ctx context.Context, cfg runConfig) (*runResult, error) {
	w, wi, ok := workloadByName(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if cfg.Scale > 0 {
		w.Scale *= cfg.Scale
	}
	n := gomaxprocs()
	runtime.GOMAXPROCS(n)
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	res := &runResult{Metrics: values{}, Info: map[string]any{
		"gomaxprocs": n, "go": runtime.Version(), "seed": cfg.Seed, "workload": w.Name,
	}}
	layer := values{}

	chk := &checker{}
	// The gate checks the merge of several workers' results whatever n is.
	if err := oracleGate(ctx, chk, cfg.OutDir, max(n, 2), cfg.Seed); err != nil {
		return nil, fmt.Errorf("oracle gate: %w", err)
	}

	// Inputs: the deterministic road stand-in; the seed drives everything
	// drawn on top of it.
	t0 := time.Now()
	g, gen, err := netclus.RoadDataset(w.Road, w.Scale, 10)
	if err != nil {
		return nil, err
	}
	layer["datagen.generate_s"] = time.Since(t0).Seconds()
	eps := gen.Eps()
	res.Info["nodes"], res.Info["points"], res.Info["eps"] = g.NumNodes(), g.NumPoints(), eps

	// Set-up, several times; the last deployment stays up.
	var d *deployment
	var setups []float64
	for i, start := 0, time.Now(); i < minSetups || (i < maxSetups && time.Since(start) < setupBudget); i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, fmt.Errorf("closing deployment: %w", err)
			}
		}
		id := tr.begin("setup", -1, int64(i))
		t0 := time.Now()
		d, err = deploy(w, g, eps, cfg.OutDir, tr, id)
		setups = append(setups, time.Since(t0).Seconds())
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	defer func() {
		if d != nil {
			d.close()
		}
	}()
	res.Metrics["setup_s"] = quietQuartile(setups)
	res.Metrics["resident_mb"] = heapInUseMiB()

	var live *liveState
	if ov := d.ds.Live(); ov != nil {
		live = &liveState{}
		live.points.Store(int64(g.NumPoints()))
		if err := preMutate(ctx, d, live, wi); err != nil {
			return nil, fmt.Errorf("pre-mutating the live dataset: %w", err)
		}
		// The library rounds keep this view — views are immutable — while the
		// bursts between them move the overlay on, so every round does the
		// same work.
		d.graph = ov.Current().Graph
	}

	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	lib := newLibSection(ctx, d.graph, eps, w, wi, cfg.Seed, n)
	srv := newServeSection(d, cfg.Seed, wi, n, live)
	var storeBefore netclus.StoreStats
	if d.store != nil {
		storeBefore = netclus.SnapshotStore(d.store)
	}
	if err := measure(ctx, cfg, w, lib, srv, tr); err != nil {
		return nil, err
	}
	if d.store != nil {
		storageLayer(layer, d, netclus.SnapshotStore(d.store).Sub(storeBefore), 1+len(lib.rounds))
	}
	res.Metrics.add(lib.metrics())
	res.Metrics.add(srv.metrics())
	if err := libChecks(ctx, chk, d, lib, n); err != nil {
		return nil, fmt.Errorf("library checks: %w", err)
	}
	if live != nil {
		liveChecks(ctx, chk, d, live, g.NumPoints())
	}

	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	res.Attempted = chk.attempted + lib.attempted + srv.attempted
	res.Failed = chk.failed + lib.failed + srv.failed
	res.Failures = append(append(chk.failures, lib.failures...), srv.failures...)
	res.Info["rounds"], res.Info["requests"], res.Info["body_checks"] = len(lib.rounds), len(srv.samples), srv.checked

	if cfg.Trace {
		ops := float64(lib.attempted + srv.attempted)
		layer["runtime.alloc_bytes_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / ops
		layer["runtime.mallocs_per_op"] = float64(after.Mallocs-before.Mallocs) / ops
		layer["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
		layer["runtime.gc_pause_total_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
		layer["trace.overhead_pct"] = lib.traceOverheadPct()
		if d.snap != nil {
			st := d.snap.Stats()
			layer["csr.compile_ms"] = float64(st.CompileTime.Nanoseconds()) / 1e6
			layer["csr.resident_bytes"] = float64(st.ResidentBytes)
		}
		coreLayer(layer, lib)
		serveLayer(layer, srv)
		if err := probeLayers(ctx, layer, d, srv, cfg, wi, tr); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		path := filepath.Join(cfg.OutDir, "trace-"+w.Name+".json")
		if err := tr.write(path, w.Name, cfg.Seed); err != nil {
			return nil, err
		}
		res.Info["trace_file"] = path
		res.Info["end_to_end"] = res.Metrics
		res.Metrics = layer
	}
	res.Correct = res.Failed == 0
	err = d.close()
	d = nil
	return res, err
}

// measure runs the workload's cycle — w.Rounds library rounds, then a burst
// of w.Requests requests a client — until cfg.Seconds are spent, or for
// cfg.Cycles cycles. Every cycle is the same work and every timing is a
// quiet quartile over cycles, so a stretch in which the host is slow costs
// every metric a few of its samples and no metric all of them. The first
// tenth of the time (at least one cycle) is warm-up, then at least three
// cycles are timed.
func measure(ctx context.Context, cfg runConfig, w workload, lib *libSection, srv *serveSection, tr *tracer) error {
	budget := time.Duration(cfg.Seconds * float64(time.Second))
	start := time.Now()
	for c := 0; ; c++ {
		elapsed := time.Since(start)
		if cfg.Cycles > 0 && c >= cfg.Cycles || cfg.Cycles <= 0 && len(srv.rates) >= 3 && elapsed >= budget {
			break
		}
		timed := c > 0 && elapsed >= budget/10
		for r := c * w.Rounds; r < (c+1)*w.Rounds; r++ {
			if err := lib.round(r, timed, tr); err != nil {
				return err
			}
		}
		srv.burst(ctx, w.Requests, timed, tr)
	}
	srv.finish()
	return nil
}

// preMutate applies preMutations ops to the live dataset through the overlay
// itself, so the measured sections start on a merged delta view. The ops are
// the same under every seed: the library rounds run on the resulting view,
// and a k-medoids run converges after a different number of swaps on every
// view, so views that followed the seed would put the spread of that number
// on kmedoids_ms.
func preMutate(ctx context.Context, d *deployment, live *liveState, wi int) error {
	st := newStream(substream(0, wi, roleMutate, 0), d.w, 0, d.eps, 1, d.net.NumPoints(), live)
	for applied := 0; applied < preMutations; {
		n, err := st.applyBatch(ctx, d.ds.Live())
		if err != nil {
			return err
		}
		applied += n
	}
	return nil
}

// libChecks are the bench-scale correctness checks on round 0's outputs:
// parallel labels hash equal to sequential ones, the same labels from
// another backend holding the same data, and DBSCAN and ε-Link recovering
// the generator's clusters (the paper's Fig. 11 claim).
func libChecks(ctx context.Context, c *checker, d *deployment, lib *libSection, workers int) error {
	h := lib.first.hash
	c.check(h["dbscan"] == h["dbscan_par"], "DBSCAN labels differ between Workers 0 and %d", workers)
	c.check(h["epslink"] == h["epslink_par"], "eps-Link labels differ between Workers 0 and %d", workers)

	// The other backend: the pointer network for a snapshot, a compiled
	// snapshot of whatever else the rounds ran on.
	var other netclus.Graph = d.net
	if _, isSnap := d.graph.(*netclus.Snapshot); !isSnap {
		sn, err := netclus.Compile(d.graph)
		if err != nil {
			return err
		}
		other = sn
	}
	db, err := netclus.DBSCANCtx(ctx, other, netclus.DBSCANOptions{Eps: lib.eps, MinPts: 3})
	if err != nil {
		return err
	}
	c.check(labelHash(db.Labels) == h["dbscan"], "DBSCAN labels differ across backends of the %s network", d.w.Name)
	el, err := netclus.EpsLinkCtx(ctx, other, netclus.EpsLinkOptions{Eps: lib.eps / 2, MinSup: 3})
	if err != nil {
		return err
	}
	c.check(labelHash(el.Labels) == h["epslink"], "eps-Link labels differ across backends of the %s network", d.w.Name)

	// Ground truth is the generated network's: the live backend's rounds ran
	// on a mutated view, so its clusterings are recomputed on the base.
	truth := netclus.NoiseAsSingletons(d.net.Tags(), netclus.OutlierTag)
	generated := other
	if d.w.Backend == "live" {
		generated = d.snap
		if db, err = netclus.DBSCANCtx(ctx, generated, netclus.DBSCANOptions{Eps: lib.eps, MinPts: 3}); err != nil {
			return err
		}
	}
	full, err := netclus.EpsLinkCtx(ctx, generated, netclus.EpsLinkOptions{Eps: lib.eps, MinSup: 3})
	if err != nil {
		return err
	}
	for name, labels := range map[string][]int32{"DBSCAN": db.Labels, "eps-Link": full.Labels} {
		ari, err := netclus.ARI(truth, netclus.NoiseAsSingletons(labels, netclus.Noise))
		c.check(err == nil && ari >= minARI, "%s ARI %.4f vs the generator's clusters, want >= %v", name, ari, minARI)
	}
	return nil
}

// minARI is the agreement with the generator's ground truth DBSCAN and
// ε-Link must reach at the generator's suggested ε.
const minARI = 0.99

// liveChecks run after the last burst on a live dataset: the maintained
// labels equal a from-scratch DBSCAN of the final view, the point count is
// base + inserts − deletes, and the epoch is 1 + batches + compactions.
func liveChecks(ctx context.Context, c *checker, d *deployment, live *liveState, basePoints int) {
	ov := d.ds.Live()
	// A background compaction may still be compiling; its install bumps the
	// epoch, so wait for it before reading epoch and counters together.
	for i := 0; i < 1000 && ov.Stats().CompactRunning; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	st, cur := ov.Stats(), ov.Current()
	c.check(int64(cur.Points) == int64(basePoints)+live.inserts.Load()-live.deletes.Load(),
		"live point count %d, want %d + %d - %d", cur.Points, basePoints, live.inserts.Load(), live.deletes.Load())
	c.check(st.Batches == live.batches.Load() && st.Rejected == 0, "overlay applied %d batches (%d rejected), clients saw %d acked", st.Batches, st.Rejected, live.batches.Load())
	c.check(st.Epoch == 1+st.Batches+st.Compactions, "live epoch %d, want 1 + %d batches + %d compactions", st.Epoch, st.Batches, st.Compactions)

	labels, _, _, ok := cur.LiveDBSCAN(d.eps, 3)
	res, err := netclus.DBSCANCtx(ctx, cur.Graph, netclus.DBSCANOptions{Eps: d.eps, MinPts: 3})
	c.check(ok && err == nil && sameLabelsOnCore(labels, res), "maintained DBSCAN labels differ from a from-scratch run on the final view")
}
