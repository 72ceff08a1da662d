package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"netclus"
	"netclus/internal/network"
	"netclus/internal/server/api"
	"netclus/internal/unionfind"
)

// perLayer lists the single-layer metrics a traced run prints, named
// layer.metric. README.md has, for each, the end-to-end metric and workload a
// change in it should move. A layer that a workload does not touch reports 0
// there (pagebuf outside the store backend, delta outside the live one).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	add("s", "lower", "datagen.generate_s")
	add("ms", "lower", "csr.compile_ms")
	add("B", "lower", "csr.resident_bytes")
	add("ms", "lower", "csr.coreflags_w1_ms", "csr.coreflags_wN_ms", "csr.epsunions_w1_ms", "csr.epsunions_wN_ms",
		"csr.epslink_labels_ms", "csr.expand_nearest_ms", "csr.assign_nearest_ms")
	add("us", "lower", "csr.knn_us", "csr.range_us", "csr.knn_batch_us_per_query", "csr.range_each_us_per_query")
	add("ms", "lower", "csr.range_wide_ms", "csr.range_wide_par_ms")
	add("ms", "lower", "core.dbscan_self_ms", "core.epslink_self_ms")
	for _, algo := range []string{"dbscan", "epslink", "kmedoids", "singlelink"} {
		for _, c := range workCounters {
			add("count", "lower", "core."+algo+"."+c)
		}
	}
	add("ms", "lower", "unionfind.merge_ms")
	add("ms", "lower", "network.dbscan_ms", "network.epslink_ms", "network.kmedoids_ms")
	add("us", "lower", "network.knn_us", "network.range_us")
	add("ms", "lower", "shard.partition_ms")
	add("B", "lower", "shard.resident_bytes")
	add("count", "lower", "shard.cut_edges")
	add("ms", "lower", "shard.dbscan_ms", "shard.dbscan_par_ms", "shard.epslink_ms", "shard.kmedoids_ms")
	add("us", "lower", "shard.knn_us", "shard.range_us")
	add("count", "lower", "shard.rounds_per_query", "shard.fanout_per_query")
	add("ratio", "higher", "shard.crit_over_wall")
	add("ms", "lower", "storage.build_ms")
	add("B", "lower", "storage.file_bytes")
	add("count", "lower", "pagebuf.logical_reads_per_round", "pagebuf.physical_reads_per_round", "pagebuf.evictions_per_round")
	add("ratio", "higher", "pagebuf.hit_ratio", "storage.adj_cache_hit_ratio", "storage.group_cache_hit_ratio", "bptree.leaf_hint_hit_ratio")
	add("ms", "lower", "lbound.build_ms")
	add("us", "lower", "lbound.knn_pruned_us", "lbound.range_pruned_us")
	add("ms", "lower", "lbound.dbscan_pruned_ms")
	add("ratio", "lower", "lbound.settled_ratio")
	add("ms", "lower", "snapfile.write_ms", "snapfile.open_ms")
	add("B", "lower", "snapfile.bytes")
	add("us", "lower", "api.decode_us", "server.handler_us", "server.http_stack_us",
		"server.hit_p50_us", "server.miss_p50_us", "server.wider_p50_us")
	add("ms", "lower", "server.knn_p50_ms", "server.range_p50_ms", "server.knn_p99_ms", "server.range_p99_ms")
	add("B", "lower", "server.response_bytes_per_request")
	add("ratio", "higher", "server.cache_hit_ratio")
	add("count", "higher", "server.cache_containment_hits", "server.cache_singleflight_shared")
	add("count", "lower", "server.cache_evictions")
	add("B", "lower", "server.cache_bytes")
	add("count", "higher", "server.admission_admitted")
	add("count", "lower", "server.admission_rejected", "server.admission_timed_out", "server.reads_behind_cluster")
	add("count", "higher", "server.knn_batch_mean_size")
	add("ms", "lower", "server.cluster_kernel_ms", "server.cluster_encode_ms")
	// Two latencies ISSUE 11 listed as end-to-end are layer metrics here. The
	// 99th percentile of reads lies in the part of the tail the collector and
	// the scheduler shape, and its spread between runs of one build reached
	// 31%, past any bound the driver takes; read_p95_ms carries the bound.
	// Only the live workload has writes, and the driver wants every
	// end-to-end metric from every workload; throughput_rps on serve-write,
	// a tenth of whose requests are batches costing tens of reads, carries
	// that bound.
	add("ms", "lower", "read_p99_ms", "write_p50_ms", "write_p99_ms")
	add("ms", "lower", "delta.apply_p50_ms")
	add("us", "lower", "delta.live_maintain_us_per_op")
	add("count", "lower", "delta.live_range_queries_per_op")
	add("count", "higher", "delta.compactions")
	add("ms", "lower", "delta.max_pause_ms", "delta.last_compile_ms")
	add("count", "lower", "delta.pending_ops_end")
	add("count", "higher", "delta.epoch_end")
	add("us", "lower", "delta.view_knn_us", "delta.view_range_us")
	add("B", "lower", "runtime.alloc_bytes_per_op")
	add("count", "lower", "runtime.mallocs_per_op", "runtime.gc_cycles")
	add("ms", "lower", "runtime.gc_pause_total_ms")
	add("%", "lower", "trace.overhead_pct")
	return defs
}

// workCounters are the core.Stats fields reported per algorithm; they repeat
// exactly under one seed.
var workCounters = []string{"nodes_settled", "heap_pushes", "edges_visited", "groups_read", "range_queries"}

// coreLayer reports round 0's work counters of the four algorithms.
func coreLayer(layer values, lib *libSection) {
	for _, algo := range []string{"dbscan", "epslink", "kmedoids", "singlelink"} {
		st := lib.first.stats[algo]
		for i, x := range []int{st.NodesSettled, st.HeapPushes, st.EdgesVisited, st.GroupsRead, st.RangeQueries} {
			layer["core."+algo+"."+workCounters[i]] = float64(x)
		}
	}
}

// storageLayer reports the page and record-cache traffic of the library
// rounds on the store backend.
func storageLayer(layer values, d *deployment, delta netclus.StoreStats, rounds int) {
	n := float64(rounds)
	layer["storage.build_ms"] = d.buildMS
	layer["storage.file_bytes"] = float64(d.storeFileBytes())
	layer["pagebuf.logical_reads_per_round"] = float64(delta.Buffer.LogicalReads) / n
	layer["pagebuf.physical_reads_per_round"] = float64(delta.Buffer.PhysicalReads) / n
	layer["pagebuf.evictions_per_round"] = float64(delta.Buffer.Evictions) / n
	layer["pagebuf.hit_ratio"] = delta.Buffer.HitRatio()
	c := delta.Cache
	layer["storage.adj_cache_hit_ratio"] = ratio(float64(c.AdjHits), float64(c.AdjHits+c.AdjMisses))
	layer["storage.group_cache_hit_ratio"] = ratio(float64(c.GroupHits), float64(c.GroupHits+c.GroupMisses))
	layer["bptree.leaf_hint_hit_ratio"] = ratio(float64(c.LeafHits), float64(c.LeafHits+c.LeafMisses))
}

// serveLayer reports what the bursts' samples and the server's own
// counters say about internal/server and internal/delta.
func serveLayer(layer values, s *serveSection) {
	us := func(keep func(sample) bool) float64 { return 1e3 * median(s.latencies(keep)) }
	byCache := func(tag string) func(sample) bool {
		return func(sm sample) bool { return isRead(sm) && sm.cache == tag }
	}
	layer["server.hit_p50_us"] = us(byCache("hit"))
	layer["server.miss_p50_us"] = us(byCache("miss"))
	layer["server.wider_p50_us"] = us(byCache("wider"))
	for _, k := range []reqKind{kindKNN, kindRange} {
		lat := s.latencies(func(sm sample) bool { return sm.kind == k })
		layer["server."+k.String()+"_p50_ms"] = median(lat)
		layer["server."+k.String()+"_p99_ms"] = percentile(lat, 0.99)
	}
	layer["read_p99_ms"] = percentile(s.latencies(isRead), 0.99)
	writes := s.latencies(func(sm sample) bool { return sm.kind == kindWrite })
	layer["write_p50_ms"], layer["write_p99_ms"] = median(writes), percentile(writes, 0.99)
	var bytes int
	for _, sm := range s.samples {
		bytes += sm.bytes
	}
	layer["server.response_bytes_per_request"] = ratio(float64(bytes), float64(len(s.samples)))
	layer["server.reads_behind_cluster"] = float64(s.readsBehindCluster())

	srv := s.d.srv
	cs := srv.ResultCache().Stats()
	layer["server.cache_hit_ratio"] = ratio(float64(cs.Hits+cs.Containment), float64(cs.Hits+cs.Containment+cs.Misses))
	layer["server.cache_containment_hits"] = float64(cs.Containment)
	layer["server.cache_singleflight_shared"] = float64(cs.Shared)
	layer["server.cache_evictions"] = float64(cs.Evictions)
	layer["server.cache_bytes"] = float64(cs.Bytes)
	as := srv.Admission().Stats()
	layer["server.admission_admitted"] = float64(as.Admitted)
	layer["server.admission_rejected"] = float64(as.Rejected)
	layer["server.admission_timed_out"] = float64(as.TimedOut)
	batches, batched := srv.Metrics().KNNBatchCounts()
	layer["server.knn_batch_mean_size"] = ratio(float64(batched), float64(batches))

	if ov := s.d.ds.Live(); ov != nil {
		st := ov.Stats()
		layer["delta.live_maintain_us_per_op"] = ratio(float64(st.LiveMaintainNS)/1e3, float64(st.Ops))
		layer["delta.live_range_queries_per_op"] = ratio(float64(st.LiveRangeQs), float64(st.Ops))
		layer["delta.compactions"] = float64(st.Compactions)
		layer["delta.max_pause_ms"] = st.MaxPauseMS
		layer["delta.last_compile_ms"] = st.LastCompileMS
		layer["delta.pending_ops_end"] = float64(st.PendingOps)
		layer["delta.epoch_end"] = float64(st.Epoch)
	}
}

// readsBehindCluster counts the timed reads slower than 1 ms whose interval
// overlapped a clustering request's: the queueing a closed loop hides.
func (s *serveSection) readsBehindCluster() int {
	type interval struct{ lo, hi time.Duration }
	var jobs []interval
	for _, sm := range s.samples {
		if sm.kind == kindCluster {
			jobs = append(jobs, interval{sm.start, sm.start + sm.lat})
		}
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].lo < jobs[j].lo })
	// With N closed-loop clients at most N jobs overlap any instant, so the
	// jobs that can overlap a read start within the last few before its end.
	n := 0
	for _, sm := range s.samples {
		if !isRead(sm) || sm.lat < time.Millisecond {
			continue
		}
		i := sort.Search(len(jobs), func(i int) bool { return jobs[i].lo >= sm.start+sm.lat })
		for j := i - 1; j >= 0 && j >= i-s.clients; j-- {
			if jobs[j].hi > sm.start {
				n++
				break
			}
		}
	}
	return n
}

// prober times direct calls into one layer at a time, a span around each.
type prober struct {
	ctx   context.Context
	tr    *tracer
	root  int32
	layer values
	err   error
}

// ms runs fn reps times and returns the median duration in milliseconds. The
// first error sticks and later probes are skipped.
func (p *prober) ms(name string, reps int, fn func() error) float64 {
	if p.err != nil {
		return 0
	}
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		id := p.tr.begin(name, p.root, int64(i))
		t0 := time.Now()
		err := fn()
		ds = append(ds, float64(time.Since(t0).Nanoseconds())/1e6)
		p.tr.end(id)
		if err != nil {
			p.err = fmt.Errorf("%s: %w", name, err)
			return 0
		}
	}
	return median(ds)
}

// perQueryUS is ms over a loop of n queries, as microseconds per query.
func (p *prober) perQueryUS(name string, reps, n int, fn func() error) float64 {
	return 1e3 * p.ms(name, reps, fn) / float64(n)
}

const (
	probeReps    = 7   // repetitions of a cheap probe
	probeQueries = 512 // point queries per query-loop probe
	wideQueries  = 32  // wide-ε queries per probe
)

// probeLayers measures the layers from outside by calling their public
// functions directly on the workload's network.
func probeLayers(ctx context.Context, layer values, d *deployment, srv *serveSection, cfg runConfig, wi int, tr *tracer) error {
	root := tr.begin("layers", -1, 0)
	defer tr.end(root)
	// The probes carry no bound, so they may use every processor: the wN legs
	// are the place the parallel kernels are measured on real cores.
	workers := hostCPUs()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	p := &prober{ctx: ctx, tr: tr, root: root, layer: layer}
	rng := substream(cfg.Seed, wi, roleLayers, 0)
	n := d.net.NumPoints()
	probes := make([]netclus.PointID, probeQueries)
	for i := range probes {
		probes[i] = netclus.PointID(rng.Intn(n))
	}

	sn := d.snap
	if sn == nil {
		var err error
		if sn, err = netclus.Compile(d.net); err != nil {
			return err
		}
	}
	p.csr(sn, d.eps, workers, probes)
	// The pointer network is the baseline the CSR numbers are stated against.
	p.generic("network", d.net, d.eps)
	layer["network.knn_us"], layer["network.range_us"] = p.queries("network", d.net, d.eps, probes)
	p.shard(d.net, d.eps, workers, probes)
	p.lbound(d, sn, probes)
	p.snapfile(sn, cfg.OutDir)
	p.server(d, srv, cfg.Seed, wi)
	if d.ds.Live() != nil {
		p.delta(d, srv, cfg.Seed, wi, probes)
	}
	return p.err
}

// csr calls the snapshot's kernels directly.
func (p *prober) csr(sn *netclus.Snapshot, eps float64, workers int, probes []netclus.PointID) {
	ctx, n := p.ctx, sn.NumPoints()
	core := make([]bool, n)
	newUFs := func(w int) []*unionfind.UF {
		ufs := make([]*unionfind.UF, w)
		for i := range ufs {
			ufs[i] = unionfind.New(n)
		}
		return ufs
	}
	noBorder := func(int, netclus.PointID, netclus.PointID) {}
	for _, leg := range []struct {
		suffix  string
		workers int
	}{{"w1", 1}, {"wN", workers}} {
		p.layer["csr.coreflags_"+leg.suffix+"_ms"] = p.ms("csr.CoreFlags/"+leg.suffix, probeReps, func() error {
			_, err := sn.CoreFlags(ctx, eps, 3, leg.workers, nil, core)
			return err
		})
		var ufs []*unionfind.UF
		p.layer["csr.epsunions_"+leg.suffix+"_ms"] = p.ms("csr.EpsUnions/"+leg.suffix, probeReps, func() error {
			ufs = newUFs(leg.workers)
			_, err := sn.EpsUnions(ctx, eps, leg.workers, nil, core, ufs, noBorder)
			return err
		})
		if leg.workers == workers && p.err == nil {
			p.layer["unionfind.merge_ms"] = p.ms("unionfind.MergeInto", 1, func() error {
				for _, uf := range ufs[1:] {
					uf.MergeInto(ufs[0])
				}
				return nil
			})
		}
	}
	// What core adds around the kernel calls: the public call minus the
	// kernel passes it makes.
	dbscan := p.ms("core.DBSCAN/wN", probeReps, func() error {
		_, err := netclus.DBSCANCtx(ctx, sn, netclus.DBSCANOptions{Eps: eps, MinPts: 3, Workers: workers})
		return err
	})
	p.layer["core.dbscan_self_ms"] = dbscan - p.layer["csr.coreflags_wN_ms"] - p.layer["csr.epsunions_wN_ms"]
	epslink := p.ms("core.EpsLink/wN", probeReps, func() error {
		_, err := netclus.EpsLinkCtx(ctx, sn, netclus.EpsLinkOptions{Eps: eps / 2, MinSup: 3, Workers: workers})
		return err
	})
	p.layer["core.epslink_self_ms"] = epslink - p.ms("csr.EpsUnions/all", probeReps, func() error {
		_, err := sn.EpsUnions(ctx, eps/2, workers, nil, nil, newUFs(workers), nil)
		return err
	})

	labels := make([]int32, n)
	p.layer["csr.epslink_labels_ms"] = p.ms("csr.EpsLinkLabels", probeReps, func() error {
		_, _, err := sn.EpsLinkLabels(ctx, eps/2, 3, labels)
		return err
	})

	// The k-medoids kernels, from ten medoids spread over the probes.
	infos := make([]netclus.PointInfo, 10)
	var seeds []network.MedoidSeed
	for i := range infos {
		pi, err := sn.PointInfo(probes[i])
		if err != nil {
			p.err = err
			return
		}
		infos[i] = pi
		seeds = append(seeds,
			network.MedoidSeed{Node: pi.N1, Med: int32(i), Dist: pi.Pos},
			network.MedoidSeed{Node: pi.N2, Med: int32(i), Dist: pi.Weight - pi.Pos})
	}
	med, dist := make([]int32, sn.NumNodes()), make([]float64, sn.NumNodes())
	p.layer["csr.expand_nearest_ms"] = p.ms("csr.ExpandNearest", probeReps, func() error {
		for i := range med {
			med[i], dist[i] = -1, math.Inf(1)
		}
		_, err := sn.ExpandNearest(ctx, seeds, med, dist)
		return err
	})
	p.layer["csr.assign_nearest_ms"] = p.ms("csr.AssignNearest", probeReps, func() error {
		sn.AssignNearest(infos, med, dist, labels)
		return nil
	})

	p.layer["csr.knn_us"], p.layer["csr.range_us"] = p.queries("csr", sn, eps, probes)
	kb := sn.NewKNNBatch()
	p.layer["csr.knn_batch_us_per_query"] = p.perQueryUS("csr.KNNBatch", probeReps, len(probes), func() error {
		kb.Reset()
		for _, q := range probes {
			kb.Add(q, 10)
		}
		return kb.Run(ctx, workers)
	})
	p.layer["csr.range_each_us_per_query"] = p.perQueryUS("csr.RangeEach", probeReps, len(probes), func() error {
		return sn.RangeEach(ctx, probes, eps, workers, func(int, netclus.PointID, []netclus.PointID, []float64) error { return nil })
	})
	wide := probes[:wideQueries]
	sc := netclus.ScratchFor(sn)
	p.layer["csr.range_wide_ms"] = p.ms("csr.RangeQueryDist/wide", probeReps, func() error {
		for _, q := range wide {
			if _, err := sc.RangeQueryDistCtx(ctx, sn, q, 16*eps); err != nil {
				return err
			}
		}
		return nil
	}) / wideQueries
	var buf []netclus.PointDist
	p.layer["csr.range_wide_par_ms"] = p.ms("csr.RangeQueryDistParallel/wide", probeReps, func() error {
		for _, q := range wide {
			res, err := sn.RangeQueryDistParallelInto(ctx, q, 16*eps, workers, buf)
			if err != nil {
				return err
			}
			buf = res
		}
		return nil
	}) / wideQueries
}

// queries times lone kNN and range queries on g, in microseconds per query.
func (p *prober) queries(layerName string, g netclus.Graph, eps float64, probes []netclus.PointID) (knnUS, rangeUS float64) {
	knnUS = p.perQueryUS(layerName+".knn", probeReps, len(probes), func() error {
		for _, q := range probes {
			if _, err := netclus.KNearestNeighborsCtx(p.ctx, g, q, 10); err != nil {
				return err
			}
		}
		return nil
	})
	sc := netclus.ScratchFor(g)
	rangeUS = p.perQueryUS(layerName+".range", probeReps, len(probes), func() error {
		for _, q := range probes {
			if _, err := sc.RangeQueryCtx(p.ctx, g, q, eps); err != nil {
				return err
			}
		}
		return nil
	})
	return knnUS, rangeUS
}

// generic runs the clustering jobs of a round on g through the public entry
// points, as <layer>.*_ms.
func (p *prober) generic(layerName string, g netclus.Graph, eps float64) {
	ctx := p.ctx
	p.layer[layerName+".dbscan_ms"] = p.ms(layerName+".dbscan", 3, func() error {
		_, err := netclus.DBSCANCtx(ctx, g, netclus.DBSCANOptions{Eps: eps, MinPts: 3})
		return err
	})
	p.layer[layerName+".epslink_ms"] = p.ms(layerName+".epslink", 3, func() error {
		_, err := netclus.EpsLinkCtx(ctx, g, netclus.EpsLinkOptions{Eps: eps / 2, MinSup: 3})
		return err
	})
	p.layer[layerName+".kmedoids_ms"] = p.ms(layerName+".kmedoids", 3, func() error {
		_, err := netclus.KMedoidsCtx(ctx, g, netclus.KMedoidsOptions{K: 10, Rand: rand.New(rand.NewSource(1))})
		return err
	})
}

// shard partitions the network four ways and runs the round on the
// scatter-gather set, reading its counters around the point queries.
func (p *prober) shard(g *netclus.Network, eps float64, workers int, probes []netclus.PointID) {
	var set *netclus.ShardedSet
	p.layer["shard.partition_ms"] = p.ms("shard.Partition", 1, func() (err error) {
		set, err = netclus.PartitionNetwork(g, 4)
		return err
	})
	if p.err != nil {
		return
	}
	st := set.Stats()
	p.layer["shard.resident_bytes"] = float64(st.ResidentBytes)
	p.layer["shard.cut_edges"] = float64(st.CutEdges)
	p.generic("shard", set, eps)
	// The modeled critical path (one core per worker stripe) over the wall
	// time realised at this GOMAXPROCS, from the parallel run's own Stats: 1
	// would validate the model, less says the host has fewer free cores than
	// the model assumes.
	var par netclus.ClusterStats
	p.layer["shard.dbscan_par_ms"] = p.ms("shard.dbscan_par", 3, func() error {
		res, err := netclus.DBSCANCtx(p.ctx, set, netclus.DBSCANOptions{Eps: eps, MinPts: 3, Workers: workers})
		if err == nil {
			par = res.Stats
		}
		return err
	})
	p.layer["shard.crit_over_wall"] = ratio(float64(par.CritNs), float64(par.WallNs))
	before := set.Counters()
	p.layer["shard.knn_us"], p.layer["shard.range_us"] = p.queries("shard", set, eps, probes)
	c := set.Counters()
	queries := float64(c.Queries - before.Queries)
	p.layer["shard.rounds_per_query"] = ratio(float64(c.Rounds-before.Rounds), queries)
	p.layer["shard.fanout_per_query"] = ratio(float64(c.Fanout-before.Fanout), queries)
}

// lbound times the pruned paths on the graph the library rounds ran on (the
// compiled snapshot for the live backend, whose merged view has no bounds).
func (p *prober) lbound(d *deployment, sn *netclus.Snapshot, probes []netclus.PointID) {
	ctx, g, b := p.ctx, d.graph, d.ds.Bounds()
	if b == nil {
		g = sn
		var err error
		b, err = netclus.BuildBounds(sn, netclus.BoundsOptions{Landmarks: netclus.DefaultLandmarks, EuclideanLB: true})
		if err != nil {
			p.err = fmt.Errorf("lbound.Build: %w", err)
			return
		}
	}
	p.layer["lbound.build_ms"] = float64(b.Stats().BuildTime.Nanoseconds()) / 1e6
	p.layer["lbound.knn_pruned_us"] = p.perQueryUS("lbound.knn", probeReps, len(probes), func() error {
		for _, q := range probes {
			if _, err := netclus.KNearestNeighborsPrunedCtx(ctx, g, b, q, 10, nil); err != nil {
				return err
			}
		}
		return nil
	})
	sc := netclus.ScratchFor(g)
	sc.SetBounder(b)
	p.layer["lbound.range_pruned_us"] = p.perQueryUS("lbound.range", probeReps, len(probes), func() error {
		for _, q := range probes {
			if _, err := sc.RangeQueryCtx(ctx, g, q, d.eps); err != nil {
				return err
			}
		}
		return nil
	})
	p.layer["lbound.dbscan_pruned_ms"] = p.ms("lbound.dbscan", 3, func() error {
		_, err := netclus.DBSCANCtx(ctx, g, netclus.DBSCANOptions{Eps: d.eps, MinPts: 3, Prune: b})
		return err
	})
	// Nodes settled by one seeded k-medoids run with the bounds over the
	// same run without: the traversal pruning saves, as an exact count.
	settled := func(prune netclus.Bounder) (n float64) {
		p.ms("lbound.kmedoids", 1, func() error {
			res, err := netclus.KMedoidsCtx(ctx, g, netclus.KMedoidsOptions{K: 10, Rand: rand.New(rand.NewSource(1)), Prune: prune})
			if err == nil {
				n = float64(res.Stats.NodesSettled)
			}
			return err
		})
		return n
	}
	p.layer["lbound.settled_ratio"] = ratio(settled(b), settled(nil))
}

// snapfile writes the snapshot to a file and opens it again.
func (p *prober) snapfile(sn *netclus.Snapshot, outDir string) {
	path := filepath.Join(outDir, fmt.Sprintf("probe-%d.ncs", os.Getpid()))
	defer os.Remove(path)
	p.layer["snapfile.write_ms"] = p.ms("snapfile.Write", 3, func() error { return netclus.WriteSnapshotFile(sn, path) })
	p.layer["snapfile.open_ms"] = p.ms("snapfile.Open", 3, func() error {
		_, err := netclus.OpenSnapshot(path)
		return err
	})
	if fi, err := os.Stat(path); err == nil {
		p.layer["snapfile.bytes"] = float64(fi.Size())
	}
}

// server takes a fresh stream of reads through the api decoders alone, then
// through the handler without a socket; what the loopback round trip adds is
// the traced run's read median minus the handler's. A handful of clustering
// requests are split into kernel (the direct library call) and encode.
func (p *prober) server(d *deployment, srv *serveSection, seed int64, wi int) {
	st := newStream(substream(seed, wi, roleClient, srv.clients), d.w, 0, d.eps, srv.clients, d.net.NumPoints(), srv.live)
	reqs := make([]request, 4*probeQueries)
	urls := make([]*url.URL, len(reqs))
	for i := range reqs {
		reqs[i] = st.read()
		_, path, _ := reqs[i].target()
		u, err := url.Parse(path)
		if err != nil {
			p.err = err
			return
		}
		urls[i] = u
	}
	p.layer["api.decode_us"] = p.perQueryUS("api.Decode", probeReps, len(reqs), func() error {
		for i, u := range urls {
			var err error
			if reqs[i].kind == kindKNN {
				var r api.KNNRequest
				if r, err = api.DecodeKNN(u.Query()); err == nil {
					_ = r.Canonical()
				}
			} else {
				var r api.RangeRequest
				if r, err = api.DecodeRange(u.Query()); err == nil {
					_ = r.Canonical()
				}
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	h := d.srv.Handler()
	var handler []float64
	for _, u := range urls {
		rec := httptest.NewRecorder()
		hreq := httptest.NewRequest("GET", u.String(), nil)
		id := p.tr.begin("server.Handler", p.root, 0)
		t0 := time.Now()
		h.ServeHTTP(rec, hreq)
		handler = append(handler, float64(time.Since(t0).Nanoseconds())/1e3)
		p.tr.end(id)
		if rec.Code != 200 {
			p.err = fmt.Errorf("handler %s: status %d", u, rec.Code)
			return
		}
	}
	p.layer["server.handler_us"] = median(handler)
	p.layer["server.http_stack_us"] = 1e3*median(srv.latencies(isRead)) - p.layer["server.handler_us"]

	// Clustering: kernel (the same request as a direct library call, pruned
	// when the dataset has bounds, as the handler runs it) vs encode, on the
	// view requests are served from.
	g := d.graph
	if ov := d.ds.Live(); ov != nil {
		g = ov.Current().Graph
	}
	var prune netclus.Bounder
	if b := d.ds.Bounds(); b != nil {
		prune = b
	}
	var kernel, encode []float64
	for i := 0; i < probeReps && p.err == nil; i++ {
		req := st.clusterJob()
		var labels []int32
		kernel = append(kernel, p.ms("server.cluster/kernel", 1, func() error {
			if req.Algo == "epslink" {
				res, err := netclus.EpsLinkCtx(p.ctx, g, netclus.EpsLinkOptions{Eps: req.Eps, MinSup: req.MinSup, Workers: req.Workers})
				if err == nil {
					labels = res.Labels
				}
				return err
			}
			res, err := netclus.DBSCANCtx(p.ctx, g, netclus.DBSCANOptions{Eps: req.Eps, MinPts: req.MinPts, Workers: req.Workers, Prune: prune})
			if err == nil {
				labels = res.Labels
			}
			return err
		}))
		encode = append(encode, p.ms("server.cluster/encode", 1, func() error {
			_, err := json.Marshal(api.ClusterResponse{Dataset: datasetName, Algo: req.Algo, Labels: labels})
			return err
		}))
	}
	p.layer["server.cluster_kernel_ms"], p.layer["server.cluster_encode_ms"] = median(kernel), median(encode)
}

// delta applies fresh batches straight to the overlay and reads the merged
// view through the library.
func (p *prober) delta(d *deployment, srv *serveSection, seed int64, wi int, probes []netclus.PointID) {
	ov := d.ds.Live()
	st := newStream(substream(seed, wi, roleMutate, 1), d.w, 0, d.eps, 1, d.net.NumPoints(), srv.live)
	var apply []float64
	for i := 0; i < 20*probeReps && p.err == nil; i++ {
		apply = append(apply, p.ms("delta.Apply", 1, func() error {
			_, err := st.applyBatch(p.ctx, ov)
			return err
		}))
	}
	p.layer["delta.apply_p50_ms"] = median(apply)
	view := ov.Current().Graph
	for i, q := range probes {
		probes[i] = q % netclus.PointID(view.NumPoints())
	}
	p.layer["delta.view_knn_us"], p.layer["delta.view_range_us"] = p.queries("delta.view", view, d.eps, probes)
}
