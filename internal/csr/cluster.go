package csr

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"netclus/internal/network"
	"netclus/internal/unionfind"
)

// This file holds the striped-sweep machinery of the snapshot's labeller:
// clusterRun and the early-exiting counting expansion (rangeCount) that
// dbscan.go's flag pass runs. The sweeps cover the points in contiguous
// stripes over pooled epoch-stamped scratches — the same SoA shape as
// NewKNNBatch — so their steady state allocates nothing. CoreFlags and EpsUnions are the two passes of the
// retired union-find engine; no dispatch reaches them any more (the snapshot
// is labelled by DBSCANLabels and EpsLinkLabels).

// clusterState is the pooled coordination state of one fused pass:
// per-stripe wall times, query counts, prune deltas and errors.
type clusterState struct {
	ns    []int64
	qs    []int64
	prune []network.PruneStats
	errs  []error
}

func (s *Snapshot) acquireCluster(workers int) *clusterState {
	cs, ok := s.pools.cluster.Get().(*clusterState)
	if !ok {
		cs = &clusterState{}
	}
	if cap(cs.ns) < workers {
		cs.ns = make([]int64, workers)
		cs.qs = make([]int64, workers)
		cs.prune = make([]network.PruneStats, workers)
		cs.errs = make([]error, workers)
	} else {
		cs.ns = cs.ns[:workers]
		cs.qs = cs.qs[:workers]
		cs.prune = cs.prune[:workers]
		cs.errs = cs.errs[:workers]
		for w := range cs.ns {
			cs.ns[w], cs.qs[w] = 0, 0
			cs.prune[w] = network.PruneStats{}
			cs.errs[w] = nil
		}
	}
	return cs
}

// clusterRun sweeps the points [0, n) in workers contiguous stripes, each
// stripe on a pooled scratch. When only one stripe is asked for — or the
// host has a single processor, where goroutine interleaving would make
// per-stripe times meaningless — the stripes run sequentially on the
// caller's goroutine. Either way every stripe is timed individually and
// CritNs reports the slowest one: the pass's cost on a host with one core
// per worker.
func (s *Snapshot) clusterRun(ctx context.Context, n, workers int, stripe func(w, lo, hi int, sc *Scratch) (int, error)) (network.ClusterStats, error) {
	var out network.ClusterStats
	if n == 0 {
		return out, nil
	}
	if workers > n {
		workers = n
	}
	t0 := time.Now()
	cs := s.acquireCluster(workers)
	defer s.pools.cluster.Put(cs)
	runStripe := func(w int) {
		lo, hi := w*n/workers, (w+1)*n/workers
		sc := s.acquire()
		pb := sc.PruneStats()
		st := time.Now()
		q, err := stripe(w, lo, hi, sc)
		cs.ns[w] = time.Since(st).Nanoseconds()
		cs.qs[w] = int64(q)
		cs.prune[w] = sc.PruneStats().Sub(pb)
		cs.errs[w] = err
		s.release(sc)
	}
	if workers == 1 || runtime.GOMAXPROCS(0) == 1 {
		for w := 0; w < workers; w++ {
			runStripe(w)
			if cs.errs[w] != nil {
				break
			}
		}
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				runStripe(w)
			}(w)
		}
		wg.Wait()
	}
	for w := 0; w < workers; w++ {
		if cs.ns[w] > out.CritNs {
			out.CritNs = cs.ns[w]
		}
		out.RangeQueries += int(cs.qs[w])
		out.Prune.Add(cs.prune[w])
	}
	out.WallNs = time.Since(t0).Nanoseconds()
	for w := 0; w < workers; w++ {
		if err := cs.errs[w]; err != nil {
			return out, err
		}
	}
	return out, nil
}

// CoreFlags is the fused core-flag pass: one counting ε-expansion per point,
// early-exited at minPts, fanned across workers stripes. With a non-nil
// prune every expansion runs the filter-and-refine path instead (identical
// flags, counters in the stats). Held for benchmark/layers.go's
// csr.coreflags_* probe and the tests; no product caller.
func (s *Snapshot) CoreFlags(ctx context.Context, eps float64, minPts, workers int, prune network.Bounder, core []bool) (network.ClusterStats, error) {
	n := len(s.ptPos)
	if len(core) != n {
		return network.ClusterStats{}, fmt.Errorf("%w: CoreFlags needs len(core) == %d, got %d", network.ErrInvalidOptions, n, len(core))
	}
	if !(eps > 0) || minPts < 1 {
		return network.ClusterStats{}, fmt.Errorf("%w: CoreFlags needs eps > 0 and minPts >= 1 (got %v, %d)", network.ErrInvalidOptions, eps, minPts)
	}
	if workers < 1 {
		workers = 1
	}
	if workers == 1 && prune == nil {
		// Sequential fast path: the loop runs inline so nothing escapes —
		// the steady state of the fused pass allocates nothing at all.
		sc := s.acquire()
		t0 := time.Now()
		for p := 0; p < n; p++ {
			cnt, err := sc.rangeCount(ctx, network.PointID(p), eps, minPts, false)
			if err != nil {
				ns := time.Since(t0).Nanoseconds()
				s.release(sc)
				return network.ClusterStats{RangeQueries: p, CritNs: ns, WallNs: ns}, err
			}
			core[p] = cnt >= minPts
		}
		ns := time.Since(t0).Nanoseconds()
		s.release(sc)
		return network.ClusterStats{RangeQueries: n, CritNs: ns, WallNs: ns}, nil
	}
	return s.clusterRun(ctx, n, workers, func(w, lo, hi int, sc *Scratch) (int, error) {
		if prune != nil {
			sc.SetBounder(prune)
			defer sc.SetBounder(nil)
			for p := lo; p < hi; p++ {
				nb, err := sc.RangeQueryCtx(ctx, s, network.PointID(p), eps)
				if err != nil {
					return p - lo, err
				}
				core[p] = len(nb) >= minPts
			}
			return hi - lo, nil
		}
		for p := lo; p < hi; p++ {
			cnt, err := sc.rangeCount(ctx, network.PointID(p), eps, minPts, false)
			if err != nil {
				return p - lo, err
			}
			core[p] = cnt >= minPts
		}
		return hi - lo, nil
	})
}

// EpsUnions sweeps the selected points (all of them when sel is nil) with
// one ε-expansion each and records the ε-graph's connectivity into the
// per-worker union-find shards: each unordered selected pair within eps is
// unioned exactly once (at its larger endpoint's sweep — both endpoints see
// the symmetric distance, so halving the union volume loses nothing), and
// every (unselected, selected) incidence is reported through border. Held
// for benchmark/layers.go's csr.epsunions_* probe; no product caller.
func (s *Snapshot) EpsUnions(ctx context.Context, eps float64, workers int, prune network.Bounder, sel []bool, ufs []*unionfind.UF, border func(w int, b, c network.PointID)) (network.ClusterStats, error) {
	n := len(s.ptPos)
	if sel != nil && len(sel) != n {
		return network.ClusterStats{}, fmt.Errorf("%w: EpsUnions needs len(sel) == %d, got %d", network.ErrInvalidOptions, n, len(sel))
	}
	if !(eps > 0) {
		return network.ClusterStats{}, fmt.Errorf("%w: EpsUnions needs eps > 0 (got %v)", network.ErrInvalidOptions, eps)
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(ufs) {
		workers = len(ufs)
	}
	if len(ufs) == 0 {
		return network.ClusterStats{}, fmt.Errorf("%w: EpsUnions needs at least one union-find shard", network.ErrInvalidOptions)
	}
	return s.clusterRun(ctx, n, workers, func(w, lo, hi int, sc *Scratch) (int, error) {
		uf := ufs[w]
		if prune != nil {
			sc.SetBounder(prune)
			defer sc.SetBounder(nil)
		}
		q := 0
		for p := lo; p < hi; p++ {
			if sel != nil && !sel[p] {
				continue
			}
			var res []network.PointID
			if prune != nil {
				var err error
				res, err = sc.RangeQueryCtx(ctx, s, network.PointID(p), eps)
				if err != nil {
					return q, err
				}
			} else {
				if err := sc.run(ctx, network.PointID(p), eps); err != nil {
					return q, err
				}
				res = sc.result
			}
			q++
			pp := network.PointID(p)
			for _, nq := range res {
				if sel == nil || sel[nq] {
					if nq < pp {
						uf.Union(p, int(nq))
					}
				} else {
					border(w, nq, pp)
				}
			}
		}
		return q, nil
	})
}

// rangeCount counts the points within eps of p (p included), stopping the
// expansion as soon as the count reaches target — counts only grow, so
// membership of the minPts threshold is already proven (the fused core-flag
// early exit). When the count stays below target the expansion runs to
// completion and the count is exact. With record set it also leaves the
// counted points in sc.result — the whole neighbourhood after a finished
// expansion, which is what DBSCANLabels keeps of a non-core point. CoreFlags
// never reads that list, so it doesn't pay its stores.
func (sc *Scratch) rangeCount(ctx context.Context, p network.PointID, eps float64, target int, record bool) (int, error) {
	ticks := 0
	if err := cancelCheck(ctx, &ticks); err != nil {
		return 0, err
	}
	sn := sc.sn
	if p < 0 || int(p) >= len(sn.ptPos) {
		return 0, fmt.Errorf("%w: %d", network.ErrPointRange, p)
	}
	sc.nextEpoch()
	cnt := 0
	pg := &sn.groups[sn.ptGrp[p]]
	pos := sn.ptPos[p]
	first := int32(pg.First)
	off := sn.ptPos[first : first+pg.Count]
	pi := int(int32(p) - first)
	// Same-edge arms: each index is fresh by construction, but the stamps
	// still have to be laid down so node-route rediscoveries don't recount.
	for i := pi; i >= 0 && pos-off[i] <= eps; i-- {
		sc.ptEpoch[first+int32(i)] = sc.epoch
		cnt++
		if record {
			sc.result = append(sc.result, network.PointID(first+int32(i)))
		}
	}
	for i := pi + 1; i < len(off) && off[i]-pos <= eps; i++ {
		sc.ptEpoch[first+int32(i)] = sc.epoch
		cnt++
		if record {
			sc.result = append(sc.result, network.PointID(first+int32(i)))
		}
	}
	if cnt >= target {
		return cnt, nil
	}
	if pos <= eps {
		sc.heap.Push(entry{node: int32(pg.N1), dist: pos})
	}
	if d := pg.Weight - pos; d <= eps {
		sc.heap.Push(entry{node: int32(pg.N2), dist: d})
	}
	for !sc.heap.Empty() {
		e := sc.heap.Pop()
		if e.dist >= sc.dist(e.node) {
			continue
		}
		if err := cancelCheck(ctx, &ticks); err != nil {
			return cnt, err
		}
		sc.nodeEpoch[e.node] = sc.epoch
		sc.nodeDist[e.node] = e.dist
		for _, nb := range sn.adj[sn.rowOff[e.node]:sn.rowOff[e.node+1]] {
			if nb.Group >= 0 {
				cnt = sc.countCollect(e.node, int32(nb.Group), e.dist, eps, cnt, record)
				if cnt >= target {
					return cnt, nil
				}
			}
			if nd := e.dist + nb.Weight; nd <= eps {
				if v := int32(nb.Node); nd < sc.dist(v) {
					sc.heap.Push(entry{node: v, dist: nd})
				}
			}
		}
	}
	return cnt, nil
}

// countCollect is collect's counting twin: it stamps the qualifying points
// of group gid and bumps the count once per first sight (appending the point
// to sc.result when record is set), skipping the per-point distance
// bookkeeping the membership test doesn't need.
func (sc *Scratch) countCollect(u, gid int32, du, eps float64, cnt int, record bool) int {
	sn := sc.sn
	pg := &sn.groups[gid]
	first := int32(pg.First)
	off := sn.ptPos[first : first+pg.Count]
	budget := eps - du
	if u == int32(pg.N1) {
		for i := 0; i < len(off) && off[i] <= budget; i++ {
			if q := first + int32(i); sc.ptEpoch[q] != sc.epoch {
				sc.ptEpoch[q] = sc.epoch
				cnt++
				if record {
					sc.result = append(sc.result, network.PointID(q))
				}
			}
		}
	} else {
		for i := len(off) - 1; i >= 0 && pg.Weight-off[i] <= budget; i-- {
			if q := first + int32(i); sc.ptEpoch[q] != sc.epoch {
				sc.ptEpoch[q] = sc.epoch
				cnt++
				if record {
					sc.result = append(sc.result, network.PointID(q))
				}
			}
		}
	}
	return cnt
}
