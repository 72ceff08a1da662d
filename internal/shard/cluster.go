package shard

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"netclus/internal/network"
)

// This file implements the native DBSCAN flag pass (network.ClusterKernel)
// over a sharded set. The pass runs shard-local first: a shard sweeps the
// points it owns with its own compiled kernel under the boundary watch
// mask, and a point whose ε-expansion completes without settling a boundary
// node is proven exact — any ≤ε path leaving the shard would have settled
// its first boundary node within ε first, so the local neighbourhood IS the
// global one. Only the points whose expansion touches the boundary — plus
// the points of cut groups, which no shard owns — escalate to the
// scatter-gather executor for an exact global query, serially from the
// coordinator. Shards are statically partitioned across the requested
// workers (worker w owns shards w, w+workers, …), and the critical-path
// model charges each worker its own shard sweeps plus the shared serial
// tail — the same convention as the executor's per-round CritNs. The growth
// and border passes of DBSCAN, and all of ε-Link, run core's generic
// labeller over the set as a plain network.Graph.

var _ network.ClusterKernel = (*Set)(nil)

// clusterShards runs pass over every shard, statically partitioned across
// workers; each worker sweeps its shards sequentially on one pooled
// executor and collects the global IDs of points it could not prove
// locally into its own escalation list. Workers run concurrently when the
// host has spare processors; either way each is timed individually and
// CritNs reports the slowest, WallNs the realized elapsed time. pass
// returns how many local queries it ran.
func (set *Set) clusterShards(ctx context.Context, workers int, pass func(w, s int, q *Querier, esc *[]network.PointID) (int, error)) (network.ClusterStats, [][]network.PointID, error) {
	if workers > set.k {
		workers = set.k
	}
	if workers < 1 {
		workers = 1
	}
	ns := make([]int64, workers)
	qs := make([]int64, workers)
	errs := make([]error, workers)
	escs := make([][]network.PointID, workers)
	t0 := time.Now()
	runWorker := func(w int) {
		q := set.acquireQuerier()
		defer set.releaseQuerier(q)
		st := time.Now()
		total := 0
		for s := w; s < set.k; s += workers {
			c, err := pass(w, s, q, &escs[w])
			total += c
			if err != nil {
				errs[w] = err
				break
			}
		}
		ns[w] = time.Since(st).Nanoseconds()
		qs[w] = int64(total)
	}
	if workers == 1 || runtime.GOMAXPROCS(0) == 1 {
		for w := 0; w < workers; w++ {
			runWorker(w)
			if errs[w] != nil {
				break
			}
		}
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				runWorker(w)
			}(w)
		}
		wg.Wait()
	}
	var out network.ClusterStats
	for w := 0; w < workers; w++ {
		if ns[w] > out.CritNs {
			out.CritNs = ns[w]
		}
		out.RangeQueries += int(qs[w])
	}
	out.WallNs = time.Since(t0).Nanoseconds()
	for w := 0; w < workers; w++ {
		if err := errs[w]; err != nil {
			return out, escs, err
		}
	}
	return out, escs, nil
}

// CoreFlags writes, for every point, whether its ε-neighbourhood holds at
// least minPts points. Shard-local counting expansions early-exit at
// minPts; a completed local count that never touched the boundary is exact,
// everything else re-runs through the global executor. Satisfies
// network.ClusterKernel.
func (set *Set) CoreFlags(ctx context.Context, eps float64, minPts, workers int, core []bool) (network.ClusterStats, error) {
	n := len(set.ptPos)
	if len(core) != n {
		return network.ClusterStats{}, fmt.Errorf("%w: CoreFlags needs len(core) == %d, got %d", network.ErrInvalidOptions, n, len(core))
	}
	if !(eps > 0) || minPts < 1 {
		return network.ClusterStats{}, fmt.Errorf("%w: CoreFlags needs eps > 0 and minPts >= 1 (got %v, %d)", network.ErrInvalidOptions, eps, minPts)
	}
	st, escs, err := set.clusterShards(ctx, workers, func(w, s int, q *Querier, esc *[]network.PointID) (int, error) {
		sc := q.scratch(s)
		cnt := 0
		for _, g32 := range set.pointGlobal[s] {
			gp := network.PointID(g32)
			c, hit, err := sc.RangeCount(ctx, network.PointID(set.pointLocal[g32]), eps, minPts)
			if err != nil {
				return cnt, err
			}
			cnt++
			switch {
			case c >= minPts:
				core[gp] = true // local members are global members
			case !hit:
				core[gp] = false // never reached the boundary: count is exact
			default:
				*esc = append(*esc, gp)
			}
		}
		return cnt, nil
	})
	if err != nil {
		return st, err
	}
	t0 := time.Now()
	q := set.acquireQuerier()
	defer set.releaseQuerier(q)
	flag := func(gp network.PointID) error {
		nb, err := q.RangeQueryCtx(ctx, set, gp, eps)
		if err != nil {
			return err
		}
		st.RangeQueries++
		core[gp] = len(nb) >= minPts
		return nil
	}
	for _, gp := range set.cutPts {
		if err := flag(gp); err != nil {
			return st, err
		}
	}
	for _, el := range escs {
		for _, gp := range el {
			if err := flag(gp); err != nil {
				return st, err
			}
		}
	}
	tail := time.Since(t0).Nanoseconds()
	st.CritNs += tail
	st.WallNs += tail
	return st, nil
}
