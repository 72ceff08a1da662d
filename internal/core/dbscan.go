package core

import (
	"context"
	"fmt"

	"netclus/internal/network"
	"netclus/internal/unionfind"
)

// DBSCANOptions configures the network adaptation of DBSCAN (§4.3): the
// classical algorithm with Euclidean range queries replaced by network
// ε-range queries (expansion of the network around the query point).
type DBSCANOptions struct {
	// Eps is the neighbourhood radius (network distance).
	Eps float64
	// MinPts is the density threshold: a point is a core point when its
	// ε-neighbourhood (itself included) holds at least MinPts points. The
	// paper's experiments use MinPts = 3.
	MinPts int
	// Workers is a pure concurrency knob: labels, Core and the cluster
	// numbering never depend on it, and 0 and 1 run the same code on every
	// backend but the sharded set. On the compiled snapshot every value runs
	// the flat three-pass labeller and values > 1 stripe its per-point
	// passes; on the store, the pointer network and delta views <= 1 runs
	// the sequential expansion and larger values fan the range queries
	// across that many goroutines in two passes (core flags, then core-core
	// unions plus border adoption), each worker with its own read view and
	// scratch. The sharded set alone still tells 0 from 1: it keeps the
	// sequential expansion for 0 and sends every value >= 1 to its
	// shard-parallel kernel.
	Workers int
	// Prune, when non-nil, runs every ε-range query through the
	// filter-and-refine path (see network.RangeScratch.SetBounder). Labels
	// are identical either way; Stats.Prune reports the saved work.
	Prune network.Bounder
}

// DBSCANResult is the outcome of one DBSCAN run.
type DBSCANResult struct {
	// Labels holds a cluster index per point, Noise for noise points.
	Labels []int32
	// NumClusters counts the discovered clusters.
	NumClusters int
	// CorePoints counts points that met the density threshold.
	CorePoints int
	// Core flags the points that met the density threshold. Border points
	// (non-core members of a cluster) may legally join any adjacent
	// cluster, so equality checks across implementations should compare
	// core points only.
	Core []bool
	// Stats aggregates traversal work; RangeQueries is the number of
	// ε-range queries issued (one per point, the reason the paper finds
	// DBSCAN slower than ε-Link despite identical output).
	Stats Stats
}

// DBSCAN clusters the points with the density-based paradigm: every
// unvisited point is probed with a network ε-range query; core points start
// or extend clusters, density-reachable points join them, the rest is noise.
// With MinPts = 2 its output matches EpsLink (modulo min_sup filtering);
// with larger MinPts it is more robust to noise but issues many more range
// queries, which is what Table 2 measures.
func DBSCAN(g network.Graph, opts DBSCANOptions) (*DBSCANResult, error) {
	return DBSCANCtx(context.Background(), g, opts)
}

// DBSCANCtx is DBSCAN with cancellation: the range queries check ctx
// periodically and the run returns an error wrapping ctx.Err() when it is
// done. opts.Workers never changes the result (see DBSCANOptions.Workers).
func DBSCANCtx(ctx context.Context, g network.Graph, opts DBSCANOptions) (*DBSCANResult, error) {
	if !(opts.Eps > 0) {
		return nil, fmt.Errorf("%w: DBSCAN: Eps must be > 0 (got %v)", ErrInvalidOptions, opts.Eps)
	}
	if opts.MinPts < 1 {
		return nil, fmt.Errorf("%w: DBSCAN: MinPts must be >= 1 (got %d)", ErrInvalidOptions, opts.MinPts)
	}
	// A graph that labels natively (the compiled snapshot) does so at every
	// Workers value; under an explicit Bounder it runs the generic paths
	// below over its pruned scratch instead. The sharded set's two-pass
	// kernel takes Workers >= 1. Everything else — and the sharded set at
	// Workers 0 — runs the sequential expansion, or the generic two-pass
	// fan-out when Workers > 1. All of them produce identical labels.
	if lk, ok := g.(network.LabelKernel); ok {
		if opts.Prune == nil {
			return dbscanFlat(ctx, g, lk, opts)
		}
	} else if ck, ok := g.(network.ClusterKernel); ok && opts.Workers >= 1 {
		return dbscanKernel(ctx, g, ck, opts, normWorkers(opts.Workers))
	}
	if workers := normWorkers(opts.Workers); workers > 1 {
		return dbscanParallel(ctx, g, opts, workers)
	}
	n := g.NumPoints()
	res := &DBSCANResult{Labels: make([]int32, n), Core: make([]bool, n)}
	const unvisited = int32(-2)
	labels := res.Labels
	for i := range labels {
		labels[i] = unvisited
	}
	scratch := network.ScratchFor(g)
	scratch.SetBounder(opts.Prune)
	defer func() { res.Stats.Prune.Add(scratch.PruneStats()) }()
	var queue []network.PointID
	next := int32(0)
	for p := 0; p < n; p++ {
		if labels[p] != unvisited {
			continue
		}
		nb, err := scratch.RangeQueryCtx(ctx, g, network.PointID(p), opts.Eps)
		if err != nil {
			return nil, err
		}
		res.Stats.RangeQueries++
		if len(nb) < opts.MinPts {
			labels[p] = Noise
			continue
		}
		res.CorePoints++
		res.Core[p] = true
		c := next
		next++
		labels[p] = c
		queue = append(queue[:0], nb...)
		for len(queue) > 0 {
			q := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if labels[q] == Noise {
				labels[q] = c // border point reclaimed from noise
				continue
			}
			if labels[q] != unvisited {
				continue
			}
			labels[q] = c
			qnb, err := scratch.RangeQueryCtx(ctx, g, q, opts.Eps)
			if err != nil {
				return nil, err
			}
			res.Stats.RangeQueries++
			if len(qnb) >= opts.MinPts {
				res.CorePoints++
				res.Core[q] = true
				queue = append(queue, qnb...)
			}
		}
	}
	res.NumClusters = int(next)
	return res, nil
}

// borderEdge records that non-core point border lies in the ε-neighbourhood
// of core point core — a cluster-adoption candidate.
type borderEdge struct {
	border network.PointID
	core   network.PointID
}

// dbscanParallel reproduces the sequential labelling in two parallel passes.
//
// Pass 1 flags core points (one ε-range query per point). Pass 2 re-queries
// the core points only: core-core neighbour pairs are unioned (the clusters
// are exactly the components of the core-core ε-graph) and core-border
// pairs are recorded. Cluster IDs go to components by ascending minimum
// core point — the order the sequential outer scan discovers them — and a
// border point joins the smallest cluster ID among its core neighbours,
// which is the cluster that would have reached it first sequentially
// (clusters expand to completion one at a time, in ID order).
func dbscanParallel(ctx context.Context, g network.Graph, opts DBSCANOptions, workers int) (*DBSCANResult, error) {
	n := g.NumPoints()
	res := &DBSCANResult{Labels: make([]int32, n), Core: make([]bool, n)}
	core := res.Core
	statsArr := make([]Stats, workers)
	// Per-worker scratches of both passes, harvested for prune counters
	// after the workers finish (each slot is touched by one goroutine).
	scratches := make([]network.RangeQuerier, 2*workers)

	// Pass 1: core flags. Each worker writes disjoint core[p] slots.
	err := parallelPoints(workers, n, func(w int) func(lo, hi int) error {
		view := network.ReadView(g)
		scratch := network.ScratchFor(view)
		scratch.SetBounder(opts.Prune)
		scratches[w] = scratch
		st := &statsArr[w]
		return func(lo, hi int) error {
			for p := lo; p < hi; p++ {
				nb, err := scratch.RangeQueryCtx(ctx, view, network.PointID(p), opts.Eps)
				if err != nil {
					return err
				}
				st.RangeQueries++
				if len(nb) >= opts.MinPts {
					core[p] = true
				}
			}
			return nil
		}
	})
	if err != nil {
		return nil, err
	}

	// Pass 2: core-core unions and border adoption candidates.
	ufs := make([]*unionfind.UF, workers)
	borders := make([][]borderEdge, workers)
	err = parallelPoints(workers, n, func(w int) func(lo, hi int) error {
		view := network.ReadView(g)
		scratch := network.ScratchFor(view)
		scratch.SetBounder(opts.Prune)
		scratches[workers+w] = scratch
		uf := unionfind.New(n)
		ufs[w] = uf
		st := &statsArr[w]
		return func(lo, hi int) error {
			for p := lo; p < hi; p++ {
				if !core[p] {
					continue
				}
				nb, err := scratch.RangeQueryCtx(ctx, view, network.PointID(p), opts.Eps)
				if err != nil {
					return err
				}
				st.RangeQueries++
				for _, q := range nb {
					if core[q] {
						uf.Union(p, int(q))
					} else {
						borders[w] = append(borders[w], borderEdge{border: q, core: network.PointID(p)})
					}
				}
			}
			return nil
		}
	})
	if err != nil {
		return nil, err
	}

	uf := mergeUnionFinds(ufs)
	next := labelComponents(uf, res.Labels, func(p int) bool { return core[p] })
	labels := res.Labels
	for _, bl := range borders {
		for _, be := range bl {
			c := labels[uf.Find(int(be.core))]
			if labels[be.border] == Noise || c < labels[be.border] {
				labels[be.border] = c
			}
		}
	}
	for _, flag := range core {
		if flag {
			res.CorePoints++
		}
	}
	res.NumClusters = int(next)
	for _, st := range statsArr {
		res.Stats.add(st)
	}
	for _, sc := range scratches {
		if sc != nil {
			res.Stats.Prune.Add(sc.PruneStats())
		}
	}
	return res, nil
}
