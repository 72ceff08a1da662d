package core

import (
	"context"
	"fmt"

	"netclus/internal/network"
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
	// Workers is a pure concurrency knob with one meaning on every backend:
	// labels, Core and the cluster numbering never depend on it, 0 and 1 are
	// the same run, and a larger value only stripes the flag pass — the one
	// ε-expansion per point — over that many goroutines, each with its own
	// read view and scratch.
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

// DBSCAN clusters the points with the density-based paradigm: a point whose
// network ε-neighbourhood holds at least MinPts points is a core point, the
// clusters are the ε-connected components of the core points, a non-core
// point within ε of a core point joins its cluster as a border point, the
// rest is noise. With MinPts = 2 its output matches EpsLink (modulo min_sup
// filtering); with larger MinPts it is more robust to noise but issues one
// range query per point, which is what Table 2 measures.
func DBSCAN(g network.Graph, opts DBSCANOptions) (*DBSCANResult, error) {
	return DBSCANCtx(context.Background(), g, opts)
}

// DBSCANCtx is DBSCAN with cancellation: every pass checks ctx periodically
// and the run returns an error wrapping ctx.Err() when it is done.
// opts.Workers never changes the result (see DBSCANOptions.Workers).
func DBSCANCtx(ctx context.Context, g network.Graph, opts DBSCANOptions) (*DBSCANResult, error) {
	if !(opts.Eps > 0) {
		return nil, fmt.Errorf("%w: DBSCAN: Eps must be > 0 (got %v)", ErrInvalidOptions, opts.Eps)
	}
	if opts.MinPts < 1 {
		return nil, fmt.Errorf("%w: DBSCAN: MinPts must be >= 1 (got %d)", ErrInvalidOptions, opts.MinPts)
	}
	n := g.NumPoints()
	res := &DBSCANResult{Labels: make([]int32, n), Core: make([]bool, n)}
	// A graph that labels natively (the compiled snapshot) does so unless an
	// explicit Bounder asks for the filter-and-refine range path; everything
	// else runs the generic labeller below. Both produce identical labels.
	var err error
	if lk, ok := g.(network.LabelKernel); ok && opts.Prune == nil {
		err = dbscanFlat(ctx, lk, opts, res)
	} else {
		err = dbscanGraph(ctx, g, opts, res)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// dbscanFlat labels via lk's native three-pass DBSCAN (see
// internal/csr/dbscan.go, the flat-array port of dbscanGraph).
func dbscanFlat(ctx context.Context, lk network.LabelKernel, opts DBSCANOptions, res *DBSCANResult) error {
	clusters, corePoints, st, err := lk.DBSCANLabels(ctx, opts.Eps, opts.MinPts, opts.Workers, res.Labels, res.Core)
	res.NumClusters = clusters
	res.CorePoints = corePoints
	res.Stats.RangeQueries = st.RangeQueries
	res.Stats.CritNs = st.CritNs
	res.Stats.WallNs = st.WallNs
	return err
}

// dbscanGraph is the generic labeller: three passes, one ε-expansion per
// point, no union-find.
//
//  1. Flags. One ε-range query per point, stopped as soon as MinPts members
//     are proven. A query that finishes below MinPts has seen the point's
//     whole neighbourhood and leaves it in a side list, so a non-core point
//     is never expanded again.
//  2. Growth. DBSCAN's clusters are the ε-components of its core points, and
//     a point's network distance to another does not depend on which other
//     points exist: Fig. 6 with the non-core points masked labels exactly
//     those components, one traversal per cluster instead of one range query
//     per core point. Seeds ascend, so clusters are numbered by ascending
//     smallest core member.
//  3. Borders. A non-core point joins the smallest label among the core
//     points its expansion saw (the cluster a one-at-a-time expansion in
//     label order reaches it from first), Noise when it saw none.
//
// Pass 1 is independent per point and stripes over opts.Workers; passes 2
// and 3 are a handful of traversals and a scan of the side lists and stay on
// the caller's goroutine.
func dbscanGraph(ctx context.Context, g network.Graph, opts DBSCANOptions, res *DBSCANResult) error {
	side, err := flagSweep(ctx, g, opts, res)
	if err != nil {
		return err
	}

	st := newEpsLinkState(ctx, g, opts.Eps, res.Labels, &res.Stats)
	for p, c := range res.Core {
		if c {
			res.CorePoints++
		} else {
			st.state[p] = ptMasked
		}
	}
	if res.NumClusters, err = st.growAll(); err != nil {
		return err
	}

	ticks := 0
	for _, recs := range side {
		for i := 0; i < len(recs); {
			if err := ctxCheck(ctx, &ticks); err != nil {
				return err
			}
			p, k := recs[i], int(recs[i+1])
			i += 2
			best := Noise
			for _, q := range recs[i : i+k] {
				if l := res.Labels[q]; res.Core[q] && (best == Noise || l < best) {
					best = l
				}
			}
			res.Labels[p] = best
			i += k
		}
	}
	return nil
}

// sideRecord appends non-core point p's record [p, k, q1..qk] — the k < MinPts
// points of its finished neighbourhood, from which the border pass picks p's
// cluster — to recs.
func sideRecord(recs []network.PointID, p int, nb []network.PointID) []network.PointID {
	recs = append(recs, network.PointID(p), network.PointID(len(nb)))
	return append(recs, nb...)
}

// flagSweep is the generic pass 1: it writes res.Core and returns one side
// list per worker. Each worker queries through its own read view and scratch,
// under opts.Prune when set, and touches disjoint indices of res.Core.
func flagSweep(ctx context.Context, g network.Graph, opts DBSCANOptions, res *DBSCANResult) ([][]network.PointID, error) {
	workers := normWorkers(opts.Workers)
	side := make([][]network.PointID, workers)
	scratches := make([]network.RangeQuerier, workers)
	core := res.Core
	err := parallelPoints(workers, len(core), func(w int) func(lo, hi int) error {
		view := g
		if workers > 1 {
			view = network.ReadView(g)
		}
		sc := network.ScratchFor(view)
		sc.SetBounder(opts.Prune)
		scratches[w] = sc
		return func(lo, hi int) error {
			for p := lo; p < hi; p++ {
				nb, err := sc.RangeQueryLimitCtx(ctx, view, network.PointID(p), opts.Eps, opts.MinPts)
				if err != nil {
					return err
				}
				if core[p] = len(nb) >= opts.MinPts; !core[p] {
					side[w] = sideRecord(side[w], p, nb)
				}
			}
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	res.Stats.RangeQueries = len(core)
	for _, sc := range scratches {
		if sc != nil {
			res.Stats.Prune.Add(sc.PruneStats())
		}
	}
	return side, nil
}
