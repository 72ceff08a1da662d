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
	// Workers changes nothing: DBSCAN runs on the caller's goroutine on
	// every backend. It stays only because benchmark/ sets it (ROADMAP item
	// 1 (A)).
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
	// ε-range queries issued: one per point whose own edge does not already
	// hold MinPts points within Eps of it. The paper's DBSCAN issues one per
	// point, the reason it finds DBSCAN slower than ε-Link despite identical
	// output.
	Stats Stats
}

// DBSCAN clusters the points with the density-based paradigm: a point whose
// network ε-neighbourhood holds at least MinPts points is a core point, the
// clusters are the ε-connected components of the core points, a non-core
// point within ε of a core point joins its cluster as a border point, the
// rest is noise. With MinPts = 2 its output matches EpsLink (modulo min_sup
// filtering); with larger MinPts it is more robust to noise. The paper's
// DBSCAN issues one range query per point, which is what Table 2 measures;
// this one settles most core flags from each point's own edge and queries
// only the rest (see dbscanGraph).
func DBSCAN(g network.Graph, opts DBSCANOptions) (*DBSCANResult, error) {
	return DBSCANCtx(context.Background(), g, opts)
}

// DBSCANCtx is DBSCAN with cancellation: every pass checks ctx periodically
// and the run returns an error wrapping ctx.Err() when it is done. It starts
// no goroutine.
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
	clusters, corePoints, st, err := lk.DBSCANLabels(ctx, opts.Eps, opts.MinPts, res.Labels, res.Core)
	res.NumClusters = clusters
	res.CorePoints = corePoints
	res.Stats.RangeQueries = st.RangeQueries
	res.Stats.CritNs = st.CritNs
	res.Stats.WallNs = st.WallNs
	return err
}

// dbscanGraph is the generic labeller: three passes, at most one
// ε-expansion per point, no union-find.
//
//  1. Flags. A point's own edge is part of its neighbourhood, so one sliding
//     window per point group flags core, with no query, every point whose
//     edge already holds MinPts points within ε of it — most points on a
//     road network. Each of the rest runs one ε-range query, stopped as
//     soon as MinPts members are proven. A query that finishes below MinPts
//     has seen the point's whole neighbourhood and leaves it in a side list,
//     so a non-core point is never expanded again.
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
// All three passes run on the caller's goroutine.
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
	for i := 0; i < len(side); {
		if err := ctxCheck(ctx, &ticks); err != nil {
			return err
		}
		p, k := side[i], int(side[i+1])
		i += 2
		best := Noise
		for _, q := range side[i : i+k] {
			if l := res.Labels[q]; res.Core[q] && (best == Noise || l < best) {
				best = l
			}
		}
		res.Labels[p] = best
		i += k
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

// flagSweep is the generic pass 1: it writes res.Core and returns the side
// list of the non-core points.
//
// One ScanGroups pass first slides a window over every group's ascending
// offsets and flags core each point whose window holds MinPts points. The
// window counts q only when off[q] lies in [pos-eps, pos+eps] — the own-edge
// scan's relation — and |off[q]-pos| <= eps — the upper bound the pruned
// path accepts a same-edge candidate by — so every point it counts is a
// member of the range query it stands in for, pruned or not, and a window of
// MinPts proves what that query would. One loop then queries only the points
// the window left short, through one scratch under opts.Prune when set;
// Stats.RangeQueries counts those queries.
func flagSweep(ctx context.Context, g network.Graph, opts DBSCANOptions, res *DBSCANResult) ([]network.PointID, error) {
	core := res.Core
	eps, minPts := opts.Eps, opts.MinPts
	ticks := 0
	err := g.ScanGroups(func(_ network.GroupID, pg network.PointGroup, off []float64) error {
		l, r := 0, 0 // the window [l, r] of off around index i
		for i, pos := range off {
			if err := ctxCheck(ctx, &ticks); err != nil {
				return err
			}
			for off[l] < pos-eps || pos-off[l] > eps {
				l++
			}
			r = max(r, i)
			for r+1 < len(off) && off[r+1] <= pos+eps && off[r+1]-pos <= eps {
				r++
			}
			p := int(pg.First) + i
			if core[p] = r-l+1 >= minPts; !core[p] {
				res.Stats.RangeQueries++
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var side []network.PointID
	sc := network.ScratchFor(g)
	sc.SetBounder(opts.Prune)
	for p := range core {
		if core[p] {
			continue
		}
		nb, err := sc.RangeQueryLimitCtx(ctx, g, network.PointID(p), eps, minPts)
		if err != nil {
			return nil, err
		}
		if core[p] = len(nb) >= minPts; !core[p] {
			side = sideRecord(side, p, nb)
		}
	}
	res.Stats.Prune.Add(sc.PruneStats())
	return side, nil
}
