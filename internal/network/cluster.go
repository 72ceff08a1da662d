package network

import (
	"context"

	"netclus/internal/unionfind"
)

// ClusterStats reports the work and the timing model of one fused clustering
// pass (a ClusterKernel call).
type ClusterStats struct {
	// RangeQueries counts the ε-expansions the pass ran (one per swept
	// point, in the units core.Stats.RangeQueries uses).
	RangeQueries int
	// CritNs models the pass's critical path: the slowest worker stripe.
	// On a host with fewer processors than workers the stripes run (partly)
	// sequentially but are timed individually, so CritNs still reports what
	// a machine with one core per worker would pay — the same modeling
	// convention as the sharded executor's CritNs counter.
	CritNs int64
	// WallNs is the realized wall time of the pass on this host.
	WallNs int64
	// Prune aggregates the filter-and-refine counters when the pass ran
	// under a Bounder.
	Prune PruneStats
}

// Add accumulates o into s (used to sum the passes of one clustering run).
func (s *ClusterStats) Add(o ClusterStats) {
	s.RangeQueries += o.RangeQueries
	s.CritNs += o.CritNs
	s.WallNs += o.WallNs
	s.Prune.Add(o.Prune)
}

// ClusterKernel is implemented by graphs with a native fused clustering
// engine: the compiled CSR snapshot sweeps its flat arrays with pooled
// epoch-stamped scratches, the sharded set runs the same passes shard-local
// with boundary escalation. The two passes are the substrate of union-find
// based DBSCAN and ε-Link labelling; core dispatches to them for the sharded
// set, whenever the caller passes Workers >= 1 (a graph that is also a
// LabelKernel — the snapshot — is labelled through that contract instead, at
// every Workers value). The labels are identical to the sequential generic
// path by the PR 1 merge contract (order-free unions, components labelled by
// ascending minimum member, borders adopting the minimum core-neighbour
// label).
type ClusterKernel interface {
	// CoreFlags writes, for every point p, whether p's ε-neighbourhood
	// (p itself included) holds at least minPts points into core[p]
	// (len(core) == NumPoints()). The sweep may stop counting a
	// neighbourhood early once minPts members are proven. With a non-nil
	// prune every expansion runs the filter-and-refine path and the stats
	// carry its counters.
	CoreFlags(ctx context.Context, eps float64, minPts, workers int, prune Bounder, core []bool) (ClusterStats, error)

	// EpsUnions computes the ε-graph connectivity of the selected points:
	// after the call, the transitive closure of the unions recorded across
	// the per-worker shards ufs[0..workers-1] (each pre-sized to NumPoints())
	// connects selected points p and q exactly when a chain of selected
	// points with consecutive network distances <= eps links them. sel == nil
	// selects every point (the ε-Link relation); otherwise only points with
	// sel[p] are swept and unioned (DBSCAN's core-core graph). For every
	// unselected point b within eps of a swept point c, border(w, b, c) is
	// called from worker stripe w — concurrently across stripes, sequentially
	// within one — so the caller can collect adoption candidates into
	// per-worker lists without locking. border may be nil when sel is nil.
	EpsUnions(ctx context.Context, eps float64, workers int, prune Bounder, sel []bool, ufs []*unionfind.UF, border func(w int, b, c PointID)) (ClusterStats, error)
}

// LabelKernel is implemented by graphs that label density clusters natively
// (the compiled CSR snapshot's flat-array port of the paper's Fig. 6
// traversal). core.EpsLinkCtx and — without a Bounder — core.DBSCANCtx hand
// such a graph the whole job at every Workers value: 0 and 1 are the same
// code, larger values only stripe the passes that are independent per point.
// Both methods must reproduce the generic sequential run byte for byte.
type LabelKernel interface {
	// EpsLinkLabels fills labels (len == NumPoints()) with a cluster index
	// per point — clusters numbered by ascending smallest member, the order
	// the sequential algorithm discovers them — and applies the min_sup
	// post-filter in the same pass: clusters with fewer than minSup members
	// are relabelled Noise (minSup <= 1 keeps all). It returns the number of
	// clusters found before suppression and the number kept after. Since
	// Fig. 6 grows one cluster at a time, the kernel counts each cluster's
	// members as a scalar during the grow, so fusing the filter costs one
	// pass over labels instead of the generic count-then-suppress-then-count
	// epilogue.
	EpsLinkLabels(ctx context.Context, eps float64, minSup int, labels []int32) (found, kept int, err error)

	// DBSCANLabels fills core (len == NumPoints()) with the density flags —
	// core[p] iff p's ε-neighbourhood, p included, holds at least minPts
	// points — and labels with DBSCAN's clustering: the ε-components of the
	// core points, numbered by ascending smallest core member, each non-core
	// point adopting the smallest label among the core points within eps of
	// it, Noise (-1) when there is none. It runs exactly one ε-expansion per
	// point (ClusterStats.RangeQueries == NumPoints()) whatever workers is;
	// workers > 1 stripes the per-point passes. It returns the number of
	// clusters and of core points.
	DBSCANLabels(ctx context.Context, eps float64, minPts, workers int, labels []int32, core []bool) (clusters, corePoints int, st ClusterStats, err error)
}

// RangeBatcher is implemented by graphs with a batched multi-source ε-range
// mode (the compiled CSR snapshot's RangeEach): one expansion per element of
// pts, fanned across workers, calling visit with each result. Result slices
// are scratch-owned and reused; visit runs concurrently across workers. The
// live delta maintainer dispatches its bulk neighbourhood scans through this
// when the frozen view is snapshot-backed.
type RangeBatcher interface {
	RangeEach(ctx context.Context, pts []PointID, eps float64, workers int, visit func(i int, p PointID, res []PointID, dists []float64) error) error
}
