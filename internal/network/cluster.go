package network

import "context"

// ClusterStats reports the work and the timing model of one native clustering
// pass (a LabelKernel call).
type ClusterStats struct {
	// RangeQueries counts the ε-expansions the pass ran (one per swept
	// point, in the units core.Stats.RangeQueries uses).
	RangeQueries int
	// CritNs models the pass's critical path: the slowest worker stripe.
	// On a host with fewer processors than workers the stripes run (partly)
	// sequentially but are timed individually, so CritNs still reports what
	// a machine with one core per worker would pay.
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

// LabelKernel is implemented by graphs that label density clusters natively
// (the compiled CSR snapshot's flat-array port of the paper's Fig. 6
// traversal). core.EpsLinkCtx and — without a Bounder — core.DBSCANCtx hand
// such a graph the whole job at every Workers value: 0 and 1 are the same
// code, larger values only stripe the passes that are independent per point.
// Both methods must reproduce core's generic labeller byte for byte.
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
