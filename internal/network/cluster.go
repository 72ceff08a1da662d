package network

import "context"

// ClusterStats reports the work and the timing model of one native clustering
// pass (a LabelKernel call).
type ClusterStats struct {
	// RangeQueries counts the ε-expansions the pass ran, in the units
	// core.Stats.RangeQueries uses.
	RangeQueries int
	// CritNs models the pass's critical path: the slowest worker stripe of
	// the passes that still stripe (CoreFlags, EpsUnions). It equals WallNs
	// for DBSCANLabels, which runs on the caller's goroutine.
	CritNs int64
	// WallNs is the realized wall time of the pass on this host.
	WallNs int64
	// Prune aggregates the filter-and-refine counters when the pass ran
	// under a Bounder.
	Prune PruneStats
}

// LabelKernel is implemented by graphs that label density clusters natively
// (the compiled CSR snapshot's flat-array port of the paper's Fig. 6
// traversal). core.EpsLinkCtx and — without a Bounder — core.DBSCANCtx hand
// such a graph the whole job, which runs on the caller's goroutine. Both
// methods must reproduce core's generic labeller byte for byte.
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
	// it, Noise (-1) when there is none. A point whose own edge holds minPts
	// points within eps of it is core without a query; every other point
	// runs one early-exiting ε-expansion, and ClusterStats.RangeQueries
	// counts those. It returns the number of clusters and of core points.
	DBSCANLabels(ctx context.Context, eps float64, minPts int, labels []int32, core []bool) (clusters, corePoints int, st ClusterStats, err error)
}
