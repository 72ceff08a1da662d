package core

import (
	"context"
	"time"

	"netclus/internal/network"
	"netclus/internal/unionfind"
)

// This file drives DBSCAN and ε-Link through a graph's native kernels. A
// network.LabelKernel (the compiled CSR snapshot) labels the whole job itself
// — dbscanFlat and epsLinkFlat only wrap the call — at every Workers value.
// A network.ClusterKernel that is not a LabelKernel (the sharded set)
// supplies two parallel passes — fused core flags and ε-graph unions — and
// dbscanKernel/epsLinkKernel finish the labelling with the PR 1 merge
// contract: order-free union-find merge, components labelled by ascending
// minimum member, borders adopting the minimum core-neighbour label. The
// labels are identical to the sequential generic path either way; only the
// wall clock (and the CritNs/WallNs stats) differ.

// dbscanFlat labels via lk's native three-pass DBSCAN (one expansion per
// point; see internal/csr/dbscan.go). workers only stripes its per-point
// passes, so 0 and 1 are the same run.
func dbscanFlat(ctx context.Context, g network.Graph, lk network.LabelKernel, opts DBSCANOptions) (*DBSCANResult, error) {
	n := g.NumPoints()
	res := &DBSCANResult{Labels: make([]int32, n), Core: make([]bool, n)}
	clusters, corePoints, st, err := lk.DBSCANLabels(ctx, opts.Eps, opts.MinPts, opts.Workers, res.Labels, res.Core)
	if err != nil {
		return nil, err
	}
	res.NumClusters = clusters
	res.CorePoints = corePoints
	res.Stats.RangeQueries = st.RangeQueries
	res.Stats.CritNs = st.CritNs
	res.Stats.WallNs = st.WallNs
	return res, nil
}

// dbscanKernel labels via ck's CoreFlags + EpsUnions passes.
func dbscanKernel(ctx context.Context, g network.Graph, ck network.ClusterKernel, opts DBSCANOptions, workers int) (*DBSCANResult, error) {
	n := g.NumPoints()
	res := &DBSCANResult{Labels: make([]int32, n), Core: make([]bool, n)}
	core := res.Core
	st1, err := ck.CoreFlags(ctx, opts.Eps, opts.MinPts, workers, opts.Prune, core)
	if err != nil {
		return nil, err
	}
	ufs := make([]*unionfind.UF, workers)
	for w := range ufs {
		ufs[w] = unionfind.New(n)
	}
	borders := make([][]borderEdge, workers)
	st2, err := ck.EpsUnions(ctx, opts.Eps, workers, opts.Prune, core, ufs, func(w int, b, c network.PointID) {
		borders[w] = append(borders[w], borderEdge{border: b, core: c})
	})
	if err != nil {
		return nil, err
	}

	// Epilogue — same labelling as dbscanParallel's, but the shard merge is
	// folded pairwise so its critical path shrinks with rounds, and the
	// remaining serial tail is timed so the stats' critical-path model
	// charges it to every worker.
	uf, mergeCrit, mergeWall := mergeUnionFindsCrit(ufs)
	t0 := time.Now()
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
	tail := time.Since(t0).Nanoseconds()

	var cs network.ClusterStats
	cs.Add(st1)
	cs.Add(st2)
	res.Stats.RangeQueries = cs.RangeQueries
	res.Stats.Prune = cs.Prune
	res.Stats.CritNs = cs.CritNs + mergeCrit + tail
	res.Stats.WallNs = cs.WallNs + mergeWall + tail
	return res, nil
}

// epsLinkKernel labels via ck's EpsUnions pass with every point selected:
// the ε-Link clusters are exactly the connected components of the ε-graph.
func epsLinkKernel(ctx context.Context, g network.Graph, ck network.ClusterKernel, opts EpsLinkOptions, workers int) (*EpsLinkResult, error) {
	n := g.NumPoints()
	res := &EpsLinkResult{Labels: make([]int32, n)}
	ufs := make([]*unionfind.UF, workers)
	for w := range ufs {
		ufs[w] = unionfind.New(n)
	}
	st, err := ck.EpsUnions(ctx, opts.Eps, workers, nil, nil, ufs, nil)
	if err != nil {
		return nil, err
	}
	uf, mergeCrit, mergeWall := mergeUnionFindsCrit(ufs)

	// Label and count in one scan: components get labels by ascending
	// minimum member (labelComponents' order) while the member counts for
	// the min_sup filter accumulate in the same pass.
	t0 := time.Now()
	labels := res.Labels
	rootLab := make([]int32, n)
	for i := range rootLab {
		rootLab[i] = Noise
	}
	counts := make([]int32, 0, 64)
	next := int32(0)
	for p := range labels {
		r := uf.Find(p)
		l := rootLab[r]
		if l == Noise {
			l = next
			rootLab[r] = l
			next++
			counts = append(counts, 0)
		}
		labels[p] = l
		counts[l]++
	}
	res.ClustersFound = int(next)
	kept := int(next)
	if sup := int32(opts.MinSup); sup > 1 {
		kept = 0
		for _, c := range counts {
			if c >= sup {
				kept++
			}
		}
		if kept < res.ClustersFound {
			for i, l := range labels {
				if counts[l] < sup {
					labels[i] = Noise
				}
			}
		}
	}
	res.NumClusters = kept
	tail := time.Since(t0).Nanoseconds()

	res.Stats.RangeQueries = st.RangeQueries
	res.Stats.CritNs = st.CritNs + mergeCrit + tail
	res.Stats.WallNs = st.WallNs + mergeWall + tail
	return res, nil
}

// epsLinkFlat labels via lk's native sequential Fig. 6 traversal (the
// compiled snapshot's flat-array port), whatever opts.Workers says: one
// traversal per cluster beats any fan-out of per-point range queries. The
// kernel applies the min_sup filter itself from the per-grow member counts,
// so there is no suppression epilogue here.
func epsLinkFlat(ctx context.Context, g network.Graph, lk network.LabelKernel, opts EpsLinkOptions) (*EpsLinkResult, error) {
	n := g.NumPoints()
	res := &EpsLinkResult{Labels: make([]int32, n)}
	t0 := time.Now()
	found, kept, err := lk.EpsLinkLabels(ctx, opts.Eps, opts.MinSup, res.Labels)
	if err != nil {
		return nil, err
	}
	res.ClustersFound = found
	res.NumClusters = kept
	ns := time.Since(t0).Nanoseconds()
	res.Stats.CritNs = ns
	res.Stats.WallNs = ns
	return res, nil
}
