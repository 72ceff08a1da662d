// Package core implements the paper's three network-based clustering
// algorithms (Yiu & Mamoulis, SIGMOD 2004, §4):
//
//   - KMedoids: partitioning clustering with concurrent multi-source medoid
//     expansion (Fig. 4) and incremental medoid replacement (Fig. 5);
//   - EpsLink: the ε-Link density-based algorithm (Fig. 6), together with a
//     network adaptation of DBSCAN used as the paper's density baseline;
//   - SingleLink: hierarchical single-link clustering as Kruskal's algorithm
//     over the candidate pairs of one network-Voronoi expansion (Fig. 8's
//     candidate set without its interleaving), with the δ scalability
//     heuristic and §5.3 interesting-level detection.
//
// All algorithms operate through the network.Graph interface, so they run
// unchanged over the in-memory network and the disk-based store, and they
// never compute all-pairs distances: each traverses the network at most a
// constant number of times per iteration.
package core

import (
	"math/bits"

	"netclus/internal/network"
)

// Noise is the label of points not assigned to any cluster (outliers).
const Noise int32 = -1

// Stats counts the work an algorithm performed, independent of wall time.
// Benchmarks report them next to durations so the paper's cost arguments
// (which algorithm traverses how much of the graph) can be checked directly.
//
// Single-Link reports its four steps (singlelink.go) as: GroupsRead ==
// NumGroups() exactly (the one scan; no group is fetched again),
// NodesSettled and EdgesVisited from the Voronoi expansion — plus, on a graph
// with an expansion kernel, the adjacency entries of the candidate sweep that
// follows it — and HeapPushes = seeds + frontier pushes + candidate pairs
// handed to the sort.
type Stats struct {
	NodesSettled int // priority-queue dequeues that were accepted
	HeapPushes   int // priority-queue insertions
	EdgesVisited int // adjacency entries examined
	GroupsRead   int // point-group fetches
	RangeQueries int // ε-range queries issued (DBSCAN: one per point its edge leaves short; see label_contract_test.go)

	// CritNs and WallNs time density clustering through the snapshot's
	// native labeller (network.LabelKernel): WallNs is the realized wall
	// time, and CritNs equals it, since the labeller runs on the caller's
	// goroutine; CritNs stays only because benchmark/ reads it (ROADMAP item
	// 1 (A)). Both zero for runs on the generic labeller.
	CritNs int64
	WallNs int64

	// Prune counts the work saved by lower-bound pruning; all-zero when no
	// Bounder was configured.
	Prune network.PruneStats
}

func (s *Stats) add(o Stats) {
	s.NodesSettled += o.NodesSettled
	s.HeapPushes += o.HeapPushes
	s.EdgesVisited += o.EdgesVisited
	s.GroupsRead += o.GroupsRead
	s.RangeQueries += o.RangeQueries
	s.CritNs += o.CritNs
	s.WallNs += o.WallNs
	s.Prune.Add(o.Prune)
}

// CountClusters returns the number of distinct non-noise labels. Labels in
// [0, len(labels)) — every label a netclus labeller emits — are marked in a
// bitset; any other non-noise label goes to a map made only when one appears.
func CountClusters(labels []int32) int {
	n := len(labels)
	seen := make([]uint64, (n+63)/64)
	var far map[int32]struct{}
	for _, l := range labels {
		switch {
		case l >= 0 && int(l) < n:
			seen[l>>6] |= 1 << (l & 63)
		case l != Noise:
			if far == nil {
				far = make(map[int32]struct{})
			}
			far[l] = struct{}{}
		}
	}
	count := len(far)
	for _, w := range seen {
		count += bits.OnesCount64(w)
	}
	return count
}

// SuppressSmallClusters relabels clusters with fewer than minSup members to
// Noise, in place, and returns labels. It implements the paper's min_sup
// post-filter for ε-Link (§4.3.1). Sizes are counted as CountClusters marks:
// in a slice over [0, len(labels)), with a map only for labels outside it.
func SuppressSmallClusters(labels []int32, minSup int) []int32 {
	if minSup <= 1 {
		return labels
	}
	n := len(labels)
	sizes := make([]int32, n)
	var far map[int32]int
	for _, l := range labels {
		switch {
		case l >= 0 && int(l) < n:
			sizes[l]++
		case l != Noise:
			if far == nil {
				far = make(map[int32]int)
			}
			far[l]++
		}
	}
	for i, l := range labels {
		switch {
		case l >= 0 && int(l) < n:
			if int(sizes[l]) < minSup {
				labels[i] = Noise
			}
		case l != Noise:
			if far[l] < minSup {
				labels[i] = Noise
			}
		}
	}
	return labels
}

// allPointInfos resolves every point once. Several algorithms need a
// sequential pass over point positions; Graph.ScanGroups keeps it a single
// sequential read of the points file.
func allPointInfos(g network.Graph) ([]network.PointInfo, error) {
	infos := make([]network.PointInfo, g.NumPoints())
	err := g.ScanGroups(func(gid network.GroupID, pg network.PointGroup, offsets []float64) error {
		for i, off := range offsets {
			infos[pg.First+network.PointID(i)] = network.PointInfo{
				Group: gid, N1: pg.N1, N2: pg.N2, Pos: off, Weight: pg.Weight,
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return infos, nil
}
