// Package matrix implements the straw-man the paper dismisses in §3.2 —
// precompute all pairwise distances and run classical clustering on the
// matrix — plus brute-force references for every algorithm. The library
// never uses these in production paths (the matrix is O(|V|^2)); the test
// suite uses them as ground truth for the network-traversal algorithms, and
// the benchmark suite uses them to reproduce the paper's cost arguments.
package matrix

import (
	"fmt"
	"math"
	"sort"

	"netclus/internal/network"
	"netclus/internal/unionfind"
)

// AllPairsNodeDistances runs Dijkstra from every node, materializing the
// O(|V|^2) node distance matrix (§3.2's first straw-man).
func AllPairsNodeDistances(g network.Graph) ([][]float64, error) {
	n := g.NumNodes()
	m := make([][]float64, n)
	for i := 0; i < n; i++ {
		d, err := network.NodeDistances(g, network.NodeID(i))
		if err != nil {
			return nil, err
		}
		m[i] = d
	}
	return m, nil
}

// FloydWarshall computes the same matrix with the classic O(|V|^3) dynamic
// program — an independent implementation used to cross-check Dijkstra.
func FloydWarshall(g network.Graph) ([][]float64, error) {
	n := g.NumNodes()
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			m[i][j] = network.Inf
		}
		m[i][i] = 0
	}
	for u := 0; u < n; u++ {
		adj, err := g.Neighbors(network.NodeID(u))
		if err != nil {
			return nil, err
		}
		for _, nb := range adj {
			if nb.Weight < m[u][nb.Node] {
				m[u][nb.Node] = nb.Weight
				m[nb.Node][u] = nb.Weight
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if m[i][k] == network.Inf {
				continue
			}
			for j := 0; j < n; j++ {
				if d := m[i][k] + m[k][j]; d < m[i][j] {
					m[i][j] = d
				}
			}
		}
	}
	return m, nil
}

// PointDistances materializes the N x N point distance matrix by combining
// the node matrix with Definition 4 (the §3.2 footnote's second straw-man).
func PointDistances(g network.Graph) ([][]float64, error) {
	nodeD, err := AllPairsNodeDistances(g)
	if err != nil {
		return nil, err
	}
	n := g.NumPoints()
	infos := make([]network.PointInfo, n)
	for p := 0; p < n; p++ {
		pi, err := g.PointInfo(network.PointID(p))
		if err != nil {
			return nil, err
		}
		infos[p] = pi
	}
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			d := PointDistanceVia(nodeD, infos[i], infos[j])
			m[i][j] = d
			m[j][i] = d
		}
	}
	return m, nil
}

// PointDistanceVia evaluates Definition 4 given a node distance matrix.
func PointDistanceVia(nodeD [][]float64, p, q network.PointInfo) float64 {
	best := network.DirectPointDist(p, q)
	exits := [2]struct {
		n network.NodeID
		d float64
	}{{p.N1, p.Pos}, {p.N2, p.Weight - p.Pos}}
	entries := [2]struct {
		n network.NodeID
		d float64
	}{{q.N1, q.Pos}, {q.N2, q.Weight - q.Pos}}
	for _, ex := range exits {
		for _, en := range entries {
			if d := ex.d + nodeD[ex.n][en.n] + en.d; d < best {
				best = d
			}
		}
	}
	return best
}

// Merge is one agglomeration step of a dendrogram: clusters A and B (by
// current representative point index) merged at distance Dist.
type Merge struct {
	A, B int
	Dist float64
}

// SingleLink computes the exact single-link dendrogram from a distance
// matrix: Prim's algorithm yields the minimum spanning tree of the complete
// distance graph, and the MST edges in ascending order are exactly the
// single-link merges. Over a disconnected metric space (infinite distances)
// the result is the minimum spanning forest: one tree per component.
func SingleLink(dist [][]float64) []Merge {
	n := len(dist)
	if n == 0 {
		return nil
	}
	inTree := make([]bool, n)
	best := make([]float64, n)
	from := make([]int, n)
	for i := range best {
		best[i] = network.Inf
		from[i] = -1
	}
	inTree[0] = true
	for j := 1; j < n; j++ {
		best[j] = dist[0][j]
		from[j] = 0
	}
	var edges []Merge
	for t := 1; t < n; t++ {
		pick, pd := -1, network.Inf
		for j := 0; j < n; j++ {
			if !inTree[j] && (pick < 0 || best[j] < pd) {
				pick, pd = j, best[j]
			}
		}
		inTree[pick] = true
		if pd < network.Inf { // else nothing reaches pick: it roots the next component's tree
			edges = append(edges, Merge{A: from[pick], B: pick, Dist: pd})
		}
		for j := 0; j < n; j++ {
			if !inTree[j] && dist[pick][j] < best[j] {
				best[j] = dist[pick][j]
				from[j] = pick
			}
		}
	}
	sort.SliceStable(edges, func(i, j int) bool { return edges[i].Dist < edges[j].Dist })
	return edges
}

// EpsComponents labels points by the connected components of the threshold
// graph {(p,q) : dist[p][q] <= eps} — the reference output of ε-Link
// (DBSCAN with MinPts = 2). Components smaller than minSup get label -1.
func EpsComponents(dist [][]float64, eps float64, minSup int) []int32 {
	n := len(dist)
	uf := unionfind.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if dist[i][j] <= eps {
				uf.Union(i, j)
			}
		}
	}
	return labelComponents(uf, n, minSup)
}

func labelComponents(uf *unionfind.UF, n, minSup int) []int32 {
	labels := make([]int32, n)
	next := int32(0)
	byRoot := make(map[int]int32)
	for i := 0; i < n; i++ {
		r := uf.Find(i)
		if uf.Size(r) < minSup {
			labels[i] = -1
			continue
		}
		l, ok := byRoot[r]
		if !ok {
			l = next
			next++
			byRoot[r] = l
		}
		labels[i] = l
	}
	return labels
}

// DBSCAN is the classical matrix-based DBSCAN: core points have >= minPts
// neighbours within eps (self included); clusters are the density-connected
// components; border points join an arbitrary adjacent core's cluster;
// everything else is noise (-1).
func DBSCAN(dist [][]float64, eps float64, minPts int) []int32 {
	n := len(dist)
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = -2 // unvisited
	}
	neighbors := func(p int) []int {
		var nb []int
		for q := 0; q < n; q++ {
			if dist[p][q] <= eps {
				nb = append(nb, q)
			}
		}
		return nb
	}
	next := int32(0)
	for p := 0; p < n; p++ {
		if labels[p] != -2 {
			continue
		}
		nb := neighbors(p)
		if len(nb) < minPts {
			labels[p] = -1
			continue
		}
		c := next
		next++
		labels[p] = c
		queue := append([]int(nil), nb...)
		for len(queue) > 0 {
			q := queue[0]
			queue = queue[1:]
			if labels[q] == -1 {
				labels[q] = c // border point reclaimed from noise
			}
			if labels[q] != -2 {
				continue
			}
			labels[q] = c
			qnb := neighbors(q)
			if len(qnb) >= minPts {
				queue = append(queue, qnb...)
			}
		}
	}
	return labels
}

// FlagQueries counts by brute force the range queries DBSCAN(eps, minPts)'s
// flag pass issues on g: one per point whose own edge holds fewer than minPts
// points (itself included) within eps of it, every other flag being settled
// by the edge alone. flat picks the snapshot labeller's same-edge relation —
// pos-off[q] <= eps for q at or before p in the group, off[q]-pos <= eps
// after it — over the generic labeller's, which also asks off[q] to lie in
// [pos-eps, pos+eps].
func FlagQueries(g network.Graph, eps float64, minPts int, flat bool) (int, error) {
	short := 0
	err := g.ScanGroups(func(_ network.GroupID, _ network.PointGroup, off []float64) error {
		for i, pos := range off {
			cnt := 0
			for j, o := range off {
				var near bool
				switch {
				case !flat:
					near = o >= pos-eps && o <= pos+eps && math.Abs(o-pos) <= eps
				case j <= i:
					near = pos-o <= eps
				default:
					near = o-pos <= eps
				}
				if near {
					cnt++
				}
			}
			if cnt < minPts {
				short++
			}
		}
		return nil
	})
	return short, err
}

// NearestMedoids assigns every point to its closest medoid via the matrix
// and returns the assignment, the distances, and the paper's evaluation
// function R = sum of point-to-medoid distances.
func NearestMedoids(dist [][]float64, medoids []int) (assign []int, d []float64, r float64, err error) {
	if len(medoids) == 0 {
		return nil, nil, 0, fmt.Errorf("matrix: no medoids")
	}
	n := len(dist)
	assign = make([]int, n)
	d = make([]float64, n)
	for p := 0; p < n; p++ {
		bi, bd := -1, network.Inf
		for mi, m := range medoids {
			if dist[p][m] < bd {
				bi, bd = mi, dist[p][m]
			}
		}
		assign[p] = bi
		d[p] = bd
		r += bd
	}
	return assign, d, r, nil
}
