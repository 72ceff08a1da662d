package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"netclus/internal/network"
	"netclus/internal/unionfind"
)

// SingleLinkOptions configures the hierarchical algorithm of §4.4.
type SingleLinkOptions struct {
	// Delta is the scalability heuristic (§4.4.2): points on the same edge
	// at gap <= Delta are merged immediately during the initialization
	// scan, shrinking the candidate list by orders of magnitude at the price of
	// the first (analytically uninteresting) dendrogram levels. 0 disables.
	Delta float64
	// StopAtClusters stops the agglomeration when this many clusters
	// remain (0 computes the full dendrogram). Note that outliers count as
	// singleton clusters.
	StopAtClusters int
}

// SingleLinkResult is the outcome of one SingleLink run.
type SingleLinkResult struct {
	// Dendrogram is the recorded merge history.
	Dendrogram *Dendrogram
	// FinalClusters is the number of clusters remaining when the run
	// stopped (> 1 when StopAtClusters was set or the points fall in
	// disconnected network components).
	FinalClusters int
	// Stats aggregates traversal work.
	Stats Stats
}

// pairEntry is a candidate merge of the clusters currently containing points
// a and b, connected by a path of length dist.
type pairEntry struct {
	a, b network.PointID
	dist float64
}

// SingleLink computes the single-link dendrogram of the points under the
// network distance in four steps that do not interleave:
//
//  1. One sequential scan of the point groups: every point is a singleton
//     cluster, consecutive same-edge points become candidate pairs (or merge
//     immediately under the δ heuristic), and each populated edge seeds the
//     expansion with its endpoints' distances to their nearest on-edge point.
//  2. One multi-source expansion from those seeds — the network Voronoi
//     diagram of the points: every node gets its nearest point (owner) and
//     the distance to it, and every point-free edge between nodes of
//     different owners contributes the candidate
//     (owner_u, owner_v, d_u + W + d_v).
//  3. Every seed whose node went to another owner contributes
//     (owner, the seed's point, d_node + d_L).
//  4. One radix sort of the candidates and Kruskal's algorithm over them.
//
// By Mehlhorn's shortest-path-forest argument the minimum spanning tree of
// the candidate pairs carries the exact single-link dendrogram
// (cross-validated against the brute-force matrix implementation on every
// backend in the tests). Fig. 8 builds the same candidate set but interleaves
// the expansion with the merging through a pair heap P paced by the frontier;
// ascending merge order needs only the sort, so that heap and the pacing are
// gone, and a disk backend still reads each adjacency list once, in ascending
// distance order (DESIGN.md, decision 4).
func SingleLink(g network.Graph, opts SingleLinkOptions) (*SingleLinkResult, error) {
	return SingleLinkCtx(context.Background(), g, opts)
}

// SingleLinkCtx is SingleLink with cancellation: the expansion, the
// candidate sweep and the merge loop check ctx periodically and return an
// error wrapping ctx.Err() when it is done.
func SingleLinkCtx(ctx context.Context, g network.Graph, opts SingleLinkOptions) (*SingleLinkResult, error) {
	if !(opts.Delta >= 0) {
		return nil, fmt.Errorf("%w: SingleLink: Delta must be >= 0 (got %v)", ErrInvalidOptions, opts.Delta)
	}
	n := g.NumPoints()
	d := &Dendrogram{NumPoints: n}
	res := &SingleLinkResult{Dendrogram: d}
	if n == 0 {
		return res, nil
	}
	stop := max(opts.StopAtClusters, 1)
	sc, _ := slScratch.Get().(*singleLinkScratch)
	if sc == nil {
		sc = new(singleLinkScratch)
	}
	defer slScratch.Put(sc)
	uf := &sc.uf
	uf.Reset(n)
	d.Merges = make([]MergeStep, 0, n-1)
	merge := func(a, b network.PointID, dist float64) {
		if root, merged := uf.Union(int(a), int(b)); merged {
			d.Merges = append(d.Merges, MergeStep{A: a, B: b, Dist: dist, Size: int32(uf.Size(root))})
		}
	}

	// Step 1 (Fig. 8 lines 1-22): a single sequential scan of the point groups.
	cands, seeds := sc.cands[:0], slices.Grow(sc.seeds[:0], 2*g.NumGroups())
	defer func() { sc.cands, sc.seeds = cands[:0], seeds[:0] }()
	err := g.ScanGroups(func(gid network.GroupID, pg network.PointGroup, offsets []float64) error {
		res.Stats.GroupsRead++
		// A run of gaps <= δ joins its points to the run's first one, head:
		// every point after head is a singleton when it is attached.
		head := pg.First
		for i := 1; i < len(offsets); i++ {
			gap := offsets[i] - offsets[i-1]
			a, b := pg.First+network.PointID(i-1), pg.First+network.PointID(i)
			if gap <= opts.Delta {
				d.Merges = append(d.Merges, MergeStep{A: a, B: b, Dist: gap, Size: int32(uf.Attach(int(b), int(head)))})
			} else {
				cands = append(cands, pairEntry{a: a, b: b, dist: gap})
				head = b
			}
		}
		last := len(offsets) - 1
		seeds = append(seeds,
			network.MedoidSeed{Node: pg.N1, Med: int32(pg.First), Dist: offsets[0]},
			network.MedoidSeed{Node: pg.N2, Med: int32(pg.First) + int32(last), Dist: pg.Weight - offsets[last]})
		return nil
	})
	if err != nil {
		return nil, err
	}
	d.PreMerges = len(d.Merges)

	// Step 2: the network Voronoi diagram of the points and its candidates.
	st := sc.st.resize(g.NumNodes())
	res.Stats.HeapPushes += len(seeds)
	if ne, ok := g.(network.NearestExpander); ok {
		cands, err = voronoiKernel(ctx, g, ne, seeds, st, cands, &res.Stats)
	} else {
		// The generic expansion settles every node once, in ascending
		// distance order, so a disk backend reads each adjacency list once; a
		// border candidate is met from the later of its two ends.
		err = expand(ctx, g, seeds, st, &res.Stats, nil, func(u network.NodeID, nb network.Neighbor) {
			if nb.Group == network.NoGroup && st.Med[nb.Node] != st.Med[u] {
				cands = append(cands, borderPair(st, u, nb.Node, nb.Weight))
			}
		})
	}
	if err != nil {
		return nil, err
	}
	// Step 3: a populated edge joins its end node's owner to the nearest
	// point on the edge; no group is read again for it.
	for _, s := range seeds {
		if o := st.Med[s.Node]; o != s.Med {
			cands = append(cands, pairEntry{a: network.PointID(o), b: network.PointID(s.Med), dist: st.Dist[s.Node] + s.Dist})
		}
	}
	res.Stats.HeapPushes += len(cands)

	// Step 4: ascending merge order from one radix sort, then Kruskal.
	cands, sc.buf = sortPairs(cands, sc.buf)
	ticks := 0
	for _, c := range cands {
		if uf.Sets() <= stop {
			break
		}
		if err := ctxCheck(ctx, &ticks); err != nil {
			return nil, err
		}
		merge(c.a, c.b, c.dist)
	}
	res.FinalClusters = uf.Sets()
	return res, nil
}

// sortPairs returns the candidates in ascending (dist, a, b) order, in cands
// or in buf grown to the same length, and the other of the two. A stable LSD
// radix sort on the bits of dist, one byte per pass, skips every byte that
// all keys share; each run of equal dist is then ordered by (a, b).
func sortPairs(cands, buf []pairEntry) (sorted, spare []pairEntry) {
	var counts [8][256]int
	and, or := ^uint64(0), uint64(0)
	for _, c := range cands {
		k := distKey(c.dist)
		and, or = and&k, or|k
		for d := range counts {
			counts[d][byte(k>>(8*d))]++
		}
	}
	src, dst := cands, slices.Grow(buf[:0], len(cands))[:len(cands)]
	for d := range counts {
		shift := 8 * d
		if byte((and^or)>>shift) == 0 {
			continue
		}
		pos := &counts[d]
		sum := 0
		for i, c := range pos {
			pos[i], sum = sum, sum+c
		}
		for _, c := range src {
			b := byte(distKey(c.dist) >> shift)
			dst[pos[b]] = c
			pos[b]++
		}
		src, dst = dst, src
	}
	for i := 0; i < len(src); {
		j, k := i+1, distKey(src[i].dist)
		for j < len(src) && distKey(src[j].dist) == k {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(src[i:j], func(x, y pairEntry) int {
				return cmp.Or(cmp.Compare(x.a, y.a), cmp.Compare(x.b, y.b))
			})
		}
		i = j
	}
	return src, dst
}

// singleLinkScratch is what a SingleLinkCtx call uses and drops on return:
// the union-find forest, the Voronoi state, the seeds and the candidates with
// the radix sort's second buffer. slScratch hands it to the next call, so a
// steady stream of calls allocates little beyond the dendrogram.
type singleLinkScratch struct {
	uf         unionfind.UF
	st         MedoidState
	seeds      []network.MedoidSeed
	cands, buf []pairEntry
}

var slScratch sync.Pool

// distKey is the radix key of a candidate distance. Distances are >= 0 and
// never NaN, so their bits order them as the floats do, +Inf last; clearing
// the sign bit keys a -0 as +0.
func distKey(d float64) uint64 { return math.Float64bits(d) &^ (1 << 63) }

// borderPair is the candidate a point-free edge (u, v) of weight w between
// nodes of different owners contributes. The sum starts from the farther end
// — the one a distance-ordered expansion settles later — so that it is the
// same float on every backend, whichever end the backend met first.
func borderPair(st *MedoidState, u, v network.NodeID, w float64) pairEntry {
	if st.Dist[u] < st.Dist[v] || (st.Dist[u] == st.Dist[v] && u < v) {
		u, v = v, u
	}
	return pairEntry{a: network.PointID(st.Med[u]), b: network.PointID(st.Med[v]), dist: st.Dist[u] + w + st.Dist[v]}
}

// voronoiKernel builds the diagram with the graph's own expansion kernel
// and collects the border candidates in one flat sweep over the adjacency.
func voronoiKernel(ctx context.Context, g network.Graph, ne network.NearestExpander, seeds []network.MedoidSeed, st *MedoidState, cands []pairEntry, stats *Stats) ([]pairEntry, error) {
	c, err := ne.ExpandNearestLogged(ctx, seeds, st.Med, st.Dist, nil)
	stats.NodesSettled += c.Settled
	stats.HeapPushes += c.Pushes
	stats.EdgesVisited += c.Edges
	if err != nil {
		return nil, err
	}
	ticks := 0
	for u := network.NodeID(0); int(u) < g.NumNodes(); u++ {
		if err := ctxCheck(ctx, &ticks); err != nil {
			return nil, err
		}
		adj, err := g.Neighbors(u)
		if err != nil {
			return nil, err
		}
		stats.EdgesVisited += len(adj)
		for _, nb := range adj {
			if nb.Node > u && nb.Group == network.NoGroup && st.Med[nb.Node] != st.Med[u] {
				cands = append(cands, borderPair(st, u, nb.Node, nb.Weight))
			}
		}
	}
	return cands, nil
}
