package network

import (
	"context"
	"fmt"

	"netclus/internal/heapx"
)

// Seed is a starting frontier entry for a (multi-source) Dijkstra traversal:
// node Node is reachable from the conceptual source at distance Dist.
type Seed struct {
	Node NodeID
	Dist float64
}

// queueEntry is a lazy-deletion Dijkstra frontier element.
type queueEntry struct {
	node NodeID
	dist float64
}

func lessEntry(a, b queueEntry) bool { return a.dist < b.dist }

// NodeDistances computes the shortest network distance from src to every
// node with Dijkstra's algorithm (lazy insertion, as the paper's pseudocode
// assumes). Unreachable nodes get +Inf.
func NodeDistances(g Graph, src NodeID) ([]float64, error) {
	return NodeDistancesFrom(g, []Seed{{Node: src, Dist: 0}})
}

// NodeDistancesCtx is NodeDistances with cancellation: the traversal checks
// ctx periodically and returns an error wrapping ctx.Err() when it is done.
func NodeDistancesCtx(ctx context.Context, g Graph, src NodeID) ([]float64, error) {
	return NodeDistancesFromCtx(ctx, g, []Seed{{Node: src, Dist: 0}})
}

// NodeDistancesFrom runs a multi-source Dijkstra from the given seeds and
// returns the distance of every node from the seed set.
func NodeDistancesFrom(g Graph, seeds []Seed) ([]float64, error) {
	return NodeDistancesFromCtx(context.Background(), g, seeds)
}

// NodeDistancesFromCtx is NodeDistancesFrom with cancellation.
func NodeDistancesFromCtx(ctx context.Context, g Graph, seeds []Seed) ([]float64, error) {
	ticks := 0
	if err := cancelCheck(ctx, &ticks); err != nil {
		return nil, err
	}
	dist := newDistSlice(g.NumNodes())
	h := heapx.New(lessEntry)
	for _, s := range seeds {
		if s.Node < 0 || int(s.Node) >= g.NumNodes() {
			return nil, fmt.Errorf("%w: seed %d", ErrNodeRange, s.Node)
		}
		h.Push(queueEntry{node: s.Node, dist: s.Dist})
	}
	for !h.Empty() {
		e := h.Pop()
		if e.dist >= dist[e.node] {
			continue
		}
		if err := cancelCheck(ctx, &ticks); err != nil {
			return nil, err
		}
		dist[e.node] = e.dist
		adj, err := g.Neighbors(e.node)
		if err != nil {
			return nil, err
		}
		for _, nb := range adj {
			if nd := e.dist + nb.Weight; nd < dist[nb.Node] {
				h.Push(queueEntry{node: nb.Node, dist: nd})
			}
		}
	}
	return dist, nil
}

// PointSeeds returns the Definition 4 exit seeds of a point: its two edge
// endpoints at their direct distances.
func PointSeeds(pi PointInfo) []Seed {
	return []Seed{
		{Node: pi.N1, Dist: pi.Pos},
		{Node: pi.N2, Dist: pi.Weight - pi.Pos},
	}
}

// PointDistance computes the network distance d(p, q) between two points
// (Definition 4): the best combination of exiting p's edge through either
// endpoint, traversing the network, and entering q's edge through either
// endpoint — or, when p and q share an edge, possibly the direct distance.
func PointDistance(g Graph, p, q PointID) (float64, error) {
	return PointDistanceCtx(context.Background(), g, p, q)
}

// PointDistanceCtx is PointDistance with cancellation: the expansion checks
// ctx periodically and returns an error wrapping ctx.Err() when it is done.
func PointDistanceCtx(ctx context.Context, g Graph, p, q PointID) (float64, error) {
	pi, err := g.PointInfo(p)
	if err != nil {
		return 0, err
	}
	qi, err := g.PointInfo(q)
	if err != nil {
		return 0, err
	}
	return PointInfoDistanceCtx(ctx, g, pi, qi)
}

// PointInfoDistanceCtx is PointDistanceCtx on already-resolved positions.
func PointInfoDistanceCtx(ctx context.Context, g Graph, pi, qi PointInfo) (float64, error) {
	ticks := 0
	if err := cancelCheck(ctx, &ticks); err != nil {
		return 0, err
	}
	best := DirectPointDist(pi, qi)
	// Early-terminating bidirectional-ish search: run Dijkstra from p's exit
	// seeds until both of q's endpoints are settled or the frontier exceeds
	// the best distance found so far.
	dist := newDistSlice(g.NumNodes())
	h := heapx.New(lessEntry)
	for _, s := range PointSeeds(pi) {
		h.Push(queueEntry{node: s.Node, dist: s.Dist})
	}
	settled1, settled2 := false, false
	for !h.Empty() {
		e := h.Pop()
		if e.dist >= dist[e.node] {
			continue
		}
		if err := cancelCheck(ctx, &ticks); err != nil {
			return 0, err
		}
		if e.dist >= best {
			break // every remaining completion is at least e.dist
		}
		dist[e.node] = e.dist
		switch e.node {
		case qi.N1:
			settled1 = true
			if d := e.dist + qi.Pos; d < best {
				best = d
			}
		case qi.N2:
			settled2 = true
			// Parenthesized to sum in the same association order as the
			// expansion-based operators' offers (entry cost first): pruned
			// and unpruned results must match to the bit.
			if d := e.dist + (qi.Weight - qi.Pos); d < best {
				best = d
			}
		}
		if settled1 && settled2 {
			break
		}
		adj, err := g.Neighbors(e.node)
		if err != nil {
			return 0, err
		}
		for _, nb := range adj {
			if nd := e.dist + nb.Weight; nd < dist[nb.Node] {
				h.Push(queueEntry{node: nb.Node, dist: nd})
			}
		}
	}
	return best, nil
}

func newDistSlice(n int) []float64 {
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = Inf
	}
	return dist
}
