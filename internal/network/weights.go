package network

import "fmt"

// WeightFunc maps an edge and its base weight to a new weight. It is how the
// §6 weight variants plug in: travel time, monetary cost, aggregates of
// several measures, or a time-of-day traffic multiplier (bind the time before
// calling Reweight to take a snapshot of a time-dependent network).
type WeightFunc func(u, v NodeID, base float64) float64

// Reweight returns a copy of n with every edge weight replaced by
// f(u, v, W(u,v)). Point offsets are rescaled proportionally
// (pos' = pos * W'/W) so each object keeps its relative location on its
// edge. f must return positive weights.
func Reweight(n *Network, f WeightFunc) (*Network, error) {
	b := NewBuilder()
	for i := 0; i < n.NumNodes(); i++ {
		if n.HasCoords() {
			b.AddNode(n.Coord(NodeID(i)))
		} else {
			b.AddNode()
		}
	}
	newW := make(map[uint64]float64)
	for u := 0; u < n.NumNodes(); u++ {
		adj, err := n.Neighbors(NodeID(u))
		if err != nil {
			return nil, err
		}
		for _, nb := range adj {
			if NodeID(u) >= nb.Node {
				continue
			}
			w := f(NodeID(u), nb.Node, nb.Weight)
			if !(w > 0) {
				return nil, fmt.Errorf("network: reweight of edge (%d,%d) returned non-positive %v", u, nb.Node, w)
			}
			b.AddEdge(NodeID(u), nb.Node, w)
			newW[EdgeKey(NodeID(u), nb.Node)] = w
		}
	}
	err := n.ScanGroups(func(g GroupID, pg PointGroup, offsets []float64) error {
		w := newW[EdgeKey(pg.N1, pg.N2)]
		for i, off := range offsets {
			// The ratio goes first: off·(w/Weight) scales every offset
			// exactly when the factor is a power of two, where off·w/Weight
			// rounds. Either can round past w for a point at the far end
			// (off = Weight); the clamp keeps it on the edge and leaves
			// every in-range value as it is.
			scaled := 0.0
			if pg.Weight > 0 {
				scaled = min(off*(w/pg.Weight), w)
			}
			b.AddPoint(pg.N1, pg.N2, scaled, n.Tag(pg.First+PointID(i)))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return b.Build()
}

// Transition joins node A of the first network to node B of the second with
// an edge of the given positive weight — the §6 "transition edge" (e.g. a
// pier joining a road network to a ferry network).
type Transition struct {
	A, B   NodeID
	Weight float64
}

// Combine merges two networks into one, renumbering the second network's
// nodes by an offset (returned) and adding the given transition edges.
// Points of both networks are carried over with their tags. Shortest paths
// in the combined network may cross between the source networks only through
// transition edges, which is exactly the §6 multi-network clustering model.
func Combine(a, b *Network, transitions []Transition) (combined *Network, offsetB NodeID, err error) {
	bd := NewBuilder()
	addAll := func(n *Network, offset NodeID) error {
		for i := 0; i < n.NumNodes(); i++ {
			if n.HasCoords() {
				bd.AddNode(n.Coord(NodeID(i)))
			} else {
				bd.AddNode()
			}
		}
		for u := 0; u < n.NumNodes(); u++ {
			adj, err := n.Neighbors(NodeID(u))
			if err != nil {
				return err
			}
			for _, nb := range adj {
				if NodeID(u) < nb.Node {
					bd.AddEdge(NodeID(u)+offset, nb.Node+offset, nb.Weight)
				}
			}
		}
		return n.ScanGroups(func(g GroupID, pg PointGroup, offsets []float64) error {
			for i, off := range offsets {
				bd.AddPoint(pg.N1+offset, pg.N2+offset, off, n.Tag(pg.First+PointID(i)))
			}
			return nil
		})
	}
	if err := addAll(a, 0); err != nil {
		return nil, 0, err
	}
	offsetB = NodeID(a.NumNodes())
	if err := addAll(b, offsetB); err != nil {
		return nil, 0, err
	}
	for _, t := range transitions {
		if t.A < 0 || int(t.A) >= a.NumNodes() {
			return nil, 0, fmt.Errorf("network: transition node %d not in first network", t.A)
		}
		if t.B < 0 || int(t.B) >= b.NumNodes() {
			return nil, 0, fmt.Errorf("network: transition node %d not in second network", t.B)
		}
		bd.AddEdge(t.A, t.B+offsetB, t.Weight)
	}
	combined, err = bd.Build()
	return combined, offsetB, err
}
