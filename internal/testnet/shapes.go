package testnet

import (
	"fmt"

	"netclus/internal/network"
)

// Shape is a hand-built network aimed at the selection-mask logic of the
// density labellers (DBSCAN's core-restricted Fig. 6 growth). Every number is
// a multiple of 1/8, so all distance arithmetic is exact and a point at
// exactly eps is within eps in every implementation.
type Shape struct {
	Name  string
	Nodes int
	Edges []ShapeEdge
}

// ShapeEdge is the edge (U, V) of weight W carrying one point at each of the
// distances Pts from U.
type ShapeEdge struct {
	U, V int
	W    float64
	Pts  []float64
}

// The node numberings a shape is built in. Point IDs follow the edge keys, so
// a renumbering moves the seeds, and it decides which end of an edge is N1:
// Mirrored (i -> nodes-1-i) seeds every cluster from the other side, Twisted
// (0 stays, the rest reversed) keeps the seeds where they are but makes the
// growth enter the later groups from N2 instead of N1.
const (
	AsWritten = iota
	Mirrored
	Twisted
)

// Build materialises the shape in the given node numbering.
func (s Shape) Build(numbering int) (*network.Network, error) {
	id := func(i int) network.NodeID {
		switch {
		case numbering == Mirrored:
			i = s.Nodes - 1 - i
		case numbering == Twisted && i > 0:
			i = s.Nodes - i
		}
		return network.NodeID(i)
	}
	b := network.NewBuilder()
	b.AddNodes(s.Nodes)
	tag := int32(0)
	for _, e := range s.Edges {
		u, v := id(e.U), id(e.V)
		b.AddEdge(u, v, e.W)
		for _, d := range e.Pts {
			pos := d
			if u > v {
				pos = e.W - d
			}
			b.AddPoint(u, v, pos, tag)
			tag++
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("testnet: shape %s: %w", s.Name, err)
	}
	return g, nil
}

// Shapes are meant for eps = 1 (bracket it with a ladder) and MinPts 4 or 5;
// "c" marks points that are core there, "x" the ones that are not.
var Shapes = []Shape{
	{
		// c1 (2.0) and c2 (3.0) are exactly eps apart with the non-core x
		// (2.5) between them on one edge; each has three more neighbours x
		// cannot see. Seeding from c1 must step over x to reach c2.
		Name: "noncore-between-cores-seed-edge", Nodes: 2,
		Edges: []ShapeEdge{{0, 1, 5, []float64{1, 1.125, 1.25, 2, 2.5, 3, 3.75, 3.875, 4}}},
	},
	{
		// The same trio c1 (0.5) x (1.0) c2 (1.5) on edge (1,2), but the
		// cluster is seeded on edge (0,1) and enters through node 1: the
		// chain from the first selected point must skip x.
		Name: "noncore-between-cores-chain", Nodes: 3,
		Edges: []ShapeEdge{
			{0, 1, 1, []float64{0.5, 0.625, 0.75}},
			{1, 2, 5, []float64{0.5, 1, 1.5, 2.25, 2.375, 2.5}},
		},
	},
	{
		// c1 (0.25 before node 1) and c2 (0.25 past node 2) are exactly eps
		// apart through edge (1,2), whose only point x is not core: the
		// growth has to cross that edge as if it were point-free.
		Name: "coreless-group-on-the-path", Nodes: 4,
		Edges: []ShapeEdge{
			{0, 1, 4, []float64{2.75, 2.875, 3, 3.75}},
			{1, 2, 0.5, []float64{0.25}},
			{2, 3, 4, []float64{0.25, 1, 1.125, 1.25}},
		},
	},
	{
		// Two clusters 2 apart with one border point exactly eps from the
		// nearest core of each: the smaller label wins, whichever end the
		// numbering starts from.
		Name: "border-of-two-clusters", Nodes: 2,
		Edges: []ShapeEdge{{0, 1, 10, []float64{1, 1.25, 1.5, 1.75, 2.75, 3.75, 4, 4.25, 4.5}}},
	},
	{
		// Points 3 apart: noise at every eps of the ladder once MinPts > 1.
		Name: "all-noise", Nodes: 3,
		Edges: []ShapeEdge{
			{0, 1, 9, []float64{0, 3, 6}},
			{1, 2, 9, []float64{0.5, 3.5, 6.5}},
		},
	},
	{
		// Nine points within 1 of each other around a junction.
		Name: "all-core", Nodes: 4,
		Edges: []ShapeEdge{
			{0, 1, 2, []float64{1.5, 1.625, 1.75}},
			{1, 2, 2, []float64{0.125, 0.25, 0.375}},
			{1, 3, 2, []float64{0.125, 0.25, 0.5}},
		},
	},
	{
		// Two components no path connects, dense and sparse points on each,
		// plus a point-free component.
		Name: "disconnected", Nodes: 7,
		Edges: []ShapeEdge{
			{0, 1, 3, []float64{0.5, 0.75, 1, 1.25, 2.75}},
			{1, 2, 1, nil},
			{3, 4, 3, []float64{0.25, 0.5, 0.75, 2.5, 2.75, 3}},
			{5, 6, 1, nil},
		},
	},
}

// TieShapes force exact distance ties on Single-Link's Voronoi
// expansion and on its candidate sort (every number a multiple of 1/8, as in
// Shapes).
var TieShapes = []Shape{
	{
		// Points at offset 0 and at W: seeds at distance 0, two points on one
		// node (a merge at height 0), groups whose end seed is a whole edge
		// away.
		Name: "points-at-edge-ends", Nodes: 4,
		Edges: []ShapeEdge{
			{0, 1, 2, []float64{0, 2}},
			{1, 2, 2, []float64{0, 1, 2}},
			{2, 3, 1, nil},
			{3, 0, 1, []float64{0.5}},
		},
	},
	{
		// Three groups reach node 1 at the same d_L = 0.5, and node 4 is
		// equidistant from two of them through point-free edges.
		Name: "equal-dl-at-shared-node", Nodes: 5,
		Edges: []ShapeEdge{
			{0, 1, 2, []float64{1.5}},
			{1, 2, 2, []float64{0.5}},
			{1, 3, 2, []float64{0.5, 1}},
			{2, 4, 1, nil},
			{3, 4, 1, nil},
			{0, 4, 1, nil},
		},
	},
	{
		// A 3x3 grid of unit edges with points at edge midpoints: every
		// border candidate ties with several others.
		Name: "unit-weights", Nodes: 9,
		Edges: []ShapeEdge{
			{0, 1, 1, []float64{0.5}}, {1, 2, 1, nil}, {3, 4, 1, nil}, {4, 5, 1, []float64{0.25, 0.75}}, {6, 7, 1, nil}, {7, 8, 1, []float64{0.5}},
			{0, 3, 1, nil}, {3, 6, 1, []float64{0.5}}, {1, 4, 1, nil}, {4, 7, 1, nil}, {2, 5, 1, []float64{0.5}}, {5, 8, 1, nil},
		},
	},
}

// ShapeGraphs returns every shape of Shapes and of more in every numbering,
// keyed "name", "name/mirrored" and "name/twisted".
func ShapeGraphs(more ...Shape) (map[string]*network.Network, error) {
	out := make(map[string]*network.Network)
	for _, s := range append(Shapes[:len(Shapes):len(Shapes)], more...) {
		for numbering, suffix := range []string{"", "/mirrored", "/twisted"} {
			g, err := s.Build(numbering)
			if err != nil {
				return nil, err
			}
			out[s.Name+suffix] = g
		}
	}
	return out, nil
}
