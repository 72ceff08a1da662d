package network

import (
	"fmt"
	"math"
	"sort"
)

// Network is the in-memory Graph implementation. It is immutable after
// Build; construct one through a Builder. Adjacency is stored in CSR form
// and point offsets in a single flat slice indexed by the groups' First IDs,
// mirroring the layout of the disk-based points file.
type Network struct {
	offsets  []int32    // CSR row offsets, len NumNodes+1
	adj      []Neighbor // flattened adjacency lists
	coords   []Coord    // optional node embedding (nil if absent)
	groups   []PointGroup
	pointPos []float64 // offset of every point, grouped per edge, ascending
	pointGrp []GroupID // group of every point, precomputed in Build
	tags     []int32   // application tag per point
	numEdges int
}

var _ Graph = (*Network)(nil)

// NumNodes returns |V|.
func (n *Network) NumNodes() int { return len(n.offsets) - 1 }

// NumEdges returns |E|.
func (n *Network) NumEdges() int { return n.numEdges }

// NumPoints returns the number of objects on the network.
func (n *Network) NumPoints() int { return len(n.pointPos) }

// NumGroups returns the number of non-empty point groups.
func (n *Network) NumGroups() int { return len(n.groups) }

// Neighbors returns the adjacency list of node id. The returned slice aliases
// internal storage and must not be modified.
func (n *Network) Neighbors(id NodeID) ([]Neighbor, error) {
	if id < 0 || int(id) >= n.NumNodes() {
		return nil, fmt.Errorf("%w: %d", ErrNodeRange, id)
	}
	return n.adj[n.offsets[id]:n.offsets[id+1]], nil
}

// Group returns the descriptor of group g.
func (n *Network) Group(g GroupID) (PointGroup, error) {
	if g < 0 || int(g) >= len(n.groups) {
		return PointGroup{}, fmt.Errorf("%w: %d", ErrGroupRange, g)
	}
	return n.groups[g], nil
}

// GroupOffsets returns the ascending point offsets of group g. The returned
// slice aliases internal storage and must not be modified.
func (n *Network) GroupOffsets(g GroupID) ([]float64, error) {
	if g < 0 || int(g) >= len(n.groups) {
		return nil, fmt.Errorf("%w: %d", ErrGroupRange, g)
	}
	pg := n.groups[g]
	return n.pointPos[pg.First : int32(pg.First)+pg.Count], nil
}

// PointInfo resolves point p to its edge, offset and tag.
func (n *Network) PointInfo(p PointID) (PointInfo, error) {
	if p < 0 || int(p) >= len(n.pointPos) {
		return PointInfo{}, fmt.Errorf("%w: %d", ErrPointRange, p)
	}
	// The point -> group table is precomputed in Build: PointInfo runs once
	// per point per clustering pass, so the O(log G) search it replaced was
	// a measurable constant on every algorithm.
	g := n.pointGrp[p]
	pg := n.groups[g]
	return PointInfo{
		Group:  g,
		N1:     pg.N1,
		N2:     pg.N2,
		Pos:    n.pointPos[p],
		Weight: pg.Weight,
		Tag:    n.tags[p],
	}, nil
}

// ScanGroups iterates all point groups in GroupID order.
func (n *Network) ScanGroups(fn func(g GroupID, pg PointGroup, offsets []float64) error) error {
	for i, pg := range n.groups {
		off := n.pointPos[pg.First : int32(pg.First)+pg.Count]
		if err := fn(GroupID(i), pg, off); err != nil {
			return err
		}
	}
	return nil
}

// Coord returns the planar embedding of node id, or a zero Coord when the
// network carries no embedding.
func (n *Network) Coord(id NodeID) Coord {
	if n.coords == nil || id < 0 || int(id) >= len(n.coords) {
		return Coord{}
	}
	return n.coords[id]
}

// HasCoords reports whether the network carries a planar embedding.
func (n *Network) HasCoords() bool { return n.coords != nil }

// Tag returns the application tag of point p (0 when out of range).
func (n *Network) Tag(p PointID) int32 {
	if p < 0 || int(p) >= len(n.tags) {
		return 0
	}
	return n.tags[p]
}

// Tags returns the tag of every point, indexed by PointID. The returned
// slice aliases internal storage.
func (n *Network) Tags() []int32 { return n.tags }

// PointCoord interpolates the planar position of point p along its edge,
// for visualization. It requires a planar embedding.
func (n *Network) PointCoord(p PointID) (Coord, error) {
	pi, err := n.PointInfo(p)
	if err != nil {
		return Coord{}, err
	}
	a, b := n.Coord(pi.N1), n.Coord(pi.N2)
	t := 0.0
	if pi.Weight > 0 {
		t = pi.Pos / pi.Weight
	}
	return Coord{X: a.X + (b.X-a.X)*t, Y: a.Y + (b.Y-a.Y)*t}, nil
}

// builderPoint is a point registered with a Builder before ID assignment.
type builderPoint struct {
	n1, n2 NodeID
	pos    float64
	tag    int32
}

// Builder assembles a Network. The zero value is not usable; call NewBuilder.
// Methods record the first error encountered and Build returns it, so call
// sites may chain Add* calls without per-call checks.
type Builder struct {
	coords     []Coord
	coordNodes int // nodes registered with coordinates
	plainNodes int // nodes registered without (AddNode() or AddNodes)
	edges      map[uint64]float64
	points     []builderPoint
	err        error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{edges: make(map[uint64]float64)}
}

// AddNode registers a new node and returns its ID. Pass coordinates to give
// the network a planar embedding; a network either embeds all nodes or none,
// and Build rejects a mix of coordinate and coordinate-free registrations.
func (b *Builder) AddNode(c ...Coord) NodeID {
	id := NodeID(len(b.coords))
	if len(c) > 0 {
		b.coordNodes++
		b.coords = append(b.coords, c[0])
	} else {
		b.plainNodes++
		b.coords = append(b.coords, Coord{})
	}
	return id
}

// AddNodes registers n embedding-free nodes and returns the first new ID.
func (b *Builder) AddNodes(n int) NodeID {
	id := NodeID(len(b.coords))
	b.plainNodes += n
	for i := 0; i < n; i++ {
		b.coords = append(b.coords, Coord{})
	}
	return id
}

// AddEdge registers the undirected edge (u, v) with weight w. Self-loops,
// duplicate edges, unknown endpoints and weights that are not finite and
// positive are errors.
func (b *Builder) AddEdge(u, v NodeID, w float64) {
	if b.err != nil {
		return
	}
	switch {
	case u == v:
		b.err = fmt.Errorf("network: self-loop on node %d", u)
	case u < 0 || int(u) >= len(b.coords) || v < 0 || int(v) >= len(b.coords):
		b.err = fmt.Errorf("network: edge (%d,%d) references unknown node", u, v)
	case !(w > 0):
		b.err = fmt.Errorf("network: edge (%d,%d) has non-positive weight %v", u, v, w)
	case math.IsInf(w, 1):
		b.err = fmt.Errorf("network: edge (%d,%d) has infinite weight", u, v)
	default:
		k := EdgeKey(u, v)
		if _, dup := b.edges[k]; dup {
			b.err = fmt.Errorf("network: duplicate edge (%d,%d)", u, v)
		} else {
			b.edges[k] = w
		}
	}
}

// AddPoint places an object on edge (u, v) at distance pos from the smaller
// endpoint, with an application tag. The edge must already exist and pos must
// lie within [0, W(u,v)].
func (b *Builder) AddPoint(u, v NodeID, pos float64, tag int32) {
	if b.err != nil {
		return
	}
	n1, n2 := CanonEdge(u, v)
	w, ok := b.edges[EdgeKey(n1, n2)]
	if !ok {
		b.err = fmt.Errorf("network: point on missing edge (%d,%d)", u, v)
		return
	}
	if pos < 0 || pos > w {
		b.err = fmt.Errorf("network: point offset %v outside [0,%v] on edge (%d,%d)", pos, w, u, v)
		return
	}
	b.points = append(b.points, builderPoint{n1: n1, n2: n2, pos: pos, tag: tag})
}

// Err returns the first error recorded by Add* calls.
func (b *Builder) Err() error { return b.err }

// Build finalizes the network. Point IDs are assigned per the paper's §4.1
// invariant: points on the same edge receive sequential IDs in ascending
// offset order; groups are ordered by edge key. The Builder must not be used
// afterwards.
func (b *Builder) Build() (*Network, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.coordNodes > 0 && b.plainNodes > 0 {
		return nil, fmt.Errorf("network: mixed embedding: %d nodes have coordinates, %d have none (embed all nodes or none)",
			b.coordNodes, b.plainNodes)
	}
	nNodes := len(b.coords)

	// Sort points by canonical edge, then offset; ties keep input order so
	// coincident points get deterministic IDs.
	pts := b.points
	sort.SliceStable(pts, func(i, j int) bool {
		ki, kj := EdgeKey(pts[i].n1, pts[i].n2), EdgeKey(pts[j].n1, pts[j].n2)
		if ki != kj {
			return ki < kj
		}
		return pts[i].pos < pts[j].pos
	})

	net := &Network{
		pointPos: make([]float64, len(pts)),
		pointGrp: make([]GroupID, len(pts)),
		tags:     make([]int32, len(pts)),
		numEdges: len(b.edges),
	}
	if b.coordNodes > 0 {
		net.coords = b.coords
	}

	// Build point groups and the edge -> group map.
	edgeGrp := make(map[uint64]GroupID)
	for i := 0; i < len(pts); {
		j := i
		k := EdgeKey(pts[i].n1, pts[i].n2)
		for j < len(pts) && EdgeKey(pts[j].n1, pts[j].n2) == k {
			j++
		}
		g := GroupID(len(net.groups))
		net.groups = append(net.groups, PointGroup{
			N1:     pts[i].n1,
			N2:     pts[i].n2,
			Weight: b.edges[k],
			First:  PointID(i),
			Count:  int32(j - i),
		})
		edgeGrp[k] = g
		for t := i; t < j; t++ {
			net.pointPos[t] = pts[t].pos
			net.pointGrp[t] = g
			net.tags[t] = pts[t].tag
		}
		i = j
	}

	// CSR adjacency with group references on both directed halves.
	deg := make([]int32, nNodes)
	for k := range b.edges {
		u, v := UnpackEdgeKey(k)
		deg[u]++
		deg[v]++
	}
	net.offsets = make([]int32, nNodes+1)
	for i := 0; i < nNodes; i++ {
		net.offsets[i+1] = net.offsets[i] + deg[i]
	}
	net.adj = make([]Neighbor, net.offsets[nNodes])
	fill := make([]int32, nNodes)
	copy(fill, net.offsets[:nNodes])
	for k, w := range b.edges {
		u, v := UnpackEdgeKey(k)
		g := NoGroup
		if gid, ok := edgeGrp[k]; ok {
			g = gid
		}
		net.adj[fill[u]] = Neighbor{Node: v, Weight: w, Group: g}
		fill[u]++
		net.adj[fill[v]] = Neighbor{Node: u, Weight: w, Group: g}
		fill[v]++
	}
	// Deterministic adjacency order (map iteration above is randomized).
	for i := 0; i < nNodes; i++ {
		row := net.adj[net.offsets[i]:net.offsets[i+1]]
		sort.Slice(row, func(a, b int) bool { return row[a].Node < row[b].Node })
	}
	return net, nil
}
