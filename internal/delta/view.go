package delta

import (
	"fmt"

	"netclus/internal/network"
)

// View is one frozen merged read view: base point groups interleaved with
// adopted edge lists, renumbered into dense canonical IDs in ascending
// edge-key order — the same §4.1 shape Builder.Build and csr.Compile emit.
// Everything is materialized at freeze time, so a View is immutable, safe to
// share across request goroutines, and a valid csr.Compile input.
type View struct {
	base network.Graph

	groups   []network.PointGroup
	ptPos    []float64
	ptTag    []int32
	ptGrp    []int32
	idToSlot []int32

	// adj/adjOff hold a translated adjacency when the populated-edge set
	// differs from the base's (group IDs shifted); both nil when the base
	// numbering still applies and Neighbors delegates.
	adj    []network.Neighbor
	adjOff []int32

	numNodes, numEdges int
}

var _ network.Graph = (*View)(nil)

// freeze materializes the current merged content. While the delta is empty
// it returns the base itself, keeping the specialized CSR kernels (and their
// scratch) on the fast path.
func (o *Overlay) freeze() (network.Graph, []int32) {
	if len(o.adopted) == 0 {
		return o.base, o.baseSlots
	}
	keys := o.sortedAdoptedKeys()
	v := &View{
		base:     o.base,
		numNodes: o.base.NumNodes(),
		numEdges: o.base.NumEdges(),
	}
	nPts := o.countPoints()
	v.ptPos = make([]float64, 0, nPts)
	v.ptTag = make([]int32, 0, nPts)
	v.ptGrp = make([]int32, 0, nPts)
	v.idToSlot = make([]int32, 0, nPts)
	// viewOf[i] is the view group base group i became, NoGroup once it
	// emptied out; gained maps the previously point-free edges that now carry
	// a group. Together they renumber the base adjacency when the
	// populated-edge set moved.
	viewOf := make([]network.GroupID, len(o.baseGroups))
	var gained map[uint64]network.GroupID

	sameKeys := true
	emitList := func(el *edgeList) {
		gid := int32(len(v.groups))
		v.groups = append(v.groups, network.PointGroup{
			N1: el.n1, N2: el.n2, Weight: el.weight,
			First: network.PointID(len(v.ptPos)), Count: int32(len(el.pts)),
		})
		for _, e := range el.pts {
			v.ptPos = append(v.ptPos, e.pos)
			v.ptTag = append(v.ptTag, e.tag)
			v.ptGrp = append(v.ptGrp, gid)
			v.idToSlot = append(v.idToSlot, e.slot)
		}
	}
	// Base groups dominate every freeze, so they go in bulk: four appends from
	// the base's own flat arrays.
	emitBase := func(i int) {
		pg := o.baseGroups[i]
		offs, _ := o.base.GroupOffsets(network.GroupID(i))
		gid := int32(len(v.groups))
		viewOf[i] = network.GroupID(gid)
		v.groups = append(v.groups, network.PointGroup{
			N1: pg.N1, N2: pg.N2, Weight: pg.Weight,
			First: network.PointID(len(v.ptPos)), Count: pg.Count,
		})
		lo, hi := int(pg.First), int(pg.First)+int(pg.Count)
		v.ptPos = append(v.ptPos, offs...)
		v.ptTag = append(v.ptTag, o.baseTags[lo:hi]...)
		v.idToSlot = append(v.idToSlot, o.baseSlots[lo:hi]...)
		for k := 0; k < int(pg.Count); k++ {
			v.ptGrp = append(v.ptGrp, gid)
		}
	}
	i, j := 0, 0
	for i < len(o.baseGroups) || j < len(keys) {
		switch {
		case j >= len(keys) || (i < len(o.baseGroups) && o.baseKeys[i] < keys[j]):
			emitBase(i)
			i++
		case i < len(o.baseGroups) && o.baseKeys[i] == keys[j]:
			el := o.adopted[keys[j]]
			if len(el.pts) == 0 {
				sameKeys = false // base group emptied out
				viewOf[i] = network.NoGroup
			} else {
				viewOf[i] = network.GroupID(len(v.groups))
				emitList(el)
			}
			i++
			j++
		default:
			el := o.adopted[keys[j]]
			if len(el.pts) > 0 {
				sameKeys = false // a previously point-free edge gained points
				if gained == nil {
					gained = make(map[uint64]network.GroupID)
				}
				gained[keys[j]] = network.GroupID(len(v.groups))
				emitList(el)
			}
			j++
		}
	}
	if !sameKeys {
		v.translateAdjacency(viewOf, gained)
	}
	return v, v.idToSlot
}

// countPoints sizes the freeze output: base points, minus adopted base
// groups, plus adopted list contents.
func (o *Overlay) countPoints() int {
	n := o.base.NumPoints()
	for key, el := range o.adopted {
		if gi, ok := o.baseGroupIndex(key); ok {
			n -= int(o.baseGroups[gi].Count)
		}
		n += len(el.pts)
	}
	return n
}

// translateAdjacency copies the base adjacency with Group fields renumbered
// to the view's group IDs: viewOf by base group ID, gained by edge key for
// the edges the base has no group for. Only needed when the set of populated
// edges changed; otherwise base numbering is already correct and Neighbors
// delegates.
func (v *View) translateAdjacency(viewOf []network.GroupID, gained map[uint64]network.GroupID) {
	v.adj = make([]network.Neighbor, 0, 2*v.numEdges)
	v.adjOff = make([]int32, v.numNodes+1)
	for n := 0; n < v.numNodes; n++ {
		nbs, _ := v.base.Neighbors(network.NodeID(n))
		for _, nb := range nbs {
			if nb.Group != network.NoGroup {
				nb.Group = viewOf[nb.Group]
			} else if id, ok := gained[network.EdgeKey(network.NodeID(n), nb.Node)]; ok {
				nb.Group = id
			}
			v.adj = append(v.adj, nb)
		}
		v.adjOff[n+1] = int32(len(v.adj))
	}
}

// NumNodes returns the node count (the overlay never mutates the network).
func (v *View) NumNodes() int { return v.numNodes }

// NumEdges returns the edge count.
func (v *View) NumEdges() int { return v.numEdges }

// NumPoints returns the merged point count.
func (v *View) NumPoints() int { return len(v.ptPos) }

// NumGroups returns the merged group count.
func (v *View) NumGroups() int { return len(v.groups) }

// Neighbors returns n's adjacency with view group IDs.
func (v *View) Neighbors(n network.NodeID) ([]network.Neighbor, error) {
	if v.adj == nil {
		return v.base.Neighbors(n)
	}
	if n < 0 || int(n) >= v.numNodes {
		return nil, fmt.Errorf("%w: %d of %d", network.ErrNodeRange, n, v.numNodes)
	}
	return v.adj[v.adjOff[n]:v.adjOff[n+1]], nil
}

// Group returns group g's descriptor.
func (v *View) Group(g network.GroupID) (network.PointGroup, error) {
	if g < 0 || int(g) >= len(v.groups) {
		return network.PointGroup{}, fmt.Errorf("%w: %d of %d", network.ErrGroupRange, g, len(v.groups))
	}
	return v.groups[g], nil
}

// GroupOffsets returns group g's ascending offsets (aliased; callers must
// not mutate, same contract as the other Graph implementations).
func (v *View) GroupOffsets(g network.GroupID) ([]float64, error) {
	if g < 0 || int(g) >= len(v.groups) {
		return nil, fmt.Errorf("%w: %d of %d", network.ErrGroupRange, g, len(v.groups))
	}
	pg := v.groups[g]
	return v.ptPos[pg.First : int(pg.First)+int(pg.Count)], nil
}

// PointInfo returns point p's full placement.
func (v *View) PointInfo(p network.PointID) (network.PointInfo, error) {
	if p < 0 || int(p) >= len(v.ptPos) {
		return network.PointInfo{}, fmt.Errorf("%w: %d of %d", network.ErrPointRange, p, len(v.ptPos))
	}
	g := v.ptGrp[p]
	pg := v.groups[g]
	return network.PointInfo{
		Group: network.GroupID(g), N1: pg.N1, N2: pg.N2,
		Pos: v.ptPos[p], Weight: pg.Weight, Tag: v.ptTag[p],
	}, nil
}

// ScanGroups visits every group in canonical (ascending edge-key) order.
func (v *View) ScanGroups(fn func(network.GroupID, network.PointGroup, []float64) error) error {
	for g, pg := range v.groups {
		offs := v.ptPos[pg.First : int(pg.First)+int(pg.Count)]
		if err := fn(network.GroupID(g), pg, offs); err != nil {
			return err
		}
	}
	return nil
}

// Tag returns point p's application tag (0 out of range), the fast accessor
// csr.Compile uses.
func (v *View) Tag(p network.PointID) int32 {
	if p < 0 || int(p) >= len(v.ptTag) {
		return 0
	}
	return v.ptTag[p]
}
