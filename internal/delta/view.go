package delta

import (
	"netclus/internal/csr"
	"netclus/internal/network"
)

// View is one frozen merged read view: a snapshot derived from the overlay's
// base (csr.Derive) whose points are the base point groups interleaved with
// adopted edge lists, renumbered into dense canonical IDs in ascending
// edge-key order — the same §4.1 shape Builder.Build and csr.Compile emit, so
// every flat kernel serves it. It is a type of its own only so that a merged
// view is never mistaken for the compiled base.
type View struct{ *csr.Snapshot }

// freeze materializes the current merged content as a snapshot derived from
// the base, with the slot of every point. While the delta is empty that is
// the base itself.
func (o *Overlay) freeze() (*csr.Snapshot, []int32) {
	if len(o.adopted) == 0 {
		return o.base, o.baseSlots
	}
	keys := o.sortedAdoptedKeys()
	nPts := o.countPoints()
	groups := make([]network.PointGroup, 0, len(o.baseGroups)+len(keys))
	ptPos := make([]float64, 0, nPts)
	ptTag := make([]int32, 0, nPts)
	ptGrp := make([]int32, 0, nPts)
	idToSlot := make([]int32, 0, nPts)
	// viewOf[i] is the view group base group i became, NoGroup once it
	// emptied out; gained maps the previously point-free edges that now carry
	// a group. Together they renumber the base adjacency when the
	// populated-edge set moved.
	viewOf := make([]network.GroupID, len(o.baseGroups))
	var gained map[uint64]network.GroupID

	sameKeys := true
	emitList := func(el *edgeList) {
		gid := int32(len(groups))
		groups = append(groups, network.PointGroup{
			N1: el.n1, N2: el.n2, Weight: el.weight,
			First: network.PointID(len(ptPos)), Count: int32(len(el.pts)),
		})
		for _, e := range el.pts {
			ptPos = append(ptPos, e.pos)
			ptTag = append(ptTag, e.tag)
			ptGrp = append(ptGrp, gid)
			idToSlot = append(idToSlot, e.slot)
		}
	}
	// Base groups dominate every freeze, so they go in bulk: four appends from
	// the base's own flat arrays.
	emitBase := func(i int) {
		pg := o.baseGroups[i]
		offs, _ := o.base.GroupOffsets(network.GroupID(i))
		gid := int32(len(groups))
		viewOf[i] = network.GroupID(gid)
		groups = append(groups, network.PointGroup{
			N1: pg.N1, N2: pg.N2, Weight: pg.Weight,
			First: network.PointID(len(ptPos)), Count: pg.Count,
		})
		lo, hi := int(pg.First), int(pg.First)+int(pg.Count)
		ptPos = append(ptPos, offs...)
		ptTag = append(ptTag, o.baseTags[lo:hi]...)
		idToSlot = append(idToSlot, o.baseSlots[lo:hi]...)
		for k := 0; k < int(pg.Count); k++ {
			ptGrp = append(ptGrp, gid)
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
				viewOf[i] = network.GroupID(len(groups))
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
				gained[keys[j]] = network.GroupID(len(groups))
				emitList(el)
			}
			j++
		}
	}
	var adj []network.Neighbor
	if !sameKeys {
		adj = o.translateAdjacency(viewOf, gained)
	}
	return csr.Derive(o.base, groups, ptPos, ptTag, ptGrp, adj), idToSlot
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
// the edges the base has no group for. Rows keep their order and length, so
// the view shares the base's row offsets. Only needed when the set of
// populated edges changed; otherwise the base's adjacency serves unchanged.
func (o *Overlay) translateAdjacency(viewOf []network.GroupID, gained map[uint64]network.GroupID) []network.Neighbor {
	adj := make([]network.Neighbor, 0, 2*o.base.NumEdges())
	for n := 0; n < o.base.NumNodes(); n++ {
		nbs, _ := o.base.Neighbors(network.NodeID(n))
		for _, nb := range nbs {
			if nb.Group != network.NoGroup {
				nb.Group = viewOf[nb.Group]
			} else if id, ok := gained[network.EdgeKey(network.NodeID(n), nb.Node)]; ok {
				nb.Group = id
			}
			adj = append(adj, nb)
		}
	}
	return adj
}
