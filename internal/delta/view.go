package delta

import (
	"slices"

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
// the base, with the slot of every point and the canonical ID of every slot
// from firstNew up, in slot order: the batch's inserts. While the delta is
// empty that is the base itself.
//
// Base groups between two adopted edges are one contiguous range of the base
// columns and go in bulk; only adopted lists are written point by point. The
// adjacency is the last view's unless the populated-edge set moved since
// (applyOps raises adjMoved): a view's group IDs are a function of that set
// alone.
func (o *Overlay) freeze(firstNew int32) (sn *csr.Snapshot, idToSlot []int32, newIDs []network.PointID) {
	if len(o.adopted) == 0 {
		return o.base, o.baseSlots, nil
	}
	n := o.points
	ptPos := make([]float64, n)
	ptTag := make([]int32, n)
	ptGrp := make([]int32, n)
	idToSlot = make([]int32, n)
	groups := make([]network.PointGroup, 0, len(o.baseGroups)+len(o.adopted))
	_, basePos, baseGrp, baseTag := csr.Columns(o.base)
	newIDs = slices.Grow(o.newIDs[:0], int(o.nextSlot-firstNew))[:o.nextSlot-firstNew]
	o.newIDs = newIDs

	at := 0 // next canonical point ID
	bi := 0 // next base group to emit
	// run emits the untouched base groups [bi, end): their points keep their
	// order, so every column is one copy, group IDs and First offsets one
	// shift each.
	run := func(end int) {
		if end == bi {
			return
		}
		lo := o.baseGroups[bi].First
		hi := o.baseGroups[end-1].First + network.PointID(o.baseGroups[end-1].Count)
		gShift := int32(len(groups) - bi)
		pShift := network.PointID(at) - lo
		copy(ptPos[at:], basePos[lo:hi])
		copy(ptTag[at:], baseTag[lo:hi])
		copy(idToSlot[at:], o.baseSlots[lo:hi])
		dst, src := ptGrp[at:at+int(hi-lo)], baseGrp[lo:hi]
		for k := range dst {
			dst[k] = src[k] + gShift
		}
		g0 := len(groups)
		groups = append(groups, o.baseGroups[bi:end]...)
		if pShift != 0 {
			for k := g0; k < len(groups); k++ {
				groups[k].First += pShift
			}
		}
		at += int(hi - lo)
		bi = end
	}
	for _, el := range o.adopted {
		run(el.bgi)
		if el.inBase {
			bi++
		}
		if len(el.pts) == 0 {
			continue
		}
		gid := int32(len(groups))
		groups = append(groups, network.PointGroup{
			N1: el.n1, N2: el.n2, Weight: el.weight,
			First: network.PointID(at), Count: int32(len(el.pts)),
		})
		for _, e := range el.pts {
			ptPos[at], ptTag[at], ptGrp[at], idToSlot[at] = e.pos, e.tag, gid, e.slot
			if e.slot >= firstNew {
				newIDs[e.slot-firstNew] = network.PointID(at)
			}
			at++
		}
	}
	run(len(o.baseGroups))

	if o.adjMoved {
		o.adjMoved, o.lastAdj = false, o.renumberAdjacency(groups)
	}
	return csr.Derive(o.base, groups, ptPos, ptTag, ptGrp, o.lastAdj), idToSlot, newIDs
}

// renumberAdjacency returns the adjacency of a view with these groups: nil,
// the base's own, when they sit on exactly the base's edges, else a copy of
// the base's with every Group field renumbered. A base group's edge takes the
// view group on it, or NoGroup once it emptied out; an edge the base has no
// group for takes the view group that now sits on it. Rows keep their order
// and length, so the view shares the base's row offsets.
func (o *Overlay) renumberAdjacency(groups []network.PointGroup) []network.Neighbor {
	viewOf := make([]network.GroupID, len(o.baseKeys))
	var gained map[uint64]network.GroupID
	moved, i := false, 0
	for g, pg := range groups {
		key := network.EdgeKey(pg.N1, pg.N2)
		for ; i < len(o.baseKeys) && o.baseKeys[i] < key; i++ {
			viewOf[i], moved = network.NoGroup, true
		}
		if i < len(o.baseKeys) && o.baseKeys[i] == key {
			viewOf[i] = network.GroupID(g)
			i++
			continue
		}
		if gained == nil {
			gained = make(map[uint64]network.GroupID)
		}
		gained[key], moved = network.GroupID(g), true
	}
	for ; i < len(o.baseKeys); i++ {
		viewOf[i], moved = network.NoGroup, true
	}
	if !moved {
		return nil
	}

	baseAdj, _, _, _ := csr.Columns(o.base)
	// append, not make and copy: an array the copy fills is not zeroed first.
	adj := append([]network.Neighbor(nil), baseAdj...)
	for i := range adj {
		if g := adj[i].Group; g != network.NoGroup {
			adj[i].Group = viewOf[g]
		}
	}
	if len(gained) == 0 {
		return adj
	}
	row := adj
	for n := 0; n < o.base.NumNodes(); n++ {
		nbs, _ := o.base.Neighbors(network.NodeID(n))
		for k, nb := range nbs {
			if nb.Group != network.NoGroup {
				continue
			}
			if id, ok := gained[network.EdgeKey(network.NodeID(n), nb.Node)]; ok {
				row[k].Group = id
			}
		}
		row = row[len(nbs):]
	}
	return adj
}
