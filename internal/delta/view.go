package delta

import (
	"slices"

	"netclus/internal/csr"
	"netclus/internal/network"
)

// View is one frozen read view after the base: a snapshot derived from the
// view before it (csr.Derive) whose points are that view's point groups
// interleaved with the batch's edge lists, renumbered into dense canonical IDs
// in ascending edge-key order — the same §4.1 shape Builder.Build and
// csr.Compile emit, so every flat kernel serves it. It is a type of its own
// because benchmark/run.go picks the backend it cross-checks a view against
// by type, and takes a bare *csr.Snapshot for the unmodified base (ROADMAP
// item 1 (A)).
type View struct{ *csr.Snapshot }

// freeze materializes the batch's content as a snapshot derived from the last
// view, with its point groups, the slot of every point and the canonical ID
// of every slot from firstNew up, in slot order: the batch's inserts.
//
// The last view's groups between two edge lists are one contiguous range of
// its columns and go in bulk; only the lists are written point by point. The
// adjacency is the last view's unless the batch emptied an edge or populated
// a point-free one: a view's group IDs are a function of its populated-edge
// set alone.
func (o *Overlay) freeze(firstNew int32) (sn *csr.Snapshot, idToSlot []int32, groups []network.PointGroup, newIDs []network.PointID) {
	n := o.points
	ptPos := make([]float64, n)
	ptTag := make([]int32, n)
	ptGrp := make([]int32, n)
	idToSlot = make([]int32, n)
	groups = make([]network.PointGroup, 0, len(o.groups)+len(o.lists))
	_, prevPos, prevGrp, prevTag := csr.Columns(o.sn)
	newIDs = slices.Grow(o.newIDs[:0], int(o.nextSlot-firstNew))[:o.nextSlot-firstNew]
	o.newIDs = newIDs

	at := 0 // next canonical point ID
	gi := 0 // next group of the last view to emit
	// run emits the last view's untouched groups [gi, end): their points keep
	// their order, so every column is one copy, group IDs and First offsets
	// one shift each.
	run := func(end int) {
		if end == gi {
			return
		}
		lo := o.groups[gi].First
		hi := o.groups[end-1].First + network.PointID(o.groups[end-1].Count)
		gShift := int32(len(groups) - gi)
		pShift := network.PointID(at) - lo
		copy(ptPos[at:], prevPos[lo:hi])
		copy(ptTag[at:], prevTag[lo:hi])
		copy(idToSlot[at:], o.slots[lo:hi])
		dst, src := ptGrp[at:at+int(hi-lo)], prevGrp[lo:hi]
		for k := range dst {
			dst[k] = src[k] + gShift
		}
		g0 := len(groups)
		groups = append(groups, o.groups[gi:end]...)
		if pShift != 0 {
			for k := g0; k < len(groups); k++ {
				groups[k].First += pShift
			}
		}
		at += int(hi - lo)
		gi = end
	}
	moved := false
	for _, el := range o.lists {
		run(el.gi)
		if el.had {
			gi++
		}
		if el.had != (len(el.pts) > 0) {
			moved = true
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
	run(len(o.groups))

	var adj []network.Neighbor // nil: the last view's
	if moved {
		adj = o.renumberAdjacency(groups)
	}
	return csr.Derive(o.sn, groups, ptPos, ptTag, ptGrp, adj), idToSlot, groups, newIDs
}

// renumberAdjacency returns a copy of the last view's adjacency with every
// Group field renumbered for a view with these groups. A group's edge takes
// the new group on it, or NoGroup once it emptied out; an edge with no group
// takes the new group that now sits on it. Rows keep their order and length,
// so the view shares the last view's row offsets.
func (o *Overlay) renumberAdjacency(groups []network.PointGroup) []network.Neighbor {
	newOf := make([]network.GroupID, len(o.groups))
	var gained map[uint64]network.GroupID
	i := 0
	for g, pg := range groups {
		key := groupKey(pg)
		for ; i < len(o.groups) && groupKey(o.groups[i]) < key; i++ {
			newOf[i] = network.NoGroup
		}
		if i < len(o.groups) && groupKey(o.groups[i]) == key {
			newOf[i] = network.GroupID(g)
			i++
			continue
		}
		if gained == nil {
			gained = make(map[uint64]network.GroupID)
		}
		gained[key] = network.GroupID(g)
	}
	for ; i < len(o.groups); i++ {
		newOf[i] = network.NoGroup
	}

	prevAdj, _, _, _ := csr.Columns(o.sn)
	// append, not make and copy: an array the copy fills is not zeroed first.
	adj := append([]network.Neighbor(nil), prevAdj...)
	for i := range adj {
		if g := adj[i].Group; g != network.NoGroup {
			adj[i].Group = newOf[g]
		}
	}
	if len(gained) == 0 {
		return adj
	}
	row := adj
	for n := 0; n < o.sn.NumNodes(); n++ {
		nbs, _ := o.sn.Neighbors(network.NodeID(n))
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
