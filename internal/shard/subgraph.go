package shard

import (
	"fmt"

	"netclus/internal/network"
)

// subGraph presents one shard of the partitioned source graph as a
// self-contained network.Graph in local IDs, for csr.Compile. Internal
// edges only: cut edges (and their groups) live in the plan. Because
// local IDs ascend with global IDs, translated rows stay sorted by target
// and local groups keep the §4.1 dense-ascending invariant.
type subGraph struct {
	set   *Set
	g     network.Graph
	s     int
	edges int
	buf   []network.Neighbor
}

var (
	_ network.Graph = (*subGraph)(nil)
	_ tagSource     = (*subGraph)(nil)
	_ coordSource   = (*subGraph)(nil)
)

func (sg *subGraph) NumNodes() int  { return len(sg.set.nodeGlobal[sg.s]) }
func (sg *subGraph) NumEdges() int  { return sg.edges }
func (sg *subGraph) NumPoints() int { return len(sg.set.pointGlobal[sg.s]) }
func (sg *subGraph) NumGroups() int { return len(sg.set.groupGlobal[sg.s]) }

func (sg *subGraph) Neighbors(ln network.NodeID) ([]network.Neighbor, error) {
	set := sg.set
	if ln < 0 || int(ln) >= len(set.nodeGlobal[sg.s]) {
		return nil, fmt.Errorf("%w: %d", network.ErrNodeRange, ln)
	}
	gn := set.nodeGlobal[sg.s][ln]
	row, err := sg.g.Neighbors(network.NodeID(gn))
	if err != nil {
		return nil, err
	}
	sg.buf = sg.buf[:0]
	for _, nb := range row {
		if set.nodeShard[nb.Node] != int32(sg.s) {
			continue // a cut edge
		}
		lg := network.NoGroup
		if nb.Group >= 0 {
			lg = network.GroupID(set.groupLocal[nb.Group]) // internal edge: group owned
		}
		sg.buf = append(sg.buf, network.Neighbor{
			Node:   network.NodeID(set.nodeLocal[nb.Node]),
			Weight: nb.Weight,
			Group:  lg,
		})
	}
	return sg.buf, nil
}

// localGroup translates an owned group descriptor to shard-local IDs.
func (sg *subGraph) localGroup(gg int32) network.PointGroup {
	set := sg.set
	pg := set.groups[gg]
	return network.PointGroup{
		N1:     network.NodeID(set.nodeLocal[pg.N1]),
		N2:     network.NodeID(set.nodeLocal[pg.N2]),
		Weight: pg.Weight,
		First:  network.PointID(set.pointLocal[pg.First]),
		Count:  pg.Count,
	}
}

func (sg *subGraph) Group(lg network.GroupID) (network.PointGroup, error) {
	if lg < 0 || int(lg) >= len(sg.set.groupGlobal[sg.s]) {
		return network.PointGroup{}, fmt.Errorf("%w: %d", network.ErrGroupRange, lg)
	}
	return sg.localGroup(sg.set.groupGlobal[sg.s][lg]), nil
}

func (sg *subGraph) GroupOffsets(lg network.GroupID) ([]float64, error) {
	if lg < 0 || int(lg) >= len(sg.set.groupGlobal[sg.s]) {
		return nil, fmt.Errorf("%w: %d", network.ErrGroupRange, lg)
	}
	pg := &sg.set.groups[sg.set.groupGlobal[sg.s][lg]]
	return sg.set.ptPos[pg.First : int32(pg.First)+pg.Count], nil
}

func (sg *subGraph) PointInfo(lp network.PointID) (network.PointInfo, error) {
	set := sg.set
	if lp < 0 || int(lp) >= len(set.pointGlobal[sg.s]) {
		return network.PointInfo{}, fmt.Errorf("%w: %d", network.ErrPointRange, lp)
	}
	gp := set.pointGlobal[sg.s][lp]
	gg := set.ptGrp[gp]
	pg := &set.groups[gg]
	return network.PointInfo{
		Group: network.GroupID(set.groupLocal[gg]),
		N1:    network.NodeID(set.nodeLocal[pg.N1]),
		N2:    network.NodeID(set.nodeLocal[pg.N2]),
		Pos:   set.ptPos[gp], Weight: pg.Weight,
		Tag: set.ptTag[gp],
	}, nil
}

func (sg *subGraph) ScanGroups(fn func(g network.GroupID, pg network.PointGroup, offsets []float64) error) error {
	set := sg.set
	for lg, gg := range set.groupGlobal[sg.s] {
		pg := &set.groups[gg]
		off := set.ptPos[pg.First : int32(pg.First)+pg.Count]
		if err := fn(network.GroupID(lg), sg.localGroup(gg), off); err != nil {
			return err
		}
	}
	return nil
}

func (sg *subGraph) Tag(lp network.PointID) int32 {
	return sg.set.ptTag[sg.set.pointGlobal[sg.s][lp]]
}

func (sg *subGraph) Coord(ln network.NodeID) network.Coord {
	return sg.set.coords[sg.set.nodeGlobal[sg.s][ln]]
}

func (sg *subGraph) HasCoords() bool { return sg.set.coords != nil }
