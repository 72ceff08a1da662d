package csr

import (
	"fmt"

	"netclus/internal/network"
)

// The snapshot serves the shared Graph access interface so every operator
// written against it runs unchanged, and the kernel dispatch contracts so
// the operators that have flat-array kernels pick them up automatically.
var (
	_ network.Graph           = (*Snapshot)(nil)
	_ network.ScratchProvider = (*Snapshot)(nil)
	_ network.KNNQuerier      = (*Snapshot)(nil)
	_ network.NearestExpander = (*Snapshot)(nil)
)

// NumNodes returns |V|.
func (s *Snapshot) NumNodes() int { return len(s.rowOff) - 1 }

// NumEdges returns |E|.
func (s *Snapshot) NumEdges() int { return s.numEdges }

// NumPoints returns the number of objects on the network.
func (s *Snapshot) NumPoints() int { return len(s.ptPos) }

// NumGroups returns the number of non-empty point groups.
func (s *Snapshot) NumGroups() int { return len(s.groups) }

// Neighbors returns the adjacency list of node id. The returned slice
// aliases the snapshot and must not be modified.
func (s *Snapshot) Neighbors(id network.NodeID) ([]network.Neighbor, error) {
	if id < 0 || int(id) >= s.NumNodes() {
		return nil, fmt.Errorf("%w: %d", network.ErrNodeRange, id)
	}
	return s.adj[s.rowOff[id]:s.rowOff[id+1]], nil
}

// Group returns the descriptor of group g.
func (s *Snapshot) Group(g network.GroupID) (network.PointGroup, error) {
	if g < 0 || int(g) >= len(s.groups) {
		return network.PointGroup{}, fmt.Errorf("%w: %d", network.ErrGroupRange, g)
	}
	return s.groups[g], nil
}

// GroupOffsets returns the ascending point offsets of group g. The returned
// slice aliases the snapshot and must not be modified.
func (s *Snapshot) GroupOffsets(g network.GroupID) ([]float64, error) {
	if g < 0 || int(g) >= len(s.groups) {
		return nil, fmt.Errorf("%w: %d", network.ErrGroupRange, g)
	}
	pg := s.groups[g]
	return s.ptPos[pg.First : int32(pg.First)+pg.Count], nil
}

// PointInfo resolves point p to its edge, offset and tag.
func (s *Snapshot) PointInfo(p network.PointID) (network.PointInfo, error) {
	if p < 0 || int(p) >= len(s.ptPos) {
		return network.PointInfo{}, fmt.Errorf("%w: %d", network.ErrPointRange, p)
	}
	pg := s.groups[s.ptGrp[p]]
	return network.PointInfo{
		Group:  network.GroupID(s.ptGrp[p]),
		N1:     pg.N1,
		N2:     pg.N2,
		Pos:    s.ptPos[p],
		Weight: pg.Weight,
		Tag:    s.ptTag[p],
	}, nil
}

// ScanGroups iterates all point groups in GroupID order.
func (s *Snapshot) ScanGroups(fn func(g network.GroupID, pg network.PointGroup, offsets []float64) error) error {
	for i, pg := range s.groups {
		off := s.ptPos[pg.First : int32(pg.First)+pg.Count]
		if err := fn(network.GroupID(i), pg, off); err != nil {
			return err
		}
	}
	return nil
}

// Coord returns the planar embedding of node id, or a zero Coord when the
// snapshot carries no embedding.
func (s *Snapshot) Coord(id network.NodeID) network.Coord {
	if s.coords == nil || id < 0 || int(id) >= len(s.coords) {
		return network.Coord{}
	}
	return s.coords[id]
}

// HasCoords reports whether the snapshot carries a planar embedding.
func (s *Snapshot) HasCoords() bool { return s.coords != nil }

// Tag returns the application tag of point p (0 when out of range).
func (s *Snapshot) Tag(p network.PointID) int32 {
	if p < 0 || int(p) >= len(s.ptTag) {
		return 0
	}
	return s.ptTag[p]
}

// Tags returns the tag of every point, indexed by PointID. The returned
// slice aliases the snapshot.
func (s *Snapshot) Tags() []int32 { return s.ptTag }
