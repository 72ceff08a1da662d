// Package network defines the spatial-network data model of the paper
// (Yiu & Mamoulis, SIGMOD 2004, §3): an undirected weighted graph
// G = (V, E, W) with objects (points) lying on its edges, the direct
// distance d_L (Definition 2), and the network distance d (Definitions 3-4)
// computed by Dijkstra-style traversal. It provides an in-memory
// implementation of the Graph access interface; package storage provides a
// disk-based one backed by the paper's §4.1 storage architecture.
package network

import (
	"errors"
	"fmt"
	"math"
)

// NodeID identifies a network node (vertex). IDs are dense in [0, NumNodes).
type NodeID int32

// PointID identifies an object lying on a network edge. IDs are dense in
// [0, NumPoints) and assigned so that points on the same edge have sequential
// IDs in ascending offset order (the paper's §4.1 point-group invariant).
type PointID int32

// GroupID identifies a point group: the set of points lying on one edge.
// Groups are dense in [0, NumGroups) ordered by their first PointID.
type GroupID int32

// NoGroup marks an edge that carries no points.
const NoGroup GroupID = -1

// Inf is the distance of unreachable nodes and of the direct distance between
// points on different edges (Definition 2).
var Inf = math.Inf(1)

// Neighbor is one entry of a node's adjacency list: the adjacent node, the
// weight of the connecting edge, and the point group on that edge (NoGroup if
// empty). This mirrors the paper's adjacency-list record, which stores the
// adjacent node ID, the edge weight and a reference to the edge's point group.
// The int32 fields come first so the record packs into 16 bytes, no padding
// (TestNeighborSize): it is every adjacency array's element, csr's included.
type Neighbor struct {
	Node   NodeID
	Group  GroupID
	Weight float64
}

// PointGroup describes the points on one edge (N1, N2) with N1 < N2.
// Offsets of its points are measured from N1 and ascend; the points have IDs
// First, First+1, ..., First+Count-1.
type PointGroup struct {
	N1, N2 NodeID
	Weight float64 // W(N1, N2)
	First  PointID
	Count  int32
}

// PointInfo is the resolved position of a single point: the edge it lies on
// (N1 < N2), its offset Pos from N1 (0 <= Pos <= Weight), the edge weight,
// the group it belongs to and an application tag (e.g. a ground-truth cluster
// label from the generator, or an index into caller-side payload data).
type PointInfo struct {
	Group  GroupID
	N1, N2 NodeID
	Pos    float64
	Weight float64
	Tag    int32
}

// Coord is an optional embedding of a node in the plane, used by the data
// generators (Euclidean edge weights, as in the paper's §5) and by the SVG
// renderer. It plays no role in distance computation.
type Coord struct{ X, Y float64 }

// Graph is the access interface shared by the in-memory Network and the
// disk-based storage.Store. All clustering algorithms are written against it,
// so every experiment can run in either mode.
//
// Slices returned by Neighbors and GroupOffsets are valid only until the next
// call on the same Graph (a disk implementation may return buffer-page-backed
// data); callers must copy anything they retain.
type Graph interface {
	// NumNodes returns |V|.
	NumNodes() int
	// NumEdges returns |E| (undirected edges counted once).
	NumEdges() int
	// NumPoints returns the number N of objects on the network.
	NumPoints() int
	// NumGroups returns the number of non-empty point groups.
	NumGroups() int
	// Neighbors returns the adjacency list of n.
	Neighbors(n NodeID) ([]Neighbor, error)
	// Group returns the descriptor of group g.
	Group(g GroupID) (PointGroup, error)
	// GroupOffsets returns the ascending offsets (from N1) of g's points.
	GroupOffsets(g GroupID) ([]float64, error)
	// PointInfo resolves a point ID to its position.
	PointInfo(p PointID) (PointInfo, error)
	// ScanGroups iterates all point groups in ascending GroupID order,
	// which for a disk store is a single sequential scan of the points
	// file (the access pattern Single-Link's first phase relies on).
	// Iteration stops early if fn returns a non-nil error, which is then
	// returned.
	ScanGroups(fn func(g GroupID, pg PointGroup, offsets []float64) error) error
}

// Errors returned by Graph implementations.
var (
	ErrNodeRange  = errors.New("network: node ID out of range")
	ErrPointRange = errors.New("network: point ID out of range")
	ErrGroupRange = errors.New("network: group ID out of range")
	ErrNoEdge     = errors.New("network: no such edge")
)

// ErrInvalidOptions is wrapped by every option-validation failure across the
// query and clustering layers (core aliases it), so callers can recognize
// all of them with a single errors.Is check.
var ErrInvalidOptions = errors.New("netclus: invalid options")

// CanonEdge returns the canonical (smaller, larger) ordering of an edge's
// endpoints; positions are always expressed from the smaller endpoint
// (Definition 1 requires n_i < n_j).
func CanonEdge(u, v NodeID) (NodeID, NodeID) {
	if u > v {
		return v, u
	}
	return u, v
}

// EdgeKey packs a canonical edge into a single comparable key.
func EdgeKey(u, v NodeID) uint64 {
	u, v = CanonEdge(u, v)
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// UnpackEdgeKey reverses EdgeKey.
func UnpackEdgeKey(k uint64) (NodeID, NodeID) {
	return NodeID(k >> 32), NodeID(uint32(k))
}

// DirectPointDist is d_L(p, q) for two points (Definition 2): |pos_p - pos_q|
// when they lie on the same edge, +Inf otherwise.
func DirectPointDist(p, q PointInfo) float64 {
	if p.N1 != q.N1 || p.N2 != q.N2 {
		return Inf
	}
	return math.Abs(p.Pos - q.Pos)
}

// EdgeWeight returns W(u, v) by scanning u's adjacency list.
// It returns ErrNoEdge when the edge does not exist.
func EdgeWeight(g Graph, u, v NodeID) (float64, error) {
	adj, err := g.Neighbors(u)
	if err != nil {
		return 0, err
	}
	for _, nb := range adj {
		if nb.Node == v {
			return nb.Weight, nil
		}
	}
	return 0, fmt.Errorf("%w: (%d,%d)", ErrNoEdge, u, v)
}
