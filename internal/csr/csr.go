// Package csr runs the paper's traversal primitives (bounded Dijkstra,
// ε-range, kNN, concurrent nearest-medoid expansion) as cache-friendly
// kernels over an immutable flat-array snapshot of a spatial network.
//
// A snapshot is a network.Network — CSR row offsets with int32 node indices,
// a single adjacency array of the paper's §4.1 records (target node,
// point-group reference, edge weight: one 16-byte network.Neighbor per
// half-edge) that the kernels scan and Neighbors sub-slices, the points of
// every edge bucketed in one position-sorted flat array, and the optional
// planar embedding, so the lower-bound Bounder contract of package lbound
// works unchanged — plus the kernels' pools. The network's Graph methods are
// the snapshot's; it also implements the kernel dispatch contracts
// network.ScratchProvider, network.KNNQuerier and network.NearestExpander, so
// every existing operator runs on it without modification and the clustering
// algorithms pick the kernels up automatically, with results identical to
// the generic paths.
//
// Compile of an in-memory Network adopts the network's arrays: the two share
// that immutable memory, and compiling copies nothing. Any other Graph, the
// disk Store included, is decompiled into fresh arrays through its Graph
// interface (one sequential scan each for the adjacency and the point file).
package csr

import (
	"fmt"
	"math"
	"sync"
	"time"
	"unsafe"

	"netclus/internal/network"
)

// Stats describes a compiled snapshot: its shape, how long the compilation
// took and how many bytes the flat arrays hold resident.
type Stats struct {
	Nodes  int `json:"nodes"`
	Edges  int `json:"edges"`
	Points int `json:"points"`
	Groups int `json:"groups"`
	// HasCoords reports whether the planar embedding was carried over.
	HasCoords bool `json:"has_coords"`
	// CompileTime is the wall-clock duration of Compile.
	CompileTime time.Duration `json:"compile_ns"`
	// ResidentBytes is the total footprint of the snapshot's arrays.
	ResidentBytes int64 `json:"resident_bytes"`
}

// graphArrays names the embedded network without exporting a field: its
// Graph methods (NumNodes … Tags) are promoted to the snapshot.
type graphArrays = network.Network

// Snapshot is the compiled network: immutable after Compile, safe for any
// number of concurrent readers, no interior pointers beyond the slice
// headers. See the package comment for the layout.
type Snapshot struct {
	graphArrays

	// The kernels' views of the network's arrays, set once by newSnapshot.
	//
	// Adjacency in CSR form: the out-entries of node n are
	// adj[rowOff[n]:rowOff[n+1]], one 16-byte record per half-edge (target
	// node, point group on the edge or network.NoGroup, edge weight).
	rowOff []int32
	adj    []network.Neighbor

	// Point groups and the flat per-edge point buckets: group g's point
	// offsets (ascending, measured from N1) are
	// ptPos[groups[g].First : First+Count], the paper's §4.1 invariant.
	groups []network.PointGroup
	ptPos  []float64
	ptGrp  []int32
	ptTag  []int32

	// coords is the optional planar embedding (nil when the network has
	// none).
	coords []network.Coord

	// invDelta is 1/(mean edge weight), the unit of the Δ-stepping bucket
	// queues: the frontier-parallel range kernel and ExpandNearest file an
	// entry at distance d under bucket floor(d·invDelta). Always derived from
	// adj's weights, at Compile and at load alike. Zero when the graph has no
	// edges (the kernels then run single-bucket, which is plain
	// label-correcting and still correct).
	invDelta float64

	stats Stats

	// pools recycles the kernels' traversal state. Every snapshot derived
	// from this one (Derive) shares it, so a live overlay's views, one per
	// write batch, reuse what earlier views grew instead of starting empty.
	pools *kernelPools
}

// newSnapshot returns the snapshot of net, with the Δ unit left for its
// caller to set. It is the one place the kernels' array headers are set, so
// they cannot disagree with the embedded network.
func newSnapshot(net *network.Network, pools *kernelPools) *Snapshot {
	s := &Snapshot{graphArrays: *net, pools: pools}
	s.rowOff, s.adj, s.groups, s.ptPos, s.ptGrp, s.ptTag, s.coords = network.Columns(net)
	s.stats = Stats{
		Nodes: s.NumNodes(), Edges: s.NumEdges(), Points: s.NumPoints(), Groups: s.NumGroups(),
		HasCoords:     s.HasCoords(),
		ResidentBytes: s.residentBytes(),
	}
	return s
}

// kernelPools are the pools behind a snapshot family's kernels. Pooled state
// is not tied to one snapshot: a draw rebinds it to the snapshot it serves.
type kernelPools struct {
	// scratch recycles kernel scratches for the batched range mode and the
	// kNN entry point: steady-state queries allocate nothing.
	scratch sync.Pool

	// expand recycles the Δ-stepping bucket queues of ExpandNearest for the
	// same reason: repeated incremental k-medoids updates reuse the grown
	// bucket arrays instead of regrowing from empty every call.
	expand sync.Pool

	// prange recycles the coordination state of the frontier-parallel range
	// expansion (bucket queue, proposal buffers, worker slots).
	prange sync.Pool

	// cluster recycles the per-stripe coordination state of the striped
	// clustering passes (CoreFlags / EpsUnions).
	cluster sync.Pool

	// eps recycles the label kernel's state: the flat-array Fig. 6 traversal
	// (per-cluster epoch-stamped NNdist, per-point selection state) and
	// DBSCAN's non-core side lists.
	eps sync.Pool
}

// tagSource and coordSource are the optional Graph extensions Compile reads
// tags and the embedding through; the in-memory Network implements both, the
// disk Store only the former.
type tagSource interface{ Tag(network.PointID) int32 }
type coordSource interface {
	Coord(network.NodeID) network.Coord
	HasCoords() bool
}

// Compile builds a snapshot of g. A *network.Network is adopted: the
// snapshot shares the network's immutable arrays and copies none of them.
// Any other source is only read and shares no memory with the snapshot,
// which stays valid after the source is closed (for a disk store).
func Compile(g network.Graph) (*Snapshot, error) {
	start := time.Now()
	if int64(g.NumNodes()) > math.MaxInt32 || int64(g.NumPoints()) > math.MaxInt32 {
		return nil, fmt.Errorf("csr: graph exceeds int32 index space (%d nodes, %d points)", g.NumNodes(), g.NumPoints())
	}
	net, ok := g.(*network.Network)
	var err error
	if ok {
		err = checkGroups(net)
	} else {
		net, err = decompile(g)
	}
	if err != nil {
		return nil, err
	}
	s := newSnapshot(net, new(kernelPools))
	s.invDelta = invMeanWeight(s.adj)
	s.stats.CompileTime = time.Since(start)
	return s, nil
}

// groupError reports a group that breaks the §4.1 invariant the kernels index
// by: groups ordered by first point ID, IDs dense per edge.
func groupError(gid int, pg network.PointGroup, next network.PointID) error {
	return fmt.Errorf("csr: group %d violates the point-group invariant (first %d, count %d, want first %d)",
		gid, pg.First, pg.Count, next)
}

// checkGroups verifies the §4.1 invariant on a network's own groups, in
// O(groups): Build emits it, and the kernels rely on it.
func checkGroups(net *network.Network) error {
	_, _, groups, pos, _, _, _ := network.Columns(net)
	next := network.PointID(0)
	for gid, pg := range groups {
		if pg.First != next || pg.Count < 0 {
			return groupError(gid, pg, next)
		}
		next += network.PointID(pg.Count)
	}
	if int(next) != len(pos) {
		return fmt.Errorf("csr: point groups cover %d of %d points", next, len(pos))
	}
	return nil
}

// decompile reads g into fresh arrays in the layout Build emits.
func decompile(g network.Graph) (*network.Network, error) {
	nodes, points := g.NumNodes(), g.NumPoints()

	// Adjacency: one pass over the nodes, preserving each row's order (the
	// builder and the store both keep rows sorted by target node, which the
	// kernels and the generic operators rely on for determinism).
	rowOff := make([]int32, nodes+1)
	adj := make([]network.Neighbor, 0, 2*g.NumEdges())
	for n := 0; n < nodes; n++ {
		row, err := g.Neighbors(network.NodeID(n))
		if err != nil {
			return nil, fmt.Errorf("csr: compiling adjacency of node %d: %w", n, err)
		}
		adj = append(adj, row...)
		rowOff[n+1] = int32(len(adj))
	}
	if len(adj) != 2*g.NumEdges() {
		return nil, fmt.Errorf("csr: adjacency holds %d half-edges for %d edges", len(adj), g.NumEdges())
	}

	// Point groups and buckets: one sequential scan, checking the §4.1
	// invariant as it goes.
	groups := make([]network.PointGroup, 0, g.NumGroups())
	pos := make([]float64, points)
	grp := make([]int32, points)
	next := network.PointID(0)
	err := g.ScanGroups(func(gid network.GroupID, pg network.PointGroup, offsets []float64) error {
		if network.GroupID(len(groups)) != gid || pg.First != next || int(pg.Count) != len(offsets) || int(next)+len(offsets) > points {
			return groupError(int(gid), pg, next)
		}
		groups = append(groups, pg)
		copy(pos[pg.First:], offsets)
		for i := int32(0); i < pg.Count; i++ {
			grp[int32(pg.First)+i] = int32(gid)
		}
		next += network.PointID(pg.Count)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if int(next) != points {
		return nil, fmt.Errorf("csr: point groups cover %d of %d points", next, points)
	}

	// Tags: through the flat accessor when the source has one, falling back
	// to per-point record resolution.
	tags := make([]int32, points)
	if ts, ok := g.(tagSource); ok {
		for p := range tags {
			tags[p] = ts.Tag(network.PointID(p))
		}
	} else {
		for p := range tags {
			pi, err := g.PointInfo(network.PointID(p))
			if err != nil {
				return nil, fmt.Errorf("csr: resolving tag of point %d: %w", p, err)
			}
			tags[p] = pi.Tag
		}
	}

	// Planar embedding, when the source carries one.
	var coords []network.Coord
	if cg, ok := g.(coordSource); ok && cg.HasCoords() {
		coords = make([]network.Coord, nodes)
		for n := range coords {
			coords[n] = cg.Coord(network.NodeID(n))
		}
	}
	return network.FromColumns(rowOff, adj, groups, pos, grp, tags, coords), nil
}

// Derive returns a snapshot of s's network that holds another point set, in
// the §4.1 layout Compile emits: groups in ascending edge-key order, their
// points bucketed in ptPos with tags in ptTag and group IDs in ptGrp. adj is
// s's adjacency with its group references renumbered to the new groups, or
// nil when s's still apply because the same edges carry points. The result
// takes ownership of the slices it is handed and shares everything else with
// s: row offsets, embedding, Δ unit and kernel pools. It is therefore what
// Compile would build from the same content, and a live overlay derives one
// per write batch from its base. (A function, not a method, so that it stays
// out of the public Snapshot alias.)
func Derive(s *Snapshot, groups []network.PointGroup, ptPos []float64, ptTag, ptGrp []int32, adj []network.Neighbor) *Snapshot {
	if adj == nil {
		adj = s.adj
	}
	d := newSnapshot(network.FromColumns(s.rowOff, adj, groups, ptPos, ptGrp, ptTag, s.coords), s.pools)
	d.invDelta = s.invDelta
	return d
}

// Columns returns s's flat arrays: the adjacency, every row in node order,
// and the point columns indexed by PointID (offsets, group IDs, tags). They
// alias the snapshot and must not be modified. A live overlay copies runs of
// them into the snapshots it derives. (A function, not a method, for the
// same reason as Derive.)
func Columns(s *Snapshot) (adj []network.Neighbor, pos []float64, grp, tag []int32) {
	return s.adj, s.ptPos, s.ptGrp, s.ptTag
}

// invMeanWeight is the reciprocal of the mean edge weight, the unit the
// Δ-stepping bucket widths are derived from; 0 when there are no edges or the
// reciprocal is not a positive finite number. The mean balances bucket count
// against within-bucket re-processing on road-like weight distributions.
func invMeanWeight(adj []network.Neighbor) float64 {
	if len(adj) == 0 {
		return 0
	}
	var sum float64
	for _, nb := range adj {
		sum += nb.Weight
	}
	inv := 1 / (sum / float64(len(adj)))
	if !(inv > 0) || math.IsInf(inv, 1) {
		return 0
	}
	return inv
}

// Stats returns the snapshot's shape and footprint.
func (s *Snapshot) Stats() Stats { return s.stats }

func (s *Snapshot) residentBytes() int64 {
	const (
		i32 = 4
		f64 = 8
	)
	var b int64
	b += int64(len(s.rowOff)+len(s.ptGrp)+len(s.ptTag)) * i32
	b += int64(len(s.ptPos)) * f64
	b += int64(len(s.adj)) * int64(unsafe.Sizeof(network.Neighbor{}))
	b += int64(len(s.groups)) * int64(unsafe.Sizeof(network.PointGroup{}))
	b += int64(len(s.coords)) * int64(unsafe.Sizeof(network.Coord{}))
	return b
}
