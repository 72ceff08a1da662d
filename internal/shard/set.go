package shard

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"netclus/internal/csr"
	"netclus/internal/network"
)

// CutEdge is an edge whose endpoints live in different shards. U < V, and
// Group is the point group lying on the edge (NoGroup when empty) — cut
// groups belong to no shard and are collected by the executor directly.
type CutEdge struct {
	U, V   network.NodeID
	Weight float64
	Group  network.GroupID
}

// ShardStats describes one member snapshot of a Set.
type ShardStats struct {
	Nodes         int   `json:"nodes"`
	Edges         int   `json:"edges"` // internal edges only
	Points        int   `json:"points"`
	Boundary      int   `json:"boundary_nodes"`
	ResidentBytes int64 `json:"resident_bytes"`
}

// Stats describes a whole sharded set.
type Stats struct {
	Shards        int          `json:"shards"`
	Nodes         int          `json:"nodes"`
	Edges         int          `json:"edges"`
	Points        int          `json:"points"`
	Groups        int          `json:"groups"`
	CutEdges      int          `json:"cut_edges"`
	CutGroups     int          `json:"cut_groups"`
	CutPoints     int          `json:"cut_points"`
	BoundaryNodes int          `json:"boundary_nodes"`
	ResidentBytes int64        `json:"resident_bytes"`
	PerShard      []ShardStats `json:"per_shard"`
}

// Counters is a point-in-time read of a Set's serving counters.
type Counters struct {
	Queries int64 `json:"queries"`
	// Rounds is the total number of scatter-gather rounds across queries.
	Rounds int64 `json:"rounds"`
	// Fanout is the total number of per-shard kernel runs dispatched.
	Fanout int64 `json:"fanout"`
	// CritNs is the modeled critical-path time: per round, the executor's
	// own (non-kernel) wall time plus the slowest shard run of the round —
	// what the query would cost with one core per shard.
	CritNs int64 `json:"crit_ns"`
	// WallNs is the actual wall time spent in scatter-gather rounds.
	WallNs   int64           `json:"wall_ns"`
	PerShard []ShardCounters `json:"per_shard"`
}

// ShardCounters is the per-shard slice of Counters.
type ShardCounters struct {
	LocalRuns int64 `json:"local_runs"`
	BusyNs    int64 `json:"busy_ns"`
}

// Set is a spatial network cut into K shards, each compiled to its own
// csr.Snapshot, plus the cut-edge and boundary tables and the global↔local
// ID maps the scatter-gather executor stitches exact answers with. A Set
// implements network.Graph over the *global* ID space — and the kernel
// dispatch contracts ScratchProvider, KNNQuerier, NearestExpander and
// MedoidAssigner — so clustering algorithms and the serving layer run on it
// unchanged, with results byte-identical to one snapshot of the whole
// network.
type Set struct {
	k        int
	shards   []*csr.Snapshot
	numEdges int // global undirected edge count, cut edges included

	// Node maps. nodeShard/nodeLocal are indexed by global node ID;
	// nodeGlobal[s][local] inverts them. Local IDs ascend with global IDs
	// inside each shard, which keeps every per-shard lexicographic
	// (dist, pointID) order equal to the global one — the property the
	// exact top-k merge rests on.
	nodeShard  []int32
	nodeLocal  []int32
	nodeGlobal [][]int32

	// Global point-group tables, the same §4.1 layout a csr.Snapshot keeps,
	// so the Set can serve the network.Graph contract (and the executor can
	// scan cut groups) without consulting any shard.
	groups []network.PointGroup
	ptPos  []float64
	ptGrp  []int32
	ptTag  []int32
	coords []network.Coord

	// Ownership maps. A group (and its points) is owned by shard s iff both
	// its endpoints are; groups on cut edges have shard -1 and only global
	// IDs. Local IDs again ascend with global IDs.
	groupShard  []int32
	groupLocal  []int32
	groupGlobal [][]int32
	pointShard  []int32
	pointLocal  []int32
	pointGlobal [][]int32
	// cutPts lists the points of cut groups in ascending ID order — the
	// points no shard owns, which the fused clustering passes always send
	// through the global executor.
	cutPts []network.PointID

	// Cut edges, plus a CSR index over them by global endpoint: the cut
	// edges incident to node n are cutEdges[cutAdj[i]] for i in
	// [cutOff[n], cutOff[n+1]).
	cutEdges []CutEdge
	cutOff   []int32
	cutAdj   []int32

	// boundary[s] flags (by local ID) the nodes of shard s with a cut edge;
	// bList[s] lists them in ascending local order. These are the watch
	// masks of the seeded kernels and the executor's stitch set.
	boundary [][]bool
	bList    [][]int32

	// Reconstructed global adjacency (internal rows translated back to
	// global IDs, cut edges merged in, rows sorted by target), so
	// Set.Neighbors serves exactly the rows the original builder produced.
	rowOff []int32
	adjRef []network.Neighbor

	// workers caps the per-round run parallelism of the executor.
	workers int

	queries   atomic.Int64
	rounds    atomic.Int64
	fanout    atomic.Int64
	critNs    atomic.Int64
	wallNs    atomic.Int64
	localRuns []atomic.Int64
	busyNs    []atomic.Int64

	querierPool sync.Pool
	expandPool  sync.Pool

	stats Stats
}

var (
	_ network.Graph           = (*Set)(nil)
	_ network.ScratchProvider = (*Set)(nil)
	_ network.KNNQuerier      = (*Set)(nil)
	_ network.NearestExpander = (*Set)(nil)
	_ network.MedoidAssigner  = (*Set)(nil)
)

// tagSource and coordSource mirror csr's optional Graph extensions.
type tagSource interface{ Tag(network.PointID) int32 }
type coordSource interface {
	Coord(network.NodeID) network.Coord
	HasCoords() bool
}

// Partition cuts g into k shards with PartitionNodes and builds the Set.
func Partition(g network.Graph, k int) (*Set, error) {
	assign, err := PartitionNodes(g, k)
	if err != nil {
		return nil, err
	}
	return Build(g, assign, k)
}

// Build compiles the sharded set for an explicit node assignment (values in
// [0, k), one per node — shards may be empty). The source graph is only
// read; the Set shares no memory with it.
func Build(g network.Graph, assign []int32, k int) (*Set, error) {
	if k < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", k)
	}
	nodes, points, ngroups := g.NumNodes(), g.NumPoints(), g.NumGroups()
	if len(assign) != nodes {
		return nil, fmt.Errorf("shard: assignment covers %d of %d nodes", len(assign), nodes)
	}
	set := &Set{
		k:         k,
		numEdges:  g.NumEdges(),
		nodeShard: append([]int32(nil), assign...),
	}

	// Node maps, local IDs in ascending global order.
	set.nodeLocal = make([]int32, nodes)
	set.nodeGlobal = make([][]int32, k)
	for n, s := range set.nodeShard {
		if s < 0 || int(s) >= k {
			return nil, fmt.Errorf("shard: node %d assigned to shard %d of %d", n, s, k)
		}
		set.nodeLocal[n] = int32(len(set.nodeGlobal[s]))
		set.nodeGlobal[s] = append(set.nodeGlobal[s], int32(n))
	}

	// Global point-group tables, one sequential scan.
	set.groups = make([]network.PointGroup, 0, ngroups)
	set.ptPos = make([]float64, points)
	set.ptGrp = make([]int32, points)
	set.ptTag = make([]int32, points)
	next := network.PointID(0)
	err := g.ScanGroups(func(gid network.GroupID, pg network.PointGroup, offsets []float64) error {
		if network.GroupID(len(set.groups)) != gid || pg.First != next || int(pg.Count) != len(offsets) {
			return fmt.Errorf("shard: group %d violates the point-group invariant", gid)
		}
		set.groups = append(set.groups, pg)
		copy(set.ptPos[pg.First:], offsets)
		for i := int32(0); i < pg.Count; i++ {
			set.ptGrp[int32(pg.First)+i] = int32(gid)
		}
		next += network.PointID(pg.Count)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if int(next) != points {
		return nil, fmt.Errorf("shard: point groups cover %d of %d points", next, points)
	}
	if ts, ok := g.(tagSource); ok {
		for p := range set.ptTag {
			set.ptTag[p] = ts.Tag(network.PointID(p))
		}
	} else {
		for p := range set.ptTag {
			pi, err := g.PointInfo(network.PointID(p))
			if err != nil {
				return nil, fmt.Errorf("shard: resolving tag of point %d: %w", p, err)
			}
			set.ptTag[p] = pi.Tag
		}
	}
	if cg, ok := g.(coordSource); ok && cg.HasCoords() {
		set.coords = make([]network.Coord, nodes)
		for n := range set.coords {
			set.coords[n] = cg.Coord(network.NodeID(n))
		}
	}

	set.buildOwnership()

	// Cut edges and per-shard internal edge counts, one adjacency sweep.
	edges := make([]int, k)
	for n := 0; n < nodes; n++ {
		adj, err := g.Neighbors(network.NodeID(n))
		if err != nil {
			return nil, fmt.Errorf("shard: reading adjacency of node %d: %w", n, err)
		}
		for _, nb := range adj {
			if nb.Node <= network.NodeID(n) {
				continue
			}
			if su, sv := set.nodeShard[n], set.nodeShard[nb.Node]; su == sv {
				edges[su]++
			} else {
				set.cutEdges = append(set.cutEdges, CutEdge{
					U: network.NodeID(n), V: nb.Node, Weight: nb.Weight, Group: nb.Group,
				})
			}
		}
	}

	// Compile each shard through the translating adapter.
	set.shards = make([]*csr.Snapshot, k)
	sub := &subGraph{set: set, g: g}
	for s := 0; s < k; s++ {
		sub.s, sub.edges = s, edges[s]
		sn, err := csr.Compile(sub)
		if err != nil {
			return nil, fmt.Errorf("shard: compiling shard %d: %w", s, err)
		}
		set.shards[s] = sn
	}

	if err := set.assemble(); err != nil {
		return nil, err
	}
	return set, nil
}

// buildOwnership derives the group and point ownership maps from nodeShard
// and the global group tables (also used when loading a saved set).
func (set *Set) buildOwnership() {
	k := set.k
	set.groupShard = make([]int32, len(set.groups))
	set.groupLocal = make([]int32, len(set.groups))
	set.groupGlobal = make([][]int32, k)
	set.pointShard = make([]int32, len(set.ptPos))
	set.pointLocal = make([]int32, len(set.ptPos))
	set.pointGlobal = make([][]int32, k)
	for g := range set.groups {
		pg := &set.groups[g]
		s := set.nodeShard[pg.N1]
		if s != set.nodeShard[pg.N2] {
			s = -1 // a cut group: the executor's, not any shard's
		}
		set.groupShard[g] = s
		if s < 0 {
			set.groupLocal[g] = -1
			for i := int32(0); i < pg.Count; i++ {
				p := int32(pg.First) + i
				set.pointShard[p], set.pointLocal[p] = -1, -1
				set.cutPts = append(set.cutPts, network.PointID(p))
			}
			continue
		}
		set.groupLocal[g] = int32(len(set.groupGlobal[s]))
		set.groupGlobal[s] = append(set.groupGlobal[s], int32(g))
		for i := int32(0); i < pg.Count; i++ {
			p := int32(pg.First) + i
			set.pointShard[p] = s
			set.pointLocal[p] = int32(len(set.pointGlobal[s]))
			set.pointGlobal[s] = append(set.pointGlobal[s], p)
		}
	}
}

// assemble builds the derived serving structures shared by Build and Open:
// the cut-edge CSR index, the boundary masks, the reconstructed global
// adjacency and the stats/counters.
func (set *Set) assemble() error {
	k, nodes := set.k, len(set.nodeShard)

	// Cut-edge CSR index over global nodes.
	set.cutOff = make([]int32, nodes+1)
	for i := range set.cutEdges {
		ce := &set.cutEdges[i]
		set.cutOff[ce.U+1]++
		set.cutOff[ce.V+1]++
	}
	for n := 0; n < nodes; n++ {
		set.cutOff[n+1] += set.cutOff[n]
	}
	set.cutAdj = make([]int32, set.cutOff[nodes])
	fill := append([]int32(nil), set.cutOff[:nodes]...)
	for i := range set.cutEdges {
		ce := &set.cutEdges[i]
		set.cutAdj[fill[ce.U]] = int32(i)
		fill[ce.U]++
		set.cutAdj[fill[ce.V]] = int32(i)
		fill[ce.V]++
	}

	// Boundary masks and lists.
	set.boundary = make([][]bool, k)
	set.bList = make([][]int32, k)
	for s := 0; s < k; s++ {
		set.boundary[s] = make([]bool, len(set.nodeGlobal[s]))
	}
	for i := range set.cutEdges {
		ce := &set.cutEdges[i]
		for _, n := range [2]network.NodeID{ce.U, ce.V} {
			s := set.nodeShard[n]
			set.boundary[s][set.nodeLocal[n]] = true
		}
	}
	for s := 0; s < k; s++ {
		for ln, b := range set.boundary[s] {
			if b {
				set.bList[s] = append(set.bList[s], int32(ln))
			}
		}
	}

	// Reconstruct the global adjacency: each node's internal row translated
	// back to global IDs plus its cut edges, sorted by target. Targets are
	// unique per row, so the sorted row is exactly the builder's.
	set.rowOff = make([]int32, nodes+1)
	set.adjRef = make([]network.Neighbor, 0, 2*set.numEdges)
	for n := 0; n < nodes; n++ {
		s, ln := set.nodeShard[n], set.nodeLocal[n]
		row, err := set.shards[s].Neighbors(network.NodeID(ln))
		if err != nil {
			return fmt.Errorf("shard: reading shard %d adjacency of node %d: %w", s, n, err)
		}
		start := len(set.adjRef)
		for _, nb := range row {
			gg := network.NoGroup
			if nb.Group >= 0 {
				gg = network.GroupID(set.groupGlobal[s][nb.Group])
			}
			set.adjRef = append(set.adjRef, network.Neighbor{
				Node:   network.NodeID(set.nodeGlobal[s][nb.Node]),
				Weight: nb.Weight,
				Group:  gg,
			})
		}
		for i := set.cutOff[n]; i < set.cutOff[n+1]; i++ {
			ce := &set.cutEdges[set.cutAdj[i]]
			other := ce.U
			if other == network.NodeID(n) {
				other = ce.V
			}
			set.adjRef = append(set.adjRef, network.Neighbor{Node: other, Weight: ce.Weight, Group: ce.Group})
		}
		slices.SortFunc(set.adjRef[start:], func(a, b network.Neighbor) int {
			switch {
			case a.Node < b.Node:
				return -1
			case a.Node > b.Node:
				return 1
			}
			return 0
		})
		set.rowOff[n+1] = int32(len(set.adjRef))
	}
	if len(set.adjRef) != 2*set.numEdges {
		return fmt.Errorf("shard: reconstructed adjacency has %d half-edges, want %d", len(set.adjRef), 2*set.numEdges)
	}

	set.workers = min(k, runtime.GOMAXPROCS(0))
	if set.workers < 1 {
		set.workers = 1
	}
	set.localRuns = make([]atomic.Int64, k)
	set.busyNs = make([]atomic.Int64, k)
	set.querierPool = sync.Pool{New: func() any { return newQuerier(set) }}
	set.expandPool = sync.Pool{New: func() any { return newExpandState(set) }}

	st := Stats{
		Shards: k, Nodes: nodes, Edges: set.numEdges,
		Points: len(set.ptPos), Groups: len(set.groups),
		CutEdges: len(set.cutEdges),
		PerShard: make([]ShardStats, k),
	}
	for g, s := range set.groupShard {
		if s < 0 {
			st.CutGroups++
			st.CutPoints += int(set.groups[g].Count)
		}
	}
	for s := 0; s < k; s++ {
		ss := set.shards[s].Stats()
		st.PerShard[s] = ShardStats{
			Nodes: ss.Nodes, Edges: ss.Edges, Points: ss.Points,
			Boundary:      len(set.bList[s]),
			ResidentBytes: ss.ResidentBytes,
		}
		st.BoundaryNodes += len(set.bList[s])
		// The shard's snapshot, its local→global ID lists and boundary mask.
		st.ResidentBytes += ss.ResidentBytes + int64(len(set.boundary[s])) +
			4*int64(len(set.nodeGlobal[s])+len(set.groupGlobal[s])+len(set.pointGlobal[s])+len(set.bList[s]))
	}
	// Global tables; a point costs 24 B (ptPos, ptGrp, ptTag, pointShard/Local).
	groups := len(set.groups)
	st.ResidentBytes += int64(len(set.adjRef))*int64(unsafe.Sizeof(network.Neighbor{})) + int64(len(set.cutEdges))*int64(unsafe.Sizeof(CutEdge{}))
	st.ResidentBytes += int64(groups)*int64(unsafe.Sizeof(network.PointGroup{})) + int64(len(set.coords))*int64(unsafe.Sizeof(network.Coord{}))
	st.ResidentBytes += 4*int64(len(set.rowOff)+len(set.cutOff)+len(set.cutAdj)+len(set.cutPts)+2*nodes+2*groups) + 24*int64(len(set.ptPos))
	set.stats = st
	return nil
}

// Stats returns the set's shape and footprint.
func (set *Set) Stats() Stats { return set.stats }

// Counters returns a point-in-time read of the serving counters.
func (set *Set) Counters() Counters {
	c := Counters{
		Queries: set.queries.Load(),
		Rounds:  set.rounds.Load(),
		Fanout:  set.fanout.Load(),
		CritNs:  set.critNs.Load(),
		WallNs:  set.wallNs.Load(),
	}
	c.PerShard = make([]ShardCounters, set.k)
	for s := range c.PerShard {
		c.PerShard[s] = ShardCounters{LocalRuns: set.localRuns[s].Load(), BusyNs: set.busyNs[s].Load()}
	}
	return c
}

// --- network.Graph over the global ID space ---

// NumNodes returns |V|.
func (set *Set) NumNodes() int { return len(set.nodeShard) }

// NumEdges returns |E|, cut edges included.
func (set *Set) NumEdges() int { return set.numEdges }

// NumPoints returns the number of objects on the network.
func (set *Set) NumPoints() int { return len(set.ptPos) }

// NumGroups returns the number of non-empty point groups.
func (set *Set) NumGroups() int { return len(set.groups) }

// Neighbors returns the adjacency list of n — the exact row the source
// builder produced, reconstructed from the shard rows and the cut edges.
func (set *Set) Neighbors(n network.NodeID) ([]network.Neighbor, error) {
	if n < 0 || int(n) >= len(set.nodeShard) {
		return nil, fmt.Errorf("%w: %d", network.ErrNodeRange, n)
	}
	return set.adjRef[set.rowOff[n]:set.rowOff[n+1]], nil
}

// Group returns the descriptor of group g.
func (set *Set) Group(g network.GroupID) (network.PointGroup, error) {
	if g < 0 || int(g) >= len(set.groups) {
		return network.PointGroup{}, fmt.Errorf("%w: %d", network.ErrGroupRange, g)
	}
	return set.groups[g], nil
}

// GroupOffsets returns the ascending offsets of g's points.
func (set *Set) GroupOffsets(g network.GroupID) ([]float64, error) {
	if g < 0 || int(g) >= len(set.groups) {
		return nil, fmt.Errorf("%w: %d", network.ErrGroupRange, g)
	}
	pg := &set.groups[g]
	return set.ptPos[pg.First : int32(pg.First)+pg.Count], nil
}

// PointInfo resolves a point ID to its position.
func (set *Set) PointInfo(p network.PointID) (network.PointInfo, error) {
	if p < 0 || int(p) >= len(set.ptPos) {
		return network.PointInfo{}, fmt.Errorf("%w: %d", network.ErrPointRange, p)
	}
	pg := &set.groups[set.ptGrp[p]]
	return network.PointInfo{
		Group: network.GroupID(set.ptGrp[p]),
		N1:    pg.N1, N2: pg.N2,
		Pos: set.ptPos[p], Weight: pg.Weight,
		Tag: set.ptTag[p],
	}, nil
}

// ScanGroups iterates all point groups in ascending GroupID order.
func (set *Set) ScanGroups(fn func(g network.GroupID, pg network.PointGroup, offsets []float64) error) error {
	for g := range set.groups {
		pg := set.groups[g]
		if err := fn(network.GroupID(g), pg, set.ptPos[pg.First:int32(pg.First)+pg.Count]); err != nil {
			return err
		}
	}
	return nil
}

// Tag returns the application tag of point p (csr's tagSource extension).
func (set *Set) Tag(p network.PointID) int32 { return set.ptTag[p] }

// Coord returns the planar embedding of node n (zero without coords).
func (set *Set) Coord(n network.NodeID) network.Coord {
	if set.coords == nil {
		return network.Coord{}
	}
	return set.coords[n]
}

// HasCoords reports whether the embedding was carried over.
func (set *Set) HasCoords() bool { return set.coords != nil }
