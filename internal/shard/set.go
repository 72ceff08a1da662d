package shard

import (
	"fmt"
	"slices"
	"unsafe"

	"netclus/internal/csr"
	"netclus/internal/network"
)

// CutEdge is an edge whose endpoints live in different shards. U < V, and
// Group is the point group lying on the edge (NoGroup when empty) — cut
// groups belong to no shard and are kept in the plan's global tables only.
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

// Counters is what Set.Counters returns.
type Counters struct {
	Queries, Rounds, Fanout int64
}

// Set is a spatial network cut into K shards: a node partition, one
// csr.Snapshot per shard (what Save writes as the per-shard .ncs files), the
// cut-edge table and the global↔local ID maps, and one global adjacency
// rebuilt from the shard rows and the cut edges. A Set is a plain
// network.Graph over the global ID space, so every algorithm and the serving
// layer run on it through their generic paths, with results byte-identical
// to one snapshot of the whole network.
type Set struct {
	k        int
	shards   []*csr.Snapshot
	numEdges int // global undirected edge count, cut edges included

	// Node maps. nodeShard/nodeLocal are indexed by global node ID;
	// nodeGlobal[s][local] inverts them. Local IDs ascend with global IDs
	// inside each shard, so a translated shard row stays sorted by target.
	nodeShard  []int32
	nodeLocal  []int32
	nodeGlobal [][]int32

	// Global point-group tables, the same §4.1 layout a csr.Snapshot keeps,
	// so the Set serves the network.Graph contract without consulting any
	// shard.
	groups []network.PointGroup
	ptPos  []float64
	ptGrp  []int32
	ptTag  []int32
	coords []network.Coord

	// Ownership maps. A group (and its points) is owned by shard s iff both
	// its endpoints are; groups on cut edges have groupLocal -1 and only
	// global IDs. Local IDs again ascend with global IDs.
	groupLocal  []int32
	groupGlobal [][]int32
	pointLocal  []int32
	pointGlobal [][]int32

	cutEdges []CutEdge

	// Reconstructed global adjacency (internal rows translated back to
	// global IDs, cut edges merged in, rows sorted by target), so
	// Set.Neighbors serves exactly the rows the original builder produced.
	rowOff []int32
	adjRef []network.Neighbor

	stats Stats
}

var _ network.Graph = (*Set)(nil)

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
	set.groupLocal = make([]int32, len(set.groups))
	set.groupGlobal = make([][]int32, k)
	set.pointLocal = make([]int32, len(set.ptPos))
	set.pointGlobal = make([][]int32, k)
	for g := range set.groups {
		pg := &set.groups[g]
		s := set.nodeShard[pg.N1]
		if s != set.nodeShard[pg.N2] {
			// A cut group: no shard owns it or its points.
			set.groupLocal[g] = -1
			for i := int32(0); i < pg.Count; i++ {
				set.pointLocal[int32(pg.First)+i] = -1
			}
			continue
		}
		set.groupLocal[g] = int32(len(set.groupGlobal[s]))
		set.groupGlobal[s] = append(set.groupGlobal[s], int32(g))
		for i := int32(0); i < pg.Count; i++ {
			p := int32(pg.First) + i
			set.pointLocal[p] = int32(len(set.pointGlobal[s]))
			set.pointGlobal[s] = append(set.pointGlobal[s], p)
		}
	}
}

// assemble builds what Build and Open share: the global adjacency, rebuilt
// from the shard rows and the cut edges, and the stats.
func (set *Set) assemble() error {
	k, nodes := set.k, len(set.nodeShard)

	// The cut edges incident to node n are cutEdges[cutAdj[i]] for i in
	// [cutOff[n], cutOff[n+1]); a node with any is a boundary node.
	cutOff := make([]int32, nodes+1)
	for i := range set.cutEdges {
		ce := &set.cutEdges[i]
		cutOff[ce.U+1]++
		cutOff[ce.V+1]++
	}
	boundary := make([]int, k)
	for n := 0; n < nodes; n++ {
		if cutOff[n+1] > 0 {
			boundary[set.nodeShard[n]]++
		}
		cutOff[n+1] += cutOff[n]
	}
	cutAdj := make([]int32, cutOff[nodes])
	fill := append([]int32(nil), cutOff[:nodes]...)
	for i := range set.cutEdges {
		ce := &set.cutEdges[i]
		cutAdj[fill[ce.U]] = int32(i)
		fill[ce.U]++
		cutAdj[fill[ce.V]] = int32(i)
		fill[ce.V]++
	}

	// Each node's internal row translated back to global IDs plus its cut
	// edges, sorted by target. Targets are unique per row, so the sorted row
	// is exactly the builder's.
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
		for _, i := range cutAdj[cutOff[n]:cutOff[n+1]] {
			ce := &set.cutEdges[i]
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

	st := Stats{
		Shards: k, Nodes: nodes, Edges: set.numEdges,
		Points: len(set.ptPos), Groups: len(set.groups),
		CutEdges: len(set.cutEdges),
		PerShard: make([]ShardStats, k),
	}
	for g, l := range set.groupLocal {
		if l < 0 {
			st.CutGroups++
			st.CutPoints += int(set.groups[g].Count)
		}
	}
	for s := 0; s < k; s++ {
		ss := set.shards[s].Stats()
		st.PerShard[s] = ShardStats{
			Nodes: ss.Nodes, Edges: ss.Edges, Points: ss.Points,
			Boundary:      boundary[s],
			ResidentBytes: ss.ResidentBytes,
		}
		st.BoundaryNodes += boundary[s]
		// The shard's snapshot and its local→global ID lists.
		st.ResidentBytes += ss.ResidentBytes +
			4*int64(len(set.nodeGlobal[s])+len(set.groupGlobal[s])+len(set.pointGlobal[s]))
	}
	// Global tables; a point costs 20 B (ptPos, ptGrp, ptTag, pointLocal).
	groups := len(set.groups)
	st.ResidentBytes += int64(len(set.adjRef))*int64(unsafe.Sizeof(network.Neighbor{})) + int64(len(set.cutEdges))*int64(unsafe.Sizeof(CutEdge{}))
	st.ResidentBytes += int64(groups)*int64(unsafe.Sizeof(network.PointGroup{})) + int64(len(set.coords))*int64(unsafe.Sizeof(network.Coord{}))
	st.ResidentBytes += 4*int64(len(set.rowOff)+2*nodes+groups) + 20*int64(len(set.ptPos))
	set.stats = st
	return nil
}

// Stats returns the set's shape and footprint.
func (set *Set) Stats() Stats { return set.stats }

// Counters returns zero: a set answers every query through the generic
// paths over its global adjacency, so there are no scatter-gather rounds to
// count. It is kept only because benchmark/layers.go compiles against it;
// ROADMAP item 1 (A) removes it together with the probes that read it.
func (set *Set) Counters() Counters { return Counters{} }

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
