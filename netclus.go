// Package netclus clusters objects lying on a spatial network under the
// shortest-path (network) distance, implementing Yiu & Mamoulis,
// "Clustering Objects on a Spatial Network", SIGMOD 2004.
//
// A spatial network is an undirected weighted graph; objects (points) sit at
// arbitrary positions on its edges, and the dissimilarity between two
// objects is the length of the shortest path between them over the network —
// not their Euclidean distance. The package provides:
//
//   - the network data model with an in-memory implementation (Builder /
//     Network) and a disk-based one with the paper's §4.1 storage
//     architecture (BuildStore / OpenStore: flat adjacency and point-group
//     files indexed by B+-trees behind a 1 MB LRU buffer);
//   - three clustering paradigms adapted to network distance: partitioning
//     (KMedoids, with the Fig. 4 concurrent expansion and Fig. 5 incremental
//     medoid replacement), density-based (EpsLink and a network DBSCAN), and
//     hierarchical (SingleLink, producing an exact single-link Dendrogram
//     with the δ scalability heuristic and §5.3 interesting-level hints);
//   - network operators: multi-source Dijkstra, point-to-point distance,
//     ε-range queries; §6 extensions (Reweight for time-dependent or
//     alternative weights, Combine for multi-network clustering through
//     transition edges);
//   - the paper's synthetic workload generators, external quality indices
//     (ARI, NMI, purity), and an SVG renderer for Figure 11-style maps.
//
// Quick start:
//
//	b := netclus.NewBuilder()
//	n0 := b.AddNode(netclus.Coord{X: 0, Y: 0})
//	n1 := b.AddNode(netclus.Coord{X: 1, Y: 0})
//	b.AddEdge(n0, n1, 1.0)
//	b.AddPoint(n0, n1, 0.25, 0)
//	b.AddPoint(n0, n1, 0.40, 0)
//	net, err := b.Build()
//	...
//	res, err := netclus.EpsLink(net, netclus.EpsLinkOptions{Eps: 0.2})
//	// res.Labels[p] is the cluster of point p, netclus.Noise for outliers.
//
// All clustering functions accept the Graph interface, so they run
// identically over an in-memory Network or a disk Store. See DESIGN.md for
// the system inventory and EXPERIMENTS.md for the paper-reproduction index.
package netclus

import (
	"context"
	"io"
	"os"

	"netclus/internal/core"
	"netclus/internal/csr"
	"netclus/internal/delta"
	"netclus/internal/lbound"
	"netclus/internal/network"
	"netclus/internal/pagebuf"
	"netclus/internal/shard"
	"netclus/internal/storage"
	"netclus/internal/viz"
)

// Core data model (see internal/network).
type (
	// NodeID identifies a network node; IDs are dense in [0, NumNodes).
	NodeID = network.NodeID
	// PointID identifies an object on the network; points on the same edge
	// have sequential IDs in ascending offset order.
	PointID = network.PointID
	// GroupID identifies the point group (all points of one edge).
	GroupID = network.GroupID
	// Coord is an optional planar embedding of a node.
	Coord = network.Coord
	// Neighbor is one adjacency-list entry.
	Neighbor = network.Neighbor
	// PointInfo is a resolved point position.
	PointInfo = network.PointInfo
	// PointGroup describes the points of one edge.
	PointGroup = network.PointGroup
	// Graph is the access interface all clustering algorithms use.
	Graph = network.Graph
	// Network is the in-memory Graph implementation.
	Network = network.Network
	// Builder assembles a Network.
	Builder = network.Builder
	// Seed is a multi-source traversal seed.
	Seed = network.Seed
	// Transition joins two networks at a pair of nodes (§6).
	Transition = network.Transition
	// WeightFunc rewrites edge weights (§6).
	WeightFunc = network.WeightFunc
)

// NoGroup marks an edge without points.
const NoGroup = network.NoGroup

// NewBuilder returns an empty network builder.
func NewBuilder() *Builder { return network.NewBuilder() }

// ReadNetwork parses the text interchange formats (see internal/network).
func ReadNetwork(nodes, edges, points io.Reader) (*Network, error) {
	return network.ReadNetwork(nodes, edges, points)
}

// WriteNetwork writes a network in the text interchange formats.
func WriteNetwork(n *Network, nodes, edges, points io.Writer) error {
	return network.WriteNetwork(n, nodes, edges, points)
}

// LoadNetworkFiles reads the network stored as <prefix>.node, <prefix>.edge
// and — when withPoints is set — <prefix>.pnt, the layout written by the
// netclus CLI. It is the file-system front end of ReadNetwork shared by the
// command-line tools and the netclusd dataset registry.
func LoadNetworkFiles(prefix string, withPoints bool) (*Network, error) {
	nodes, err := os.Open(prefix + ".node")
	if err != nil {
		return nil, err
	}
	defer nodes.Close()
	edges, err := os.Open(prefix + ".edge")
	if err != nil {
		return nil, err
	}
	defer edges.Close()
	if !withPoints {
		return network.ReadNetwork(nodes, edges, nil)
	}
	pts, err := os.Open(prefix + ".pnt")
	if err != nil {
		return nil, err
	}
	defer pts.Close()
	return network.ReadNetwork(nodes, edges, pts)
}

// PointDistance computes the network distance d(p, q) of Definition 4.
func PointDistance(g Graph, p, q PointID) (float64, error) {
	return network.PointDistance(g, p, q)
}

// PointDistanceCtx is PointDistance with cancellation: the traversal checks
// ctx periodically and returns an error wrapping ctx.Err() when it is done.
func PointDistanceCtx(ctx context.Context, g Graph, p, q PointID) (float64, error) {
	return network.PointDistanceCtx(ctx, g, p, q)
}

// NodeDistances runs Dijkstra from src and returns every node's distance.
func NodeDistances(g Graph, src NodeID) ([]float64, error) {
	return network.NodeDistances(g, src)
}

// NodeDistancesFrom runs a multi-source Dijkstra from the given seeds.
func NodeDistancesFrom(g Graph, seeds []Seed) ([]float64, error) {
	return network.NodeDistancesFrom(g, seeds)
}

// RangeScratch amortizes the state of repeated ε-range queries.
type RangeScratch = network.RangeScratch

// NewRangeScratch allocates range-query scratch for g.
func NewRangeScratch(g Graph) *RangeScratch { return network.NewRangeScratch(g) }

// NewRangeScratchSize allocates range-query scratch for any graph of up to
// the given node and point counts; capacity beyond the queried graph's is
// inert. For callers whose graph grows between queries, like a live view.
func NewRangeScratchSize(nodes, points int) *RangeScratch {
	return network.NewRangeScratchSize(nodes, points)
}

// RangeQuerier is the backend-neutral ε-range query surface: the generic
// RangeScratch and the compiled Snapshot's kernel scratch both satisfy it.
type RangeQuerier = network.RangeQuerier

// ScratchFor returns the fastest range-query scratch for g: the flat-array
// kernel scratch when g is a compiled Snapshot or a LiveView's graph, the
// generic RangeScratch otherwise. Results are identical either way.
func ScratchFor(g Graph) RangeQuerier { return network.ScratchFor(g) }

// Snapshot is an immutable compiled form of a network: int32 CSR adjacency
// with inlined weights and position-sorted per-edge point buckets, built
// once with Compile / CompileStore. It implements Graph, so every clustering
// function and network operator accepts it unchanged and produces
// byte-identical labels — but traversals run on flat arrays with
// epoch-stamped scratch, typically several times faster than the pointer
// Network and an order of magnitude faster than the cold Store. Any number
// of goroutines may query one snapshot concurrently.
type Snapshot = csr.Snapshot

// CSRStats describes a compiled snapshot: cardinalities, compile time and
// resident bytes.
type CSRStats = csr.Stats

// KNNBatch is a reusable multi-query kNN runner over one Snapshot in
// structure-of-arrays layout: queries accumulate via Add, Run answers them
// all in one cache-friendly sweep (optionally fanned across workers), and
// Results hands each answer back without copying. Obtain one with
// Snapshot.NewKNNBatch; every query is answered exactly like a lone
// KNearestNeighbors call. It is kept only because benchmark/layers.go
// compiles against it; ROADMAP item 1 (A) removes it.
type KNNBatch = csr.KNNBatch

// Compile builds a Snapshot from any Graph (typically an in-memory
// Network). The source is not retained; node coordinates are carried over
// when the source has them, so Euclidean bounds (BuildBounds) keep working
// on the snapshot.
func Compile(g Graph) (*Snapshot, error) { return csr.Compile(g) }

// CompileStore builds a Snapshot from an open disk Store — a hot in-memory
// replica whose queries bypass the page buffer entirely. The Store carries
// no planar embedding, so the snapshot reports HasCoords() == false and
// BuildBounds falls back to landmark-only bounds.
func CompileStore(st *Store) (*Snapshot, error) { return csr.Compile(st) }

// PointDist pairs a point with its network distance from a query point.
type PointDist = network.PointDist

// KNearestNeighbors returns p's k closest points by network distance.
func KNearestNeighbors(g Graph, p PointID, k int) ([]PointDist, error) {
	return network.KNearestNeighbors(g, p, k)
}

// KNearestNeighborsCtx is KNearestNeighbors with cancellation.
func KNearestNeighborsCtx(ctx context.Context, g Graph, p PointID, k int) ([]PointDist, error) {
	return network.KNearestNeighborsCtx(ctx, g, p, k)
}

// NearestNeighbor returns p's single closest point by network distance.
func NearestNeighbor(g Graph, p PointID) (PointDist, error) {
	return network.NearestNeighbor(g, p)
}

// Lower-bound pruning (see internal/lbound): landmark (ALT) distance tables
// plus, on validated planar embeddings, the Euclidean filter-and-refine
// discipline. Build bounds once per network with BuildBounds, then pass them
// through DBSCANOptions.Prune / KMedoidsOptions.Prune, RangeScratch's
// SetBounder, or the *Pruned query entry points. Results are identical to
// the unpruned paths; ClusterStats.Prune reports the saved work.
type (
	// Bounds is an immutable bound provider, safe for concurrent use.
	Bounds = lbound.Bounds
	// BoundsOptions configures BuildBounds (landmark count, Euclidean
	// validation, build parallelism).
	BoundsOptions = lbound.Options
	// BoundsStats describes a finished preprocessing pass (landmarks,
	// build time, table memory).
	BoundsStats = lbound.BuildStats
	// Bounder is the pruning interface the traversal operators consume;
	// *Bounds implements it.
	Bounder = network.Bounder
	// PruneStats counts the work saved by lower-bound pruning.
	PruneStats = network.PruneStats
)

// DefaultLandmarks is the landmark count used when BoundsOptions.Landmarks
// is 0.
const DefaultLandmarks = lbound.DefaultLandmarks

// BuildBounds failure modes callers may want to fall back from (e.g. retry
// without EuclideanLB when the graph carries no embedding).
var (
	ErrBoundsNoCoords     = lbound.ErrNoCoords
	ErrBoundsNotEuclidean = lbound.ErrNotEuclidean
)

// BuildBounds precomputes distance bounds for g: landmark tables selected by
// the farthest-point heuristic and, when opts.EuclideanLB is set on a graph
// with a planar embedding whose edge weights are at least the straight-line
// endpoint distances, the Euclidean candidate filter.
func BuildBounds(g Graph, opts BoundsOptions) (*Bounds, error) {
	return lbound.Build(g, opts)
}

// BuildBoundsCtx is BuildBounds with cancellation: once ctx is done the build
// stops within a few hundred graph reads and returns an error wrapping
// ctx.Err().
func BuildBoundsCtx(ctx context.Context, g Graph, opts BoundsOptions) (*Bounds, error) {
	return lbound.BuildCtx(ctx, g, opts)
}

// KNearestNeighborsPruned is KNearestNeighbors over the filter-and-refine
// path: identical results, with Euclidean candidate streaming, lower-bound
// rejection and goal-directed refinement. stats may be nil.
func KNearestNeighborsPruned(g Graph, b Bounder, p PointID, k int, stats *PruneStats) ([]PointDist, error) {
	return network.KNearestNeighborsPruned(g, b, p, k, stats)
}

// KNearestNeighborsPrunedCtx is KNearestNeighborsPruned with cancellation.
func KNearestNeighborsPrunedCtx(ctx context.Context, g Graph, b Bounder, p PointID, k int, stats *PruneStats) ([]PointDist, error) {
	return network.KNearestNeighborsPrunedCtx(ctx, g, b, p, k, stats)
}

// NearestNeighborPruned is NearestNeighbor over the filter-and-refine path.
func NearestNeighborPruned(g Graph, b Bounder, p PointID, stats *PruneStats) (PointDist, error) {
	return network.NearestNeighborPruned(g, b, p, stats)
}

// Reweight derives a network with every edge weight mapped through f —
// the §6 mechanism for travel-time, cost or time-of-day snapshots.
func Reweight(n *Network, f WeightFunc) (*Network, error) { return network.Reweight(n, f) }

// Combine merges two networks joined by transition edges (§6); the second
// network's nodes are renumbered by the returned offset.
func Combine(a, b *Network, transitions []Transition) (*Network, NodeID, error) {
	return network.Combine(a, b, transitions)
}

// LargestComponent extracts the largest connected component.
func LargestComponent(n *Network) (*Network, error) { return network.LargestComponent(n) }

// ExtractConnectedFraction grows a connected subnetwork covering the given
// fraction of nodes (the Figure 14 experiment's subnetwork derivation).
func ExtractConnectedFraction(n *Network, start NodeID, frac float64) (*Network, error) {
	return network.ExtractConnectedFraction(n, start, frac)
}

// Clustering algorithms (see internal/core).
type (
	// KMedoidsOptions configures the §4.2 partitioning algorithm.
	KMedoidsOptions = core.KMedoidsOptions
	// KMedoidsResult is its outcome.
	KMedoidsResult = core.KMedoidsResult
	// EpsLinkOptions configures the §4.3 ε-Link algorithm.
	EpsLinkOptions = core.EpsLinkOptions
	// EpsLinkResult is its outcome.
	EpsLinkResult = core.EpsLinkResult
	// DBSCANOptions configures the network DBSCAN adaptation.
	DBSCANOptions = core.DBSCANOptions
	// DBSCANResult is its outcome.
	DBSCANResult = core.DBSCANResult
	// SingleLinkOptions configures the §4.4 hierarchical algorithm.
	SingleLinkOptions = core.SingleLinkOptions
	// SingleLinkResult is its outcome.
	SingleLinkResult = core.SingleLinkResult
	// OPTICSOptions configures the OPTICS cluster-ordering extension.
	OPTICSOptions = core.OPTICSOptions
	// OPTICSResult is its outcome (ordering + reachability plot).
	OPTICSResult = core.OPTICSResult
	// RepLinkOptions configures representative-based complete/average
	// linkage (the paper's §7 future work).
	RepLinkOptions = core.RepLinkOptions
	// RepLinkResult is its outcome.
	RepLinkResult = core.RepLinkResult
	// Linkage selects RepLink's merge criterion.
	Linkage = core.Linkage
	// Dendrogram is the recorded merge history of SingleLink.
	Dendrogram = core.Dendrogram
	// MergeStep is one agglomeration of the dendrogram.
	MergeStep = core.MergeStep
	// InterestingLevel is a §5.3 dendrogram level hint.
	InterestingLevel = core.InterestingLevel
	// ClusterStats counts the traversal work of an algorithm run.
	ClusterStats = core.Stats
	// TimeWeight is a time-dependent edge weight function (§6).
	TimeWeight = core.TimeWeight
	// TimeSweepOptions configures a time-dependent clustering sweep.
	TimeSweepOptions = core.TimeSweepOptions
	// TimeSweepResult holds the per-instant clusterings and their
	// evolution events.
	TimeSweepResult = core.TimeSweepResult
	// ClusterEvent is one cluster-evolution event between snapshots.
	ClusterEvent = core.ClusterEvent
)

// Cluster-evolution event types (§6 time-parameterized clusters).
const (
	EventStable    = core.EventStable
	EventSplit     = core.EventSplit
	EventMerge     = core.EventMerge
	EventAppear    = core.EventAppear
	EventDisappear = core.EventDisappear
)

// TimeSweep clusters the objects at several instants of a time-dependent
// network and tracks cluster evolution (§6's time-parameterized clusters).
func TimeSweep(base *Network, opts TimeSweepOptions) (*TimeSweepResult, error) {
	return core.TimeSweep(base, opts)
}

// Noise labels points assigned to no cluster.
const Noise = core.Noise

// KMedoids runs the partitioning algorithm of §4.2.
func KMedoids(g Graph, opts KMedoidsOptions) (*KMedoidsResult, error) {
	return core.KMedoids(g, opts)
}

// KMedoidsCtx is KMedoids with cancellation. Restarts run one after another,
// each on its own seed drawn from opts.Rand up front.
func KMedoidsCtx(ctx context.Context, g Graph, opts KMedoidsOptions) (*KMedoidsResult, error) {
	return core.KMedoidsCtx(ctx, g, opts)
}

// EpsLink runs the density-based ε-Link algorithm of §4.3.
func EpsLink(g Graph, opts EpsLinkOptions) (*EpsLinkResult, error) {
	return core.EpsLink(g, opts)
}

// EpsLinkCtx is EpsLink with cancellation. Every backend runs one Fig. 6
// traversal per cluster (the flat port on a compiled snapshot, the generic
// one elsewhere) on the caller's goroutine; opts.Workers changes nothing.
func EpsLinkCtx(ctx context.Context, g Graph, opts EpsLinkOptions) (*EpsLinkResult, error) {
	return core.EpsLinkCtx(ctx, g, opts)
}

// DBSCAN runs the network adaptation of DBSCAN (§4.3).
func DBSCAN(g Graph, opts DBSCANOptions) (*DBSCANResult, error) {
	return core.DBSCAN(g, opts)
}

// DBSCANCtx is DBSCAN with cancellation. Every backend runs the same
// three-pass labeller on the caller's goroutine; opts.Workers changes
// nothing.
func DBSCANCtx(ctx context.Context, g Graph, opts DBSCANOptions) (*DBSCANResult, error) {
	return core.DBSCANCtx(ctx, g, opts)
}

// SingleLink runs the hierarchical algorithm of §4.4.
func SingleLink(g Graph, opts SingleLinkOptions) (*SingleLinkResult, error) {
	return core.SingleLink(g, opts)
}

// SingleLinkCtx is SingleLink with cancellation.
func SingleLinkCtx(ctx context.Context, g Graph, opts SingleLinkOptions) (*SingleLinkResult, error) {
	return core.SingleLinkCtx(ctx, g, opts)
}

// OPTICS computes the density-based cluster ordering under the network
// distance — the paper's cited remedy (§2, [2]) for choosing ε: one run at a
// generous Eps encodes the DBSCAN clustering of every ε' <= Eps, extracted
// with OPTICSResult.ExtractDBSCAN.
func OPTICS(g Graph, opts OPTICSOptions) (*OPTICSResult, error) {
	return core.OPTICS(g, opts)
}

// OPTICSCtx is OPTICS with cancellation. It queries each point's
// neighbourhood when it visits the point, in order; equal reachabilities are
// visited in ascending point ID.
func OPTICSCtx(ctx context.Context, g Graph, opts OPTICSOptions) (*OPTICSResult, error) {
	return core.OPTICSCtx(ctx, g, opts)
}

// RepLink linkage criteria.
const (
	CompleteLinkage = core.CompleteLinkage
	AverageLinkage  = core.AverageLinkage
)

// RepLink runs representative-based agglomerative clustering under the
// network distance (complete or average linkage; §7 future work). With
// MaxReps = 0 it is exact; with a cap and the ε pre-phase it scales.
func RepLink(g Graph, opts RepLinkOptions) (*RepLinkResult, error) {
	return core.RepLink(g, opts)
}

// CountClusters counts distinct non-noise labels.
func CountClusters(labels []int32) int { return core.CountClusters(labels) }

// SuppressSmallClusters relabels clusters below minSup to Noise, in place.
func SuppressSmallClusters(labels []int32, minSup int) []int32 {
	return core.SuppressSmallClusters(labels, minSup)
}

// Disk storage (see internal/storage). StoreOptions covers the paper's
// physical parameters (PageSize, BufferBytes, Layout) plus the decoded-record
// cache knobs: AdjCacheEntries / GroupCacheEntries (cache bounds) and
// DisableRecordCaches (restore the paper's uncached access path). With the
// record caches on, OpenStore also reads the leaf level of each B+-tree once
// into flat uint32 offset tables (4 bytes a node, 8 a group), so a record
// lookup is an array read rather than an index descent, and it refuses an
// index whose leaf level no BuildStore writes (a "corrupt record" error).
type StoreOptions = storage.Options

// Store is the disk-backed Graph (§4.1 storage architecture).
type Store = storage.Store

// BufferStats reports the buffer pool's cumulative page traffic — hits,
// misses, reads, writes and the derived hit ratio of the store's single LRU
// buffer. Store.BufferStats returns a consistent snapshot at any time, also
// while queries run.
type BufferStats = pagebuf.Stats

// CacheStats reports the decoded-record cache traffic of a Store: hits,
// misses and evictions of the adjacency and group caches (LeafHits and
// LeafMisses are always zero and not serialized). A cache hit answers a read
// without any page access, and a miss finds its record through the offset
// tables without an index descent, so the paper's logical page-access metric
// is BufferStats.LogicalReads of a store opened with DisableRecordCaches.
// Store.CacheStats returns a consistent snapshot at any time.
type CacheStats = storage.CacheStats

// BuildStore materializes n into a store directory.
func BuildStore(dir string, n *Network, opts StoreOptions) error {
	return storage.Build(dir, n, opts)
}

// OpenStore opens a store directory; zero Options give the paper's
// parameters (4 KB pages, 1 MB buffer). A directory in an older on-disk
// format is refused with an error that says to rebuild it (BuildStore).
func OpenStore(dir string, opts StoreOptions) (*Store, error) {
	return storage.Open(dir, opts)
}

// StoreStats is a combined snapshot of every counter family a Store exports:
// buffer-pool traffic and the decoded-record caches. The serving layer samples it per request batch and subtracts
// snapshots to attribute I/O to spans of work; JSON field names are stable
// (see the stats round-trip test).
type StoreStats struct {
	Buffer BufferStats `json:"buffer"`
	Cache  CacheStats  `json:"cache"`
}

// SnapshotStore captures a consistent-enough view of st's counters: each
// family is internally consistent; families are sampled one after another.
func SnapshotStore(st *Store) StoreStats {
	return StoreStats{
		Buffer: st.BufferStats(),
		Cache:  st.CacheStats(),
	}
}

// Sub returns s - o field by field, the counter delta across a span of work.
func (s StoreStats) Sub(o StoreStats) StoreStats {
	return StoreStats{
		Buffer: s.Buffer.Sub(o.Buffer),
		Cache:  s.Cache.Sub(o.Cache),
	}
}

// Durable snapshot persistence (see internal/csr). A compiled Snapshot can be
// written to a versioned, checksummed, page-aligned file and reopened with
// zero store or network reads — the warm-start path of serving replicas.
var (
	// ErrSnapshotMagic reports a file that is not a netclus snapshot.
	ErrSnapshotMagic = csr.ErrSnapshotMagic
	// ErrSnapshotVersion reports an unsupported snapshot format version.
	ErrSnapshotVersion = csr.ErrSnapshotVersion
	// ErrSnapshotChecksum reports snapshot payload corruption.
	ErrSnapshotChecksum = csr.ErrSnapshotChecksum
	// ErrSnapshotCorrupt reports a structurally invalid snapshot.
	ErrSnapshotCorrupt = csr.ErrSnapshotCorrupt
)

// WriteSnapshotFile persists a compiled snapshot to path (atomic rename).
func WriteSnapshotFile(s *Snapshot, path string) error {
	return csr.WriteSnapshotFile(s, path)
}

// OpenSnapshot loads a snapshot file written by WriteSnapshotFile. The load
// validates magic, version and checksum and re-checks every structural
// invariant; failures return typed ErrSnapshot* errors, never a panic.
func OpenSnapshot(path string) (*Snapshot, error) { return csr.OpenSnapshot(path) }

// IsSnapshotFile reports whether path begins with the snapshot magic.
func IsSnapshotFile(path string) bool { return csr.IsSnapshotFile(path) }

// Sharded sets (see internal/shard). A ShardedSet partitions a network into
// K connected subnetworks, each compiled to its own CSR snapshot and saved as
// its own file, plus an explicit cut-edge table. It is a plain Graph over one
// global adjacency: every algorithm runs on it through the generic paths,
// with results byte-identical to a single compiled Snapshot of the whole
// network.
type (
	// ShardedSet is a partitioned network with per-shard snapshot files.
	ShardedSet = shard.Set
	// ShardedSetStats describes a built set: global cardinalities, cut
	// tables and per-shard sizes.
	ShardedSetStats = shard.Stats
	// CutEdge is a network edge whose endpoints live in different shards.
	CutEdge = shard.CutEdge
)

// PartitionNetwork cuts g into k connected shards (multi-seed balloon
// growth over farthest-first seeds) and builds the sharded set.
func PartitionNetwork(g Graph, k int) (*ShardedSet, error) { return shard.Partition(g, k) }

// BuildShardedSet builds the sharded set from an explicit
// node-to-shard assignment (len NumNodes, values in [0, k)).
func BuildShardedSet(g Graph, assign []int32, k int) (*ShardedSet, error) {
	return shard.Build(g, assign, k)
}

// SaveShardedSet persists a sharded set to a directory: one snapshot file
// per shard plus a checksummed partition plan.
func SaveShardedSet(s *ShardedSet, dir string) error { return shard.Save(s, dir) }

// OpenShardedSet reloads a directory written by SaveShardedSet with zero
// store reads; every file is checksum- and invariant-verified.
func OpenShardedSet(dir string) (*ShardedSet, error) { return shard.Open(dir) }

// IsShardedSetDir reports whether dir holds a saved sharded set.
func IsShardedSetDir(dir string) bool { return shard.IsSetDir(dir) }

// RenderSVG draws the network and a clustering to w as SVG.
func RenderSVG(w io.Writer, n *Network, labels []int32, opts RenderOptions) error {
	return viz.Render(w, n, labels, opts)
}

// RenderOptions configure RenderSVG.
type RenderOptions = viz.Options

// --- Live mutable overlays (internal/delta): the write path. -------------

// LiveOverlay is an epoch-versioned mutable overlay over an immutable base
// graph: point insert/move/delete batches land in one write queue, a
// reconciler applies them atomically in arrival order and publishes frozen
// views — each a snapshot derived from the one before it, served by the flat
// kernels. See DESIGN.md §13.
type LiveOverlay = delta.Overlay

// LiveOptions configure a LiveOverlay.
type LiveOptions = delta.Options

// LiveClusterOptions enable incrementally maintained ε-Link/DBSCAN labels.
type LiveClusterOptions = delta.LiveOptions

// LiveOp is one point mutation in a batch.
type LiveOp = delta.Op

// LiveResult reports the epoch and point count a committed batch produced.
type LiveResult = delta.Result

// LiveView is one published read view of a LiveOverlay.
type LiveView = delta.Current

// LiveStats snapshots a LiveOverlay's write-path counters.
type LiveStats = delta.Stats

// ErrLiveClosed reports a mutation against a closed overlay.
var ErrLiveClosed = delta.ErrClosed

// NewLiveOverlay wraps base (a Network or Snapshot; store readers are not
// supported) in a mutable overlay. A base that is not a Snapshot is compiled
// once, here.
func NewLiveOverlay(base Graph, opts LiveOptions) (*LiveOverlay, error) {
	return delta.New(base, opts)
}

// Mutation constructors, re-exported for writers.
var (
	LiveInsert     = delta.Insert
	LiveInsertNear = delta.InsertNear
	LiveMove       = delta.Move
	LiveMoveSame   = delta.MoveSame
	LiveDelete     = delta.Delete
)
