// Package server is the netclusd serving layer: a dataset registry over the
// netclus engine, HTTP/JSON query handlers for the paper's operators
// (ε-range, kNN, density and partitioning clustering), a weighted-semaphore
// admission controller, and hand-rolled Prometheus metrics wired to the
// engine's buffer/cache/shard/prune counters. See DESIGN.md §8.
package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"netclus"
	"netclus/internal/server/api"
)

// Dataset is one served graph: a disk store or an in-memory network — cold
// ones optionally with prebuilt lower-bound pruning tables — plus the pooled
// per-request query scratch and the counters the serving layer accumulates
// on top of the engine's own.
type Dataset struct {
	// Name is the registry key, the {dataset} segment of the URL space.
	Name string
	// Kind is "store" for disk-backed datasets, "memory" otherwise.
	Kind string
	// Source describes where the dataset came from (directory or file
	// prefix), for /v1/datasets.
	Source string
	// DisableCache exempts this dataset from the server's result cache.
	// Set before Add; registering the same data twice — once cached, once
	// not — gives loadtest an A/B pair on a single process.
	DisableCache bool

	// epoch versions the dataset's contents. Today's datasets are immutable
	// after load, so it stays at 1; the write path bumps it on every visible
	// mutation, which invalidates result-cache entries by key mismatch.
	epoch atomic.Int64

	graph   netclus.Graph
	store   *netclus.Store      // nil for in-memory datasets
	hot     *netclus.Snapshot   // compiled CSR replica; nil unless requested
	sharded *netclus.ShardedSet // scatter-gather set; nil for unsharded datasets
	live    *netclus.LiveOverlay // mutable overlay; nil for immutable datasets
	bounds  *netclus.Bounds
	knnb    *knnBatcher // coalesces kNN requests on hot datasets; wired by New

	// base is the store counter snapshot taken at registration, so /metrics
	// reports deltas attributable to serving rather than to dataset load.
	base netclus.StoreStats

	nodes, edges, points int

	scratch sync.Pool // of *scratchBox

	mu      sync.Mutex
	prune   netclus.PruneStats
	queries int64

	// cstats is this dataset's share of result-cache traffic, for
	// /v1/datasets; the cache-wide counters live on ResultCache.
	cstats cacheCounters
}

// cacheCounters attributes result-cache traffic to one dataset.
type cacheCounters struct {
	hits        atomic.Int64
	misses      atomic.Int64
	containment atomic.Int64
	shared      atomic.Int64
}

// scratchBox pairs pooled range-query scratch with the prune counters already
// harvested from it, so each release folds only the new work into the
// dataset's aggregate.
type scratchBox struct {
	sc        netclus.RangeQuerier
	harvested netclus.PruneStats
}

// NewStoreDataset opens the store under dir as a served dataset. landmarks
// > 0 additionally builds lower-bound pruning tables over it (Euclidean
// filtering when the embedding allows, landmark tables otherwise). hot
// instead compiles the store into a CSR snapshot at registration; queries
// then run on the in-memory replica's kernels and bypass the page buffer
// entirely — the store's serving counters stay at zero — and no pruning
// tables are built (see buildBounds).
func NewStoreDataset(name, dir string, opts netclus.StoreOptions, landmarks int, hot bool) (*Dataset, error) {
	st, err := netclus.OpenStore(dir, opts)
	if err != nil {
		return nil, err
	}
	d := &Dataset{
		Name: name, Kind: "store", Source: dir,
		graph: st, store: st,
		nodes: st.NumNodes(), edges: st.NumEdges(), points: st.NumPoints(),
	}
	d.epoch.Store(1)
	if hot {
		if d.hot, err = netclus.CompileStore(st); err != nil {
			st.Close()
			return nil, fmt.Errorf("dataset %s: compiling hot replica: %w", name, err)
		}
	}
	if err := d.buildBounds(landmarks); err != nil {
		st.Close()
		return nil, err
	}
	// Counters spent loading + preprocessing (including the hot-replica
	// compile, which reads every page once) belong to startup, not serving.
	d.base = netclus.SnapshotStore(st)
	return d, nil
}

// NewNetworkDataset serves the in-memory network n. landmarks as above; hot
// compiles n into a CSR snapshot, so queries run on the flat-array kernels
// and, as above, no pruning tables are built.
func NewNetworkDataset(name, source string, n *netclus.Network, landmarks int, hot bool) (*Dataset, error) {
	d := &Dataset{
		Name: name, Kind: "memory", Source: source,
		graph: n,
		nodes: n.NumNodes(), edges: n.NumEdges(), points: n.NumPoints(),
	}
	d.epoch.Store(1)
	if hot {
		var err error
		if d.hot, err = netclus.Compile(n); err != nil {
			return nil, fmt.Errorf("dataset %s: compiling hot replica: %w", name, err)
		}
	}
	if err := d.buildBounds(landmarks); err != nil {
		return nil, err
	}
	return d, nil
}

// NewSnapshotDataset serves a durable CSR snapshot file directly: the
// decoded snapshot is the graph and the hot replica at once, so the dataset
// boots warm with zero store or network-file reads. Kind is "snapshot".
// landmarks is accepted for call-site uniformity with the other constructors
// and ignored: a snapshot dataset is hot, and hot datasets build no pruning
// tables (see buildBounds).
func NewSnapshotDataset(name, path string, sn *netclus.Snapshot, landmarks int) (*Dataset, error) {
	d := &Dataset{
		Name: name, Kind: "snapshot", Source: path,
		graph: sn, hot: sn,
		nodes: sn.NumNodes(), edges: sn.NumEdges(), points: sn.NumPoints(),
	}
	d.epoch.Store(1)
	if err := d.buildBounds(landmarks); err != nil {
		return nil, err
	}
	return d, nil
}

// NewShardedDataset serves the scatter-gather form of a partitioned network:
// range, kNN and clustering queries fan out across the per-shard CSR
// snapshots and stitch exact answers over the cut edges, byte-identical to a
// single-snapshot dataset over the same network. Kind is "sharded". Pruning
// bounds are not built — the scatter-gather executor is the query path.
func NewShardedDataset(name, source string, set *netclus.ShardedSet) (*Dataset, error) {
	d := &Dataset{
		Name: name, Kind: "sharded", Source: source,
		graph: set, sharded: set,
		nodes: set.NumNodes(), edges: set.NumEdges(), points: set.NumPoints(),
	}
	d.epoch.Store(1)
	return d, nil
}

// NewLiveDataset serves base (a compiled snapshot or in-memory network)
// behind a mutable delta overlay: POST /v1/datasets/{name}/points mutates it,
// reads resolve through the overlay's published views, and every committed
// batch or compaction swap bumps the dataset epoch exactly once — which is
// what strands stale result-cache entries. Kind is "live". Pruning bounds and
// the kNN batcher are not built: both are compiled against one immutable
// point numbering, and a live dataset's changes every epoch.
func NewLiveDataset(name, source string, base netclus.Graph, opts netclus.LiveOptions) (*Dataset, error) {
	d := &Dataset{
		Name: name, Kind: "live", Source: source,
	}
	d.epoch.Store(1)
	// The overlay owns the epoch counter: its reconciler bumps d.epoch as the
	// final step of publishing each view, before the writer is acked, so a
	// client that saw its write commit can never read a stale cached result.
	opts.Bump = d.BumpEpoch
	opts.InitialEpoch = 1
	ov, err := netclus.NewLiveOverlay(base, opts)
	if err != nil {
		return nil, fmt.Errorf("dataset %s: building live overlay: %w", name, err)
	}
	d.live = ov
	d.graph = base
	d.nodes = base.NumNodes()
	d.edges = base.NumEdges()
	d.points = base.NumPoints()
	return d, nil
}

// Sharded returns the dataset's scatter-gather set, nil when unsharded.
func (d *Dataset) Sharded() *netclus.ShardedSet { return d.sharded }

// Live returns the dataset's mutable overlay, nil for immutable datasets.
func (d *Dataset) Live() *netclus.LiveOverlay { return d.live }

// HotSnapshot returns the compiled CSR replica, nil when the dataset is not
// hot — the handle the serve command persists with WriteSnapshotFile.
func (d *Dataset) HotSnapshot() *netclus.Snapshot { return d.hot }

// buildBounds builds the dataset's pruning tables — for cold datasets only.
// On a compiled snapshot one graph access costs less than one landmark-table
// lookup, so filter-and-refine loses to the plain kernels at every measured
// radius (benchmark/README.md "First findings": kNN 7.5 against 0.47 µs,
// DBSCAN 225 against 20 ms), while on the store it saves page reads and still
// wins. Hot datasets therefore join sharded and live ones, which build none.
func (d *Dataset) buildBounds(landmarks int) error {
	if landmarks <= 0 || d.hot != nil {
		return nil
	}
	opts := netclus.BoundsOptions{Landmarks: landmarks, EuclideanLB: true}
	b, err := netclus.BuildBounds(d.graph, opts)
	if errors.Is(err, netclus.ErrBoundsNoCoords) || errors.Is(err, netclus.ErrBoundsNotEuclidean) {
		opts.EuclideanLB = false
		b, err = netclus.BuildBounds(d.graph, opts)
	}
	if err != nil {
		return fmt.Errorf("dataset %s: building bounds: %w", d.Name, err)
	}
	d.bounds = b
	return nil
}

// viewAt is one request's atomic (graph, epoch) pair, plus the live view it
// came from when the dataset is mutable. Handlers must resolve both together:
// on a live dataset the epoch moves under them, and a response stamped with
// epoch E must have been computed on exactly the view published at E.
type viewAt struct {
	graph netclus.Graph
	epoch int64
	live  *netclus.LiveView // non-nil only for live datasets
}

// viewAt pins the graph and epoch a request runs against. For live datasets
// the published LiveView carries both (one atomic load); immutable datasets
// never move, so reading them separately is equivalent.
func (d *Dataset) viewAt() viewAt {
	if d.live != nil {
		cur := d.live.Current()
		return viewAt{graph: cur.Graph, epoch: cur.Epoch, live: cur}
	}
	return viewAt{graph: d.View(), epoch: d.Epoch()}
}

// View returns a graph read view for one request goroutine: the current live
// view for mutable datasets, the hot CSR replica when one was compiled
// (shared and immutable, so no per-request state), else a fresh Store reader
// for disk datasets, else the shared immutable network.
func (d *Dataset) View() netclus.Graph {
	if d.live != nil {
		return d.live.Current().Graph
	}
	if d.hot != nil {
		return d.hot
	}
	if d.store != nil {
		return d.store.Reader()
	}
	return d.graph
}

// Hot reports whether the dataset serves from a compiled CSR replica.
func (d *Dataset) Hot() bool { return d.hot != nil }

// HotStats returns the compiled replica's stats, false when not hot.
func (d *Dataset) HotStats() (netclus.CSRStats, bool) {
	if d.hot == nil {
		return netclus.CSRStats{}, false
	}
	return d.hot.Stats(), true
}

// Bounds returns the dataset's pruning tables (nil when not built).
func (d *Dataset) Bounds() *netclus.Bounds { return d.bounds }

// Epoch returns the dataset's current content version. Query responses carry
// it, and result-cache keys embed it, so a bump strands every cached answer.
func (d *Dataset) Epoch() int64 { return d.epoch.Load() }

// BumpEpoch advances the content version, invalidating all cached results
// for this dataset (their keys name the old epoch and can never match
// again; the LRU ages them out). Returns the new epoch.
func (d *Dataset) BumpEpoch() int64 { return d.epoch.Add(1) }

// ResultCacheStats returns this dataset's share of result-cache traffic.
func (d *Dataset) ResultCacheStats() api.ResultCacheStats {
	return api.ResultCacheStats{
		Hits:               d.cstats.hits.Load(),
		Misses:             d.cstats.misses.Load(),
		ContainmentHits:    d.cstats.containment.Load(),
		SingleflightShared: d.cstats.shared.Load(),
	}
}

// NumPoints returns the dataset's current point count; for live datasets this
// tracks the published view.
func (d *Dataset) NumPoints() int {
	if d.live != nil {
		return d.live.Current().Points
	}
	return d.points
}

// getScratchFor takes range-query scratch for one request against view.
// Immutable datasets pool it, so steady-state queries allocate no traversal
// state. Live datasets allocate fresh scratch per request: range scratch is
// sized to the point count of the graph it was created for, and a live view's
// count moves every epoch — pooled scratch from a larger epoch would be
// wasteful and from a smaller one unsafe.
func (d *Dataset) getScratchFor(view netclus.Graph) *scratchBox {
	if d.live != nil {
		return &scratchBox{sc: netclus.ScratchFor(view)}
	}
	if b, ok := d.scratch.Get().(*scratchBox); ok {
		return b
	}
	// ScratchFor picks the flat-array kernel scratch for hot datasets and
	// the generic scratch otherwise; both serve the RangeQuerier surface.
	if d.hot != nil {
		return &scratchBox{sc: netclus.ScratchFor(d.hot)}
	}
	return &scratchBox{sc: netclus.ScratchFor(d.graph)}
}

// putScratch folds the prune work the scratch did since the last harvest into
// the dataset aggregate, then returns it to the pool (live scratch is
// per-epoch and just dropped).
func (d *Dataset) putScratch(b *scratchBox) {
	b.sc.SetBounder(nil)
	now := b.sc.PruneStats()
	delta := now.Sub(b.harvested)
	b.harvested = now
	d.mu.Lock()
	d.prune.Add(delta)
	d.mu.Unlock()
	if d.live != nil {
		return
	}
	d.scratch.Put(b)
}

// addPrune folds prune counters from non-scratch query paths (pruned kNN,
// clustering runs) into the dataset aggregate.
func (d *Dataset) addPrune(ps netclus.PruneStats) {
	d.mu.Lock()
	d.prune.Add(ps)
	d.mu.Unlock()
}

// countQuery bumps the dataset's served-query counter.
func (d *Dataset) countQuery() {
	d.mu.Lock()
	d.queries++
	d.mu.Unlock()
}

// PruneStats returns the prune work aggregated across all served queries.
func (d *Dataset) PruneStats() netclus.PruneStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.prune
}

// Queries returns the number of queries served against this dataset.
func (d *Dataset) Queries() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.queries
}

// StoreStats returns the delta of the store's counters since registration,
// false for in-memory datasets.
func (d *Dataset) StoreStats() (netclus.StoreStats, bool) {
	if d.store == nil {
		return netclus.StoreStats{}, false
	}
	return netclus.SnapshotStore(d.store).Sub(d.base), true
}

// Close stops the live overlay's background goroutines and releases the
// dataset's disk resources (a no-op for plain in-memory datasets).
func (d *Dataset) Close() error {
	if d.live != nil {
		d.live.Close()
	}
	if d.store == nil {
		return nil
	}
	return d.store.Close()
}

// Registry is the set of served datasets, fixed after startup: handlers only
// read it, so lookups take no lock beyond the map read.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]*Dataset
	names  []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Dataset)}
}

// Add registers d under d.Name; duplicate names are an error.
func (r *Registry) Add(d *Dataset) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[d.Name]; dup {
		return fmt.Errorf("server: duplicate dataset %q", d.Name)
	}
	r.byName[d.Name] = d
	r.names = append(r.names, d.Name)
	return nil
}

// Get looks a dataset up by name.
func (r *Registry) Get(name string) (*Dataset, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.byName[name]
	return d, ok
}

// List returns the datasets in name order.
func (r *Registry) List() []*Dataset {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := append([]string(nil), r.names...)
	sort.Strings(names)
	out := make([]*Dataset, 0, len(names))
	for _, n := range names {
		out = append(out, r.byName[n])
	}
	return out
}

// Close closes every dataset, keeping the first error. It is the last step
// of the drain sequence — callers must have waited for in-flight queries.
func (r *Registry) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var first error
	for _, d := range r.byName {
		if err := d.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
