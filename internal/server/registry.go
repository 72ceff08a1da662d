// Package server is the netclusd serving layer: a dataset registry over the
// netclus engine, HTTP/JSON query handlers for the paper's operators
// (ε-range, kNN, density and partitioning clustering), a weighted-semaphore
// admission controller, and hand-rolled Prometheus metrics wired to the
// engine's buffer/cache/shard/prune counters. See DESIGN.md §8.
package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"netclus"
	"netclus/internal/server/api"
)

// Dataset is one served graph — the fields every kind shares (identity, epoch,
// load-time sizes, serving counters) around the one backend that answers for
// the kind.
type Dataset struct {
	// Name is the registry key, the {dataset} segment of the URL space.
	Name string
	// Kind is "store" for disk-backed datasets, "memory" for network files,
	// "snapshot", "sharded" or "live".
	Kind string
	// Source describes where the dataset came from (directory or file
	// prefix), for /v1/datasets.
	Source string

	// epoch versions the dataset's contents. Read-only datasets stay at 1; a
	// live dataset's overlay bumps it on every visible mutation, which
	// invalidates result-cache entries by key mismatch.
	epoch atomic.Int64

	backend backend

	nodes, edges, points int

	queries atomic.Int64 // served against this dataset
	mu      sync.Mutex
	prune   netclus.PruneStats // aggregated across all served queries

	// cstats is this dataset's share of result-cache traffic, for
	// /v1/datasets; the cache-wide counters live on ResultCache.
	cstats cacheCounters
}

// cacheCounters attributes result-cache traffic to one dataset.
type cacheCounters struct {
	hits   atomic.Int64
	misses atomic.Int64
	shared atomic.Int64
}

// newDataset wraps b, which serves g, at epoch 1.
func newDataset(name, kind, source string, g netclus.Graph, b backend) *Dataset {
	d := &Dataset{
		Name: name, Kind: kind, Source: source, backend: b,
		nodes: g.NumNodes(), edges: g.NumEdges(), points: g.NumPoints(),
	}
	d.epoch.Store(1)
	return d
}

// NewStoreDataset opens the store under dir as a served dataset. landmarks
// > 0 additionally prunes its queries with lower-bound tables (Euclidean
// filtering when the embedding allows, landmark tables otherwise), built on
// the first pruned request rather than here, so registration reads nothing
// beyond what opening the store does. hot
// instead compiles the store into a CSR snapshot at registration; queries
// then run on the in-memory replica's kernels and bypass the page buffer
// entirely — the store's serving counters stay at zero — and no pruning
// tables are built (see buildBounds).
func NewStoreDataset(name, dir string, opts netclus.StoreOptions, landmarks int, hot bool) (*Dataset, error) {
	st, err := netclus.OpenStore(dir, opts)
	if err != nil {
		return nil, err
	}
	served := &servedStore{st: st}
	d, err := newGraphDataset(name, "store", dir, st, func() netclus.Graph { return st.Reader() }, served, landmarks, hot)
	if err != nil {
		st.Close()
		return nil, err
	}
	// Counters spent loading + preprocessing (including the hot-replica
	// compile, which reads every page once) belong to startup, not serving.
	served.base = netclus.SnapshotStore(st)
	return d, nil
}

// NewNetworkDataset serves the in-memory network n. landmarks as above (the
// tables are built on the first pruned request); hot
// compiles n into a CSR snapshot, so queries run on the flat-array kernels
// and, as above, no pruning tables are built.
func NewNetworkDataset(name, source string, n *netclus.Network, landmarks int, hot bool) (*Dataset, error) {
	return newGraphDataset(name, "memory", source, n, func() netclus.Graph { return n }, nil, landmarks, hot)
}

// newGraphDataset serves g — a disk store or a pointer network, read through
// view — from a compiled replica when hot, else as loaded, under bounds built
// from view on the first pruned request.
func newGraphDataset(name, kind, source string, g netclus.Graph, view func() netclus.Graph, store *servedStore, landmarks int, hot bool) (*Dataset, error) {
	if hot {
		sn, err := netclus.Compile(g)
		if err != nil {
			return nil, fmt.Errorf("dataset %s: compiling hot replica: %w", name, err)
		}
		return newDataset(name, kind, source, g, &hotBackend{sn: sn, store: store}), nil
	}
	return newDataset(name, kind, source, g, newColdBackend(name, view, store, landmarks)), nil
}

// NewSnapshotDataset serves a durable CSR snapshot file directly: the
// decoded snapshot is the graph and the hot replica at once, so the dataset
// boots warm with zero store or network-file reads. Kind is "snapshot".
// landmarks is accepted for call-site uniformity with the other constructors
// and ignored: a snapshot dataset is hot, and hot datasets build no pruning
// tables (see buildBounds).
func NewSnapshotDataset(name, path string, sn *netclus.Snapshot, landmarks int) (*Dataset, error) {
	return newDataset(name, "snapshot", path, sn, &hotBackend{sn: sn}), nil
}

// NewShardedDataset serves a partitioned network as a sharded set,
// byte-identical to a single-snapshot dataset over the same network. Kind is
// "sharded".
func NewShardedDataset(name, source string, set *netclus.ShardedSet) (*Dataset, error) {
	return newDataset(name, "sharded", source, set, &shardedBackend{set: set}), nil
}

// NewLiveDataset serves base (a compiled snapshot or in-memory network)
// behind a mutable delta overlay: POST /v1/datasets/{name}/points mutates it,
// reads resolve through the overlay's published views, and every committed
// batch or compaction swap bumps the dataset epoch exactly once — which is
// what strands stale result-cache entries. Kind is "live".
func NewLiveDataset(name, source string, base netclus.Graph, opts netclus.LiveOptions) (*Dataset, error) {
	d := newDataset(name, "live", source, base, nil)
	// The overlay owns the epoch counter: its reconciler bumps d.epoch as the
	// final step of publishing each view, before the writer is acked, so a
	// client that saw its write commit can never read a stale cached result.
	opts.Bump = d.BumpEpoch
	opts.InitialEpoch = 1
	ov, err := netclus.NewLiveOverlay(base, opts)
	if err != nil {
		return nil, fmt.Errorf("dataset %s: building live overlay: %w", name, err)
	}
	d.backend = &liveBackend{ov: ov}
	return d, nil
}

// buildBounds builds pruning tables over g — for cold datasets only, on the
// first request that runs pruned (see coldBackend.bounds). On a
// compiled snapshot one graph access costs less than one landmark-table
// lookup, so filter-and-refine loses to the plain kernels at every measured
// radius (benchmark/README.md "First findings": kNN 7.5 against 0.47 µs,
// DBSCAN 225 against 20 ms), while on the store it saves page reads and still
// wins. Hot datasets therefore join sharded and live ones, which build none.
func buildBounds(ctx context.Context, name string, g netclus.Graph, landmarks int) (*netclus.Bounds, error) {
	opts := netclus.BoundsOptions{Landmarks: landmarks, EuclideanLB: true}
	b, err := netclus.BuildBoundsCtx(ctx, g, opts)
	if errors.Is(err, netclus.ErrBoundsNoCoords) || errors.Is(err, netclus.ErrBoundsNotEuclidean) {
		opts.EuclideanLB = false
		b, err = netclus.BuildBoundsCtx(ctx, g, opts)
	}
	if err != nil {
		return nil, fmt.Errorf("dataset %s: building bounds: %w", name, err)
	}
	return b, nil
}

// Live returns the dataset's mutable overlay, nil for immutable datasets.
func (d *Dataset) Live() *netclus.LiveOverlay {
	ov, _ := d.backend.writer()
	return ov
}

// HotSnapshot returns the compiled CSR replica, nil when the dataset is not
// hot — the handle the serve command persists with WriteSnapshotFile.
func (d *Dataset) HotSnapshot() *netclus.Snapshot {
	if h, ok := d.backend.(*hotBackend); ok {
		return h.sn
	}
	return nil
}

// Bounds returns the dataset's pruning tables, building them first if no
// request has yet; nil when the dataset builds none or the build failed.
func (d *Dataset) Bounds() *netclus.Bounds {
	b, _ := d.backend.bounds(context.Background())
	return b
}

// HasBounds reports whether the dataset prunes — a cold dataset with
// landmarks — whether or not its tables are built yet. It never starts the
// build.
func (d *Dataset) HasBounds() bool {
	c, ok := d.backend.(*coldBackend)
	return ok && c.landmarks > 0
}

// viewAt pins the graph and epoch a request runs against; handlers must take
// both from one call.
func (d *Dataset) viewAt() viewAt { return d.backend.pin(d.Epoch()) }

// View returns a graph read view for one request goroutine.
func (d *Dataset) View() netclus.Graph { return d.viewAt().graph }

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
		SingleflightShared: d.cstats.shared.Load(),
	}
}

// info snapshots the dataset as its /v1/datasets entry, result-cache share
// aside: the shared fields here, the kind-specific blocks from the backend.
func (d *Dataset) info() api.DatasetInfo {
	info := api.DatasetInfo{
		Name: d.Name, Kind: d.Kind, Source: d.Source, Epoch: d.Epoch(),
		Nodes: d.nodes, Edges: d.edges, Points: d.points,
		Bounds: d.HasBounds(), Queries: d.queries.Load(),
	}
	d.mu.Lock()
	info.Prune = d.prune
	d.mu.Unlock()
	d.backend.describe(&info)
	return info
}

// putScratch folds the prune work the scratch did since the last harvest into
// the dataset aggregate, then hands it back to the backend.
func (d *Dataset) putScratch(b *scratchBox) {
	b.sc.SetBounder(nil)
	now := b.sc.PruneStats()
	delta := now.Sub(b.harvested)
	b.harvested = now
	d.addPrune(delta)
	d.backend.recycle(b)
}

// addPrune folds prune counters from one finished query into the dataset
// aggregate.
func (d *Dataset) addPrune(ps netclus.PruneStats) {
	d.mu.Lock()
	d.prune.Add(ps)
	d.mu.Unlock()
}

// Close stops the backend's background work and releases its disk resources
// (a no-op for plain in-memory datasets).
func (d *Dataset) Close() error { return d.backend.close() }

// Registry is the set of served datasets, fixed after startup: handlers only
// read it, so lookups take no lock beyond the map read.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]*Dataset
	sorted []*Dataset // in name order
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
	r.sorted = append(r.sorted, d)
	sort.Slice(r.sorted, func(i, j int) bool { return r.sorted[i].Name < r.sorted[j].Name })
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
	return append([]*Dataset(nil), r.sorted...)
}

// Close closes every dataset, keeping the first error. It is the last step
// of the drain sequence — callers must have waited for in-flight queries.
func (r *Registry) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var first error
	for _, d := range r.sorted {
		if err := d.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
