package server

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"netclus"
	"netclus/internal/server/api"
)

// backend is what a Dataset serves from: one row of the dataset-kind table in
// DESIGN.md §8. Everything that differs between kinds lives behind it, so the
// handlers, the metrics table and Server never ask which kind they hold.
type backend interface {
	// pin returns the (graph, epoch) pair one request runs against; read-only
	// kinds pin readOnlyEpoch, a live one the epoch of its published view.
	pin() viewAt
	// scratch takes range-query scratch for one request against view;
	// recycle hands it back once its prune counters are harvested.
	scratch(view netclus.Graph) *scratchBox
	recycle(b *scratchBox)
	// bounds returns the pruning tables, building them on first use and
	// waiting for them under ctx; nil, nil when the kind builds none.
	bounds(ctx context.Context) (*netclus.Bounds, error)
	// maintained answers a clustering request from labels the pinned view
	// already carries; !ok runs the engine. The labels are the caller's to
	// mutate only when req.MinSup > 1 (a copy, for suppression); otherwise
	// they may be shared with the view and are read-only.
	maintained(va viewAt, req api.ClusterRequest) (labels []int32, corePoints int, ok bool)
	// writer returns the overlay mutations go through, or errImmutable.
	writer() (*netclus.LiveOverlay, error)
	// describe fills the kind-specific blocks of the dataset's /v1/datasets
	// entry, which is also the snapshot /metrics renders its rows from.
	describe(info *api.DatasetInfo)
	close() error
}

var errImmutable = errors.New("is immutable (serve it with the live option to accept writes)")

// readOnlyEpoch is the epoch every response of an immutable dataset carries.
const readOnlyEpoch = 1

// viewAt is one request's atomic (graph, epoch) pair.
type viewAt struct {
	graph netclus.Graph
	epoch int64
	live  *netclus.LiveView // the published view behind graph; liveBackend's own
}

// scratchBox pairs pooled range-query scratch with the prune counters already
// harvested from it, so each release folds only the new work into the
// dataset's aggregate.
type scratchBox struct {
	sc        netclus.RangeQuerier
	harvested netclus.PruneStats
}

// readOnly is what the kinds share unless they say otherwise: pooled scratch
// (steady-state queries allocate no traversal state), no bounds, no
// maintained labels, no writes, nothing to close.
type readOnly struct {
	pool sync.Pool // of *scratchBox
}

func (r *readOnly) scratch(view netclus.Graph) *scratchBox {
	if b, ok := r.pool.Get().(*scratchBox); ok {
		return b
	}
	// ScratchFor picks the flat-array kernel scratch for compiled graphs and
	// live views, the generic scratch otherwise; both serve the RangeQuerier
	// surface.
	return &scratchBox{sc: netclus.ScratchFor(view)}
}
func (r *readOnly) recycle(b *scratchBox)                                    { r.pool.Put(b) }
func (*readOnly) bounds(context.Context) (*netclus.Bounds, error)            { return nil, nil }
func (*readOnly) maintained(viewAt, api.ClusterRequest) ([]int32, int, bool) { return nil, 0, false }
func (*readOnly) writer() (*netclus.LiveOverlay, error)                      { return nil, errImmutable }
func (*readOnly) close() error                                               { return nil }

// servedStore is a disk store held open behind a dataset. base is the counter
// snapshot taken at registration, plus whatever the store counted while the
// pruning-bounds build ran, so the exported numbers are deltas attributable to
// serving rather than to dataset load. The store's counters are shared by all
// its views, so a serving request that reads the store while the build runs
// is booked to startup with it. A nil *servedStore is a dataset without a
// store.
type servedStore struct {
	st   *netclus.Store
	mu   sync.Mutex
	base netclus.StoreStats
}

func (s *servedStore) describe(info *api.DatasetInfo) {
	if s != nil {
		s.mu.Lock()
		ss := netclus.SnapshotStore(s.st).Sub(s.base)
		s.mu.Unlock()
		info.Store = &ss
	}
}

// loadWork runs f and books the store counters spent meanwhile to the startup
// base (base += after - before), so they never show as serving.
func (s *servedStore) loadWork(f func()) {
	before := netclus.SnapshotStore(s.st)
	f()
	s.mu.Lock()
	s.base = netclus.SnapshotStore(s.st).Sub(before.Sub(s.base))
	s.mu.Unlock()
}

func (s *servedStore) close() error {
	if s == nil {
		return nil
	}
	return s.st.Close()
}

// coldBackend serves a disk store as loaded, under landmark lower-bound
// pruning tables when landmarks were asked for. The tables are
// built once, by the first request that runs pruned (or a Dataset.Bounds
// call), not at registration: a cold dataset is ready as soon as its store is
// open, and one that is never asked to prune never pays for the build. The
// price is that the first pruned requests wait for the whole build.
type coldBackend struct {
	readOnly
	// view is a fresh store reader per request goroutine.
	view      func() netclus.Graph
	store     *servedStore
	name      string
	landmarks int

	// life is cancelled by close, which stops a build in flight.
	life   context.Context
	cancel context.CancelFunc
	mu     sync.Mutex
	build  *boundsBuild // nil until the first pruned request
}

func newColdBackend(name string, view func() netclus.Graph, store *servedStore, landmarks int) *coldBackend {
	c := &coldBackend{view: view, store: store, name: name, landmarks: landmarks}
	c.life, c.cancel = context.WithCancel(context.Background())
	return c
}

// boundsBuild is the one build of a cold dataset's pruning tables: lb and err
// are written once, before done is closed, and read only after.
type boundsBuild struct {
	done chan struct{}
	lb   *netclus.Bounds
	err  error
}

func (c *coldBackend) pin() viewAt                    { return viewAt{graph: c.view(), epoch: readOnlyEpoch} }
func (c *coldBackend) describe(info *api.DatasetInfo) { c.store.describe(info) }

// bounds starts the build if no request has yet, then waits for it under ctx.
// A waiter whose deadline passes gets ctx's error — the same one a slow kernel
// returns — while the build runs on for the next request; a failed build's
// error is kept and returned to every later pruned request.
func (c *coldBackend) bounds(ctx context.Context) (*netclus.Bounds, error) {
	if c.landmarks <= 0 {
		return nil, nil
	}
	b := c.startBuild()
	select {
	case <-b.done:
		return b.lb, b.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (c *coldBackend) startBuild() *boundsBuild {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.build != nil {
		return c.build
	}
	b := &boundsBuild{done: make(chan struct{})}
	c.build = b
	if c.life.Err() != nil {
		b.err = c.closedErr()
		close(b.done)
		return b
	}
	go func() {
		defer close(b.done)
		c.store.loadWork(func() { b.lb, b.err = buildBounds(c.life, c.name, c.view(), c.landmarks) })
		if b.err != nil && c.life.Err() != nil {
			b.err = c.closedErr()
		}
	}()
	return b
}

// closedErr is the build error once the dataset is closed: the 503 every
// other request on a closed store gets.
func (c *coldBackend) closedErr() error {
	return fmt.Errorf("dataset %s: building bounds: %w", c.name, netclus.ErrStoreClosed)
}

// close cancels a build in flight and waits for it to stop before closing the
// store, so the build never reads a closed store and close never waits out a
// whole build; a build asked for afterwards fails at once.
func (c *coldBackend) close() error {
	c.cancel()
	c.mu.Lock()
	b := c.build
	c.mu.Unlock()
	if b != nil {
		<-b.done
	}
	return c.store.close()
}

// hotBackend serves a compiled CSR snapshot: shared and immutable, so there is
// no per-request view state. Queries bypass the page buffer of the store it
// may have been compiled from entirely, and no pruning tables are built (see
// buildBounds).
type hotBackend struct {
	readOnly
	sn    *netclus.Snapshot
	store *servedStore
}

func (h *hotBackend) pin() viewAt  { return viewAt{graph: h.sn, epoch: readOnlyEpoch} }
func (h *hotBackend) close() error { return h.store.close() }

func (h *hotBackend) describe(info *api.DatasetInfo) {
	cs := h.sn.Stats()
	info.Hot, info.CSR = true, &cs
	h.store.describe(info)
}

// shardedBackend serves a sharded set: a plain Graph over the set's global
// adjacency, queried through the generic paths. No pruning tables are built.
type shardedBackend struct {
	readOnly
	set *netclus.ShardedSet
}

func (s *shardedBackend) pin() viewAt { return viewAt{graph: s.set, epoch: readOnlyEpoch} }

func (s *shardedBackend) describe(info *api.DatasetInfo) {
	st := s.set.Stats()
	info.Shards, info.ShardSet = st.Shards, &st
}

// liveBackend serves the views a mutable delta overlay publishes. Every view
// is a snapshot derived from one base, so the pooled kernel scratch of the
// read-only kinds serves them all: a query rebinds it to the view it is
// handed. Pruning bounds are not built: they are compiled against one
// immutable point numbering, and a live dataset's changes every epoch.
type liveBackend struct {
	readOnly
	ov *netclus.LiveOverlay
}

// pin takes graph and epoch from one published view (one atomic load): the
// epoch moves under the request, and a response stamped with epoch E must have
// been computed on exactly the view published at E.
func (l *liveBackend) pin() viewAt {
	cur := l.ov.Current()
	return viewAt{graph: cur.Graph, epoch: cur.Epoch, live: cur}
}

// maintained answers dbscan/epslink requests whose density parameters match
// the overlay's configuration from the pinned view's incrementally maintained
// labelling — identical to the full recompute (the overlay's equivalence tests
// pin that) at no traversal's cost. Workers and Prune never change
// clustering output, so they don't gate the path. The view's labels are
// copied only when MinSup > 1, because suppression mutates them in place;
// epslink additionally requires MinSup <= 1 because core.EpsLink folds MinSup
// into its labelling.
func (l *liveBackend) maintained(va viewAt, req api.ClusterRequest) (labels []int32, corePoints int, ok bool) {
	switch {
	case req.Algo == "dbscan":
		labels, _, corePoints, ok = va.live.LiveDBSCAN(req.Eps, req.MinPts)
	case req.Algo == "epslink" && req.MinSup <= 1:
		labels, _, ok = va.live.LiveEpsLink(req.Eps)
	}
	if ok && req.MinSup > 1 {
		labels = append([]int32(nil), labels...)
	}
	return labels, corePoints, ok
}

func (l *liveBackend) writer() (*netclus.LiveOverlay, error) { return l.ov, nil }

func (l *liveBackend) describe(info *api.DatasetInfo) {
	st := l.ov.Stats()
	// The static point count is the load-time one; live datasets report the
	// published view's.
	info.Live, info.Points, info.Epoch = &st, st.Points, st.Epoch
}

// close stops the overlay's background goroutines.
func (l *liveBackend) close() error {
	l.ov.Close()
	return nil
}
