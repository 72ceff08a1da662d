// Package delta adds a write path on top of the immutable netclus graphs: an
// epoch-versioned overlay that accepts point insert/move/delete batches while
// the base stays frozen. Writes land in one FIFO queue and a single reconciler
// goroutine drains it, applies each batch atomically in arrival order,
// freezes an immutable merged view, and publishes it with one epoch bump per
// batch. Readers pin whatever view was current when their request began. A
// frozen view is a CSR snapshot derived from the base (csr.Derive) in the
// §4.1 point-group layout, so every flat kernel and clustering algorithm runs
// on it unchanged and byte-identical to a compile of the same logical
// content; when the delta crosses a size threshold the reconciler makes the
// current view the new base, with one more epoch bump and no compile. See
// DESIGN.md §13.
package delta

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"netclus/internal/csr"
	"netclus/internal/network"
)

// ErrClosed reports an operation against a closed overlay.
var ErrClosed = errors.New("delta: overlay closed")

// OpKind selects the mutation an Op performs.
type OpKind uint8

const (
	// OpInsert adds a new point to an edge.
	OpInsert OpKind = iota + 1
	// OpMove repositions an existing point (same edge or another).
	OpMove
	// OpDelete removes an existing point.
	OpDelete
)

// EdgeSel says how an Op names its destination edge.
type EdgeSel uint8

const (
	// EdgeExplicit uses (N1, N2) and an absolute Pos offset in [0, weight].
	EdgeExplicit EdgeSel = iota
	// EdgeNear uses the edge currently holding point Near; Pos is a fraction
	// of the edge weight, clamped to [0, 1]. This lets writers place points
	// knowing only point IDs, not the edge structure.
	EdgeNear
	// EdgeSame keeps a moved point on its current edge; Pos is a fraction of
	// the edge weight, clamped to [0, 1]. Only valid for OpMove.
	EdgeSame
)

// Op is one point mutation. Point and Near are canonical point IDs of the
// epoch the batch resolves against (the published view just before it
// applies); IDs are renumbered by every batch, so a writer that interleaves
// with others should re-read before writing.
type Op struct {
	Kind   OpKind
	Point  network.PointID // target of move/delete
	N1, N2 network.NodeID  // destination edge when Edge == EdgeExplicit
	Near   network.PointID // destination edge donor when Edge == EdgeNear
	Edge   EdgeSel
	Pos    float64
	Tag    int32 // insert only; moves keep their tag
}

// Insert builds an explicit-edge insert op.
func Insert(n1, n2 network.NodeID, pos float64, tag int32) Op {
	return Op{Kind: OpInsert, Edge: EdgeExplicit, N1: n1, N2: n2, Pos: pos, Tag: tag}
}

// InsertNear builds an insert on the edge holding point near, at fraction
// frac of its weight.
func InsertNear(near network.PointID, frac float64, tag int32) Op {
	return Op{Kind: OpInsert, Edge: EdgeNear, Near: near, Pos: frac, Tag: tag}
}

// Move builds an explicit-edge move of point p.
func Move(p network.PointID, n1, n2 network.NodeID, pos float64) Op {
	return Op{Kind: OpMove, Edge: EdgeExplicit, Point: p, N1: n1, N2: n2, Pos: pos}
}

// MoveSame builds a same-edge reposition of point p to fraction frac.
func MoveSame(p network.PointID, frac float64) Op {
	return Op{Kind: OpMove, Edge: EdgeSame, Point: p, Pos: frac}
}

// Delete builds a delete of point p.
func Delete(p network.PointID) Op {
	return Op{Kind: OpDelete, Point: p}
}

// LiveOptions enables incrementally maintained clustering: the overlay keeps
// ε-Link and DBSCAN labellings at these parameters continuously fresh,
// updating only the clusters within ε of each mutation.
type LiveOptions struct {
	Eps    float64
	MinPts int // DBSCAN core threshold; default 3
}

// Options configure an overlay.
type Options struct {
	// CompactOps compacts — makes the current view the base — once this many
	// resolved ops are pending (default 4096; negative disables compaction
	// except by CompactNow).
	CompactOps int
	// Live enables incremental ε-Link/DBSCAN maintenance.
	Live *LiveOptions
}

func (o Options) withDefaults() Options {
	if o.CompactOps == 0 {
		o.CompactOps = 4096
	}
	if o.Live != nil && o.Live.MinPts <= 0 {
		live := *o.Live
		live.MinPts = 3
		o.Live = &live
	}
	return o
}

// Result reports what a batch produced: the epoch of the first view that
// contains it and the point count of that view.
type Result struct {
	Epoch  int64
	Points int
}

// Current is one published read view. Everything reachable from it is
// immutable: queries that loaded it keep a consistent (graph, epoch, labels)
// triple however many batches land while they run.
type Current struct {
	// Graph is the merged view: a *View, or the base *csr.Snapshot itself
	// while the delta is empty.
	Graph network.Graph
	// Epoch is the view's content version: 1 for the base, one more per
	// applied batch and per rebase.
	Epoch int64
	// Points is Graph.NumPoints(), cached for cheap stats.
	Points int

	idToSlot []int32 // canonical point ID -> stable slot
	live     *liveSnap
	sn       *csr.Snapshot // the snapshot behind Graph
}

// listEntry is one point in an adopted edge list: its offset, tag, and the
// stable slot identity that survives canonical renumbering.
type listEntry struct {
	pos  float64
	tag  int32
	slot int32
}

// edgeList is the mutable form of one edge's point group. An edge is adopted
// — copied out of the base — the first time a mutation touches it; untouched
// edges are read straight from the base at freeze time.
type edgeList struct {
	key    uint64
	n1, n2 network.NodeID
	weight float64
	pts    []listEntry // ascending pos; equal-pos ties keep insertion order
	// bgi is the index of the edge's base group when inBase, else the index
	// of the first base group past it: where freeze interleaves the list.
	bgi    int
	inBase bool
}

// insert places (pos, tag, slot) at the upper bound among equal offsets —
// the same arrangement a stable sort by offset of the insertion sequence
// produces, which is what Builder.Build does on a from-scratch rebuild.
func (el *edgeList) insert(pos float64, tag, slot int32) {
	i := len(el.pts)
	for i > 0 && el.pts[i-1].pos > pos {
		i--
	}
	el.pts = append(el.pts, listEntry{})
	copy(el.pts[i+1:], el.pts[i:])
	el.pts[i] = listEntry{pos: pos, tag: tag, slot: slot}
}

// remove deletes the entry with the given slot, reporting whether it existed.
func (el *edgeList) remove(slot int32) (listEntry, bool) {
	for i, e := range el.pts {
		if e.slot == slot {
			el.pts = append(el.pts[:i], el.pts[i+1:]...)
			return e, true
		}
	}
	return listEntry{}, false
}

// rKind tags a resolved op in the replay tail.
type rKind uint8

const (
	rInsert rKind = iota + 1
	rDelete
)

// resolvedOp is a mutation with every name resolved to stable coordinates:
// an edge key, an absolute offset, and a slot — what the live maintainer
// repairs its ε-graph from.
type resolvedOp struct {
	kind rKind
	key  uint64
	pos  float64
	tag  int32
	slot int32
}

type applyResult struct {
	r   Result
	err error
}

type batch struct {
	ctx context.Context
	ops []Op
	res chan applyResult
}

// initialEpoch is the epoch of the unmodified base view.
const initialEpoch = 1

// Overlay is an epoch-versioned mutable overlay over an immutable base
// graph. All mutable state below the write queue is owned by the reconciler
// goroutine; readers only ever touch the published *Current.
type Overlay struct {
	opts Options

	cur atomic.Pointer[Current]

	qmu     sync.Mutex // guards q and qClosed
	q       []*batch   // queued batches, oldest first
	qClosed bool
	wakeup  chan struct{}

	// reconciler-owned state
	base       *csr.Snapshot
	baseSlots  []int32 // slot of base point p
	baseKeys   []uint64
	baseGroups []network.PointGroup
	adopted    []*edgeList // ascending key
	points     int         // point count of the merged content
	nextSlot   int32
	pending    int   // resolved ops applied since the last rebase
	epoch      int64 // of the last published view
	live       *live

	// lastAdj is the adjacency of the last published view, nil for the
	// base's own; adjMoved says an applied batch has since changed the set
	// of populated edges, so the next freeze renumbers the base's anew.
	lastAdj  []network.Neighbor
	adjMoved bool
	newIDs   []network.PointID // freeze's buffer for the batch's insert IDs

	forceCh   chan chan error
	closed    chan struct{}
	closeOnce sync.Once
	recDone   chan struct{}

	stats statCells
}

// statCells mirrors reconciler-owned counters into atomics for Stats().
type statCells struct {
	batches     atomic.Int64
	ops         atomic.Int64
	rejected    atomic.Int64
	compactions atomic.Int64
	pendingOps  atomic.Int64
	adopted     atomic.Int64
	pauseNs     atomic.Int64
	maxPauseNs  atomic.Int64
	live        liveCounters
	liveNs      atomic.Int64
}

// Stats is a point-in-time snapshot of the overlay's write-path counters,
// serialized into /v1/datasets for live datasets. CompactRunning is always
// false and LastCompileMS always 0: compaction is a rebase on the
// reconciler, with no background compile. Both stay for the readers compiled
// against them.
type Stats struct {
	Epoch          int64   `json:"epoch"`
	Points         int     `json:"points"`
	PendingOps     int64   `json:"pending_ops"`
	AdoptedEdges   int64   `json:"adopted_edges"`
	Batches        int64   `json:"batches"`
	Ops            int64   `json:"ops"`
	Rejected       int64   `json:"rejected"`
	Compactions    int64   `json:"compactions"`
	CompactRunning bool    `json:"compact_running,omitempty"`
	LastPauseMS    float64 `json:"last_compact_pause_ms"`
	MaxPauseMS     float64 `json:"max_compact_pause_ms"`
	LastCompileMS  float64 `json:"last_compile_ms"`
	LiveClustering bool    `json:"live_clustering,omitempty"`
	LiveRangeQs    int64   `json:"live_range_queries,omitempty"`
	// LiveMaintainNS is the cumulative time spent maintaining the labelling
	// (ε-graph repair, split checks, label derivation) — the incremental
	// re-cluster cost, as opposed to the write-apply machinery around it.
	LiveMaintainNS int64 `json:"live_maintain_ns,omitempty"`
	// LiveRepairVisits counts the slots the repair walked — touched
	// neighbourhoods, split checks, floods — and LiveFloods the components it
	// had to re-flood because a batch really split one. A slow write shows up
	// as a jump in both; writes that split nothing leave LiveFloods alone.
	LiveFloods       int64 `json:"live_floods,omitempty"`
	LiveRepairVisits int64 `json:"live_repair_visits,omitempty"`
}

// New wraps base in a mutable overlay. The base must satisfy the §4.1
// point-group invariant with groups in ascending canonical edge-key order —
// every Builder output, CSR snapshot, and store does. A base that is not a
// *csr.Snapshot is compiled once, here: every view is derived from a
// snapshot.
func New(base network.Graph, opts Options) (*Overlay, error) {
	sn, ok := base.(*csr.Snapshot)
	if !ok {
		var err error
		if sn, err = csr.Compile(base); err != nil {
			return nil, fmt.Errorf("delta: compiling the base: %w", err)
		}
	}
	o := &Overlay{
		opts:    opts.withDefaults(),
		base:    sn,
		points:  sn.NumPoints(),
		wakeup:  make(chan struct{}, 1),
		forceCh: make(chan chan error),
		closed:  make(chan struct{}),
		recDone: make(chan struct{}),
	}
	var err error
	if o.baseKeys, o.baseGroups, err = indexGroups(sn); err != nil {
		return nil, err
	}
	o.baseSlots = make([]int32, sn.NumPoints())
	for i := range o.baseSlots {
		o.baseSlots[i] = int32(i)
	}
	o.nextSlot = int32(sn.NumPoints())
	o.epoch = initialEpoch
	cur := &Current{
		Graph: sn, Epoch: initialEpoch,
		Points: sn.NumPoints(), idToSlot: o.baseSlots, sn: sn,
	}
	if o.opts.Live != nil {
		o.live = newLive(o.opts.Live.Eps, o.opts.Live.MinPts, &o.stats.live)
		snap, err := o.live.bootstrap(sn, o.baseSlots)
		if err != nil {
			return nil, fmt.Errorf("delta: bootstrapping live clustering: %w", err)
		}
		cur.live = snap
	}
	o.cur.Store(cur)
	go o.reconcile()
	return o, nil
}

// indexGroups validates and indexes a base's group order: strictly ascending
// canonical edge keys with dense First offsets, the shape freeze() merges
// against.
func indexGroups(sn *csr.Snapshot) (keys []uint64, groups []network.PointGroup, err error) {
	var next network.PointID
	prev := uint64(0)
	keys = make([]uint64, 0, sn.NumGroups())
	groups = make([]network.PointGroup, 0, sn.NumGroups())
	err = sn.ScanGroups(func(gid network.GroupID, pg network.PointGroup, offs []float64) error {
		key := network.EdgeKey(pg.N1, pg.N2)
		if gid > 0 && key <= prev {
			return fmt.Errorf("delta: base group %d out of edge-key order", gid)
		}
		if pg.First != next {
			return fmt.Errorf("delta: base group %d not dense (first %d, want %d)", gid, pg.First, next)
		}
		prev = key
		next += network.PointID(pg.Count)
		keys = append(keys, key)
		groups = append(groups, pg)
		return nil
	})
	return keys, groups, err
}

// Current returns the published read view. Callers use one Current for a
// whole request: graph, epoch, and live labels stay mutually consistent.
func (o *Overlay) Current() *Current { return o.cur.Load() }

// Stats snapshots the write-path counters.
func (o *Overlay) Stats() Stats {
	c := o.cur.Load()
	s := Stats{
		Epoch:        c.Epoch,
		Points:       c.Points,
		PendingOps:   o.stats.pendingOps.Load(),
		AdoptedEdges: o.stats.adopted.Load(),
		Batches:      o.stats.batches.Load(),
		Ops:          o.stats.ops.Load(),
		Rejected:     o.stats.rejected.Load(),
		Compactions:  o.stats.compactions.Load(),
		LastPauseMS:  float64(o.stats.pauseNs.Load()) / 1e6,
		MaxPauseMS:   float64(o.stats.maxPauseNs.Load()) / 1e6,
	}
	if o.live != nil {
		s.LiveClustering = true
		s.LiveRangeQs = o.stats.live.rangeQueries.Load()
		s.LiveFloods = o.stats.live.floods.Load()
		s.LiveRepairVisits = o.stats.live.repairVisits.Load()
		s.LiveMaintainNS = o.stats.liveNs.Load()
	}
	return s
}

// Apply queues one mutation batch and waits for it to commit. The batch is
// atomic: either every op applies and the new view (one epoch newer) contains
// them all, or none do and the error names the first bad op. Batches commit
// in the order they were queued: one queued after another commits at a later
// epoch. A ctx error abandons the wait, not necessarily the batch.
func (o *Overlay) Apply(ctx context.Context, ops []Op) (Result, error) {
	if len(ops) == 0 {
		return Result{}, fmt.Errorf("%w: empty mutation batch", network.ErrInvalidOptions)
	}
	b := &batch{ctx: ctx, ops: ops, res: make(chan applyResult, 1)}
	o.qmu.Lock()
	if o.qClosed {
		o.qmu.Unlock()
		return Result{}, ErrClosed
	}
	o.q = append(o.q, b)
	o.qmu.Unlock()
	select {
	case o.wakeup <- struct{}{}:
	default:
	}
	select {
	case r := <-b.res:
		return r.r, r.err
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// Close stops the reconciler, failing queued batches with ErrClosed.
// Published views stay readable.
func (o *Overlay) Close() {
	o.closeOnce.Do(func() { close(o.closed) })
	<-o.recDone
}

// reconcile is the single writer: it drains the write queue, applies each
// batch, publishes views, and compacts.
func (o *Overlay) reconcile() {
	defer close(o.recDone)
	for {
		select {
		case <-o.wakeup:
			o.drainAndApply()
		case done := <-o.forceCh:
			done <- o.rebase()
		case <-o.closed:
			o.shutdown()
			return
		}
	}
}

// drainAndApply swaps the write queue out and applies its batches oldest
// first, until the queue stays empty.
func (o *Overlay) drainAndApply() {
	for {
		o.qmu.Lock()
		got := o.q
		o.q = nil
		o.qmu.Unlock()
		if len(got) == 0 {
			return
		}
		for _, b := range got {
			o.applyBatch(b)
		}
	}
}

func (o *Overlay) applyBatch(b *batch) {
	if err := b.ctx.Err(); err != nil {
		b.res <- applyResult{err: err}
		return
	}
	first := o.nextSlot
	resolved, err := o.applyOps(b.ops)
	if err != nil {
		o.stats.rejected.Add(1)
		b.res <- applyResult{err: err}
		return
	}
	o.pending += len(resolved)
	cur, err := o.publish(resolved, first)
	if err != nil {
		// Live maintenance self-healed by full rebuild; the view itself is
		// always published. Only a bootstrap failure reaches here.
		b.res <- applyResult{err: err}
		return
	}
	o.stats.batches.Add(1)
	o.stats.ops.Add(int64(len(b.ops)))
	b.res <- applyResult{r: Result{Epoch: cur.Epoch, Points: cur.Points}}
	o.maybeCompact()
}

// publish freezes the merged view, bumps the epoch exactly once, refreshes
// the live labelling over the resolved ops, and swaps the new Current in. The
// batch's inserts hold the slots from first up.
func (o *Overlay) publish(resolved []resolvedOp, first int32) (*Current, error) {
	sn, idToSlot, newIDs := o.freeze(first)
	epoch := o.bumpEpoch()
	cur := &Current{Graph: sn, Epoch: epoch, Points: len(idToSlot), idToSlot: idToSlot, sn: sn}
	if sn != o.base {
		cur.Graph = &View{sn}
	}
	if o.live != nil {
		t0 := time.Now()
		snap, err := o.live.apply(sn, idToSlot, newIDs, resolved)
		o.stats.liveNs.Add(time.Since(t0).Nanoseconds())
		if err != nil {
			return nil, err
		}
		cur.live = snap
	}
	o.cur.Store(cur)
	o.stats.pendingOps.Store(int64(o.pending))
	o.stats.adopted.Store(int64(len(o.adopted)))
	return cur, nil
}

// bumpEpoch numbers the next published view: once per applied batch and
// once per rebase, counting up from the base view's initialEpoch.
func (o *Overlay) bumpEpoch() int64 {
	o.epoch++
	return o.epoch
}

// shutdown closes the write queue and fails every batch left in it.
func (o *Overlay) shutdown() {
	o.qmu.Lock()
	o.qClosed = true
	q := o.q
	o.q = nil
	o.qmu.Unlock()
	for _, b := range q {
		b.res <- applyResult{err: ErrClosed}
	}
}

// touchedList remembers an edge list's pre-batch contents for rollback.
type touchedList struct {
	el      *edgeList
	saved   []listEntry
	existed bool // false when this batch adopted the edge
}

// applyOps applies one batch atomically against the reconciler state: every
// op validates and applies, or the state rolls back to the pre-batch content
// and the error names the offending op. An applied batch that emptied an
// edge or put points on a point-free one raises adjMoved.
func (o *Overlay) applyOps(ops []Op) ([]resolvedOp, error) {
	pre := o.cur.Load()
	touched := make(map[uint64]*touchedList)
	savedSlot, savedPoints := o.nextSlot, o.points
	resolved := make([]resolvedOp, 0, len(ops))

	fail := func(i int, err error) ([]resolvedOp, error) {
		for _, t := range touched {
			t.el.pts = t.saved
		}
		o.adopted = slices.DeleteFunc(o.adopted, func(el *edgeList) bool {
			t := touched[el.key]
			return t != nil && !t.existed
		})
		o.nextSlot, o.points = savedSlot, savedPoints
		return nil, fmt.Errorf("op %d: %w", i, err)
	}
	// touch adopts key (copying the base group on first contact ever) and
	// saves its pre-batch contents on first contact this batch.
	touch := func(key uint64) (*edgeList, error) {
		if t, ok := touched[key]; ok {
			return t.el, nil
		}
		_, existed := o.findAdopted(key)
		el, err := o.adopt(key)
		if err != nil {
			return nil, err
		}
		saved := append([]listEntry(nil), el.pts...)
		touched[key] = &touchedList{el: el, saved: saved, existed: existed}
		return el, nil
	}
	// resolve maps a canonical pre-batch point ID to its slot and edge key.
	resolve := func(p network.PointID) (int32, uint64, error) {
		if p < 0 || int(p) >= pre.Points {
			return 0, 0, fmt.Errorf("%w: point %d of %d", network.ErrPointRange, p, pre.Points)
		}
		pi, err := pre.sn.PointInfo(p)
		if err != nil {
			return 0, 0, err
		}
		return pre.idToSlot[p], network.EdgeKey(pi.N1, pi.N2), nil
	}

	for i, op := range ops {
		switch op.Kind {
		case OpInsert:
			key, pos, err := o.resolveDest(op, resolve)
			if err != nil {
				return fail(i, err)
			}
			el, err := touch(key)
			if err != nil {
				return fail(i, err)
			}
			if op.Edge == EdgeExplicit && (op.Pos < 0 || op.Pos > el.weight) {
				return fail(i, fmt.Errorf("%w: pos %g outside [0, %g]", network.ErrInvalidOptions, op.Pos, el.weight))
			}
			slot := o.nextSlot
			o.nextSlot++
			o.points++
			el.insert(pos, op.Tag, slot)
			resolved = append(resolved, resolvedOp{kind: rInsert, key: key, pos: pos, tag: op.Tag, slot: slot})

		case OpDelete:
			slot, key, err := resolve(op.Point)
			if err != nil {
				return fail(i, err)
			}
			el, err := touch(key)
			if err != nil {
				return fail(i, err)
			}
			if _, ok := el.remove(slot); !ok {
				return fail(i, fmt.Errorf("%w: point %d already mutated in this batch", network.ErrInvalidOptions, op.Point))
			}
			o.points--
			resolved = append(resolved, resolvedOp{kind: rDelete, key: key, slot: slot})

		case OpMove:
			slot, srcKey, err := resolve(op.Point)
			if err != nil {
				return fail(i, err)
			}
			src, err := touch(srcKey)
			if err != nil {
				return fail(i, err)
			}
			ent, ok := src.remove(slot)
			if !ok {
				return fail(i, fmt.Errorf("%w: point %d already mutated in this batch", network.ErrInvalidOptions, op.Point))
			}
			dstKey, pos := srcKey, clampFrac(op.Pos)*src.weight
			if op.Edge != EdgeSame {
				dstKey, pos, err = o.resolveDest(op, resolve)
				if err != nil {
					return fail(i, err)
				}
			}
			dst, err := touch(dstKey)
			if err != nil {
				return fail(i, err)
			}
			if op.Edge == EdgeExplicit && (op.Pos < 0 || op.Pos > dst.weight) {
				return fail(i, fmt.Errorf("%w: pos %g outside [0, %g]", network.ErrInvalidOptions, op.Pos, dst.weight))
			}
			slot2 := o.nextSlot
			o.nextSlot++
			dst.insert(pos, ent.tag, slot2)
			resolved = append(resolved,
				resolvedOp{kind: rDelete, key: srcKey, slot: slot},
				resolvedOp{kind: rInsert, key: dstKey, pos: pos, tag: ent.tag, slot: slot2})

		default:
			return fail(i, fmt.Errorf("%w: unknown op kind %d", network.ErrInvalidOptions, op.Kind))
		}
	}
	for _, t := range touched {
		if (len(t.saved) > 0) != (len(t.el.pts) > 0) {
			o.adjMoved = true
		}
	}
	return resolved, nil
}

func clampFrac(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// resolveDest names an insert/move destination: an explicit canonical edge
// with an absolute offset, or a near-point's edge with a fractional one.
func (o *Overlay) resolveDest(op Op, resolve func(network.PointID) (int32, uint64, error)) (uint64, float64, error) {
	switch op.Edge {
	case EdgeExplicit:
		if op.N1 == op.N2 {
			return 0, 0, fmt.Errorf("%w: self-loop edge (%d,%d)", network.ErrInvalidOptions, op.N1, op.N2)
		}
		if op.N1 < 0 || int(op.N1) >= o.base.NumNodes() || op.N2 < 0 || int(op.N2) >= o.base.NumNodes() {
			return 0, 0, fmt.Errorf("%w: edge (%d,%d)", network.ErrNodeRange, op.N1, op.N2)
		}
		n1, n2 := network.CanonEdge(op.N1, op.N2)
		return network.EdgeKey(n1, n2), op.Pos, nil
	case EdgeNear:
		_, key, err := resolve(op.Near)
		if err != nil {
			return 0, 0, err
		}
		var w float64
		if i, ok := o.findAdopted(key); ok {
			w = o.adopted[i].weight
		} else {
			n1, n2 := network.UnpackEdgeKey(key)
			if w, err = network.EdgeWeight(o.base, n1, n2); err != nil {
				return 0, 0, err
			}
		}
		return key, clampFrac(op.Pos) * w, nil
	default:
		return 0, 0, fmt.Errorf("%w: bad edge selector %d for op", network.ErrInvalidOptions, op.Edge)
	}
}

// adopt copies an edge's base point group into the mutable overlay (empty for
// point-free edges), validating that the edge exists.
func (o *Overlay) adopt(key uint64) (*edgeList, error) {
	at, ok := o.findAdopted(key)
	if ok {
		return o.adopted[at], nil
	}
	n1, n2 := network.UnpackEdgeKey(key)
	el := &edgeList{key: key, n1: n1, n2: n2}
	el.bgi, el.inBase = o.baseGroupIndex(key)
	if el.inBase {
		pg := o.baseGroups[el.bgi]
		_, pos, _, tag := csr.Columns(o.base)
		el.weight = pg.Weight
		el.pts = make([]listEntry, pg.Count)
		for i := range el.pts {
			p := pg.First + network.PointID(i)
			el.pts[i] = listEntry{pos: pos[p], tag: tag[p], slot: o.baseSlots[p]}
		}
	} else {
		w, err := network.EdgeWeight(o.base, n1, n2)
		if err != nil {
			if errors.Is(err, network.ErrNoEdge) {
				err = fmt.Errorf("%w: %v", network.ErrInvalidOptions, err)
			}
			return nil, err
		}
		el.weight = w
	}
	o.adopted = slices.Insert(o.adopted, at, el)
	return el, nil
}

// findAdopted finds the adopted list of edge key by binary search, or where
// it would go.
func (o *Overlay) findAdopted(key uint64) (int, bool) {
	return slices.BinarySearchFunc(o.adopted, key, func(el *edgeList, key uint64) int {
		return cmp.Compare(el.key, key)
	})
}

// baseGroupIndex finds the base group holding edge key, by binary search over
// the ascending key index.
func (o *Overlay) baseGroupIndex(key uint64) (int, bool) {
	lo, hi := 0, len(o.baseKeys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if o.baseKeys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(o.baseKeys) && o.baseKeys[lo] == key
}
