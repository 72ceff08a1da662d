// Package delta adds a write path on top of the immutable netclus graphs: an
// epoch-versioned overlay that accepts point insert/move/delete batches.
// Writes land in one FIFO queue and a single reconciler goroutine drains it,
// applies each batch atomically in arrival order, freezes an immutable view,
// and publishes it with one epoch bump per batch. Readers pin whatever view
// was current when their request began. Each view is a CSR snapshot derived
// from the one before it (csr.Derive) in the §4.1 point-group layout: the
// batch copies out only the groups of the edges it touches, and every other
// group is copied over from the last view in bulk runs. So every flat kernel
// and clustering algorithm runs on a view unchanged and byte-identical to a
// compile of the same logical content, and nothing accumulates between
// batches. See DESIGN.md §13.
package delta

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
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
	// CompactOps is accepted and ignored: a view is derived from the last
	// one, so there is no delta to compact. It stays for the benchmark,
	// which sets it (ROADMAP item 1 (A)).
	CompactOps int
	// Live enables incremental ε-Link/DBSCAN maintenance.
	Live *LiveOptions
}

func (o Options) withDefaults() Options {
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
	// Graph is the view: the base *csr.Snapshot itself at epoch 1, a *View
	// after that.
	Graph network.Graph
	// Epoch is the view's content version: 1 for the base, one more per
	// applied batch.
	Epoch int64
	// Points is Graph.NumPoints(), cached for cheap stats.
	Points int

	idToSlot []int32 // canonical point ID -> stable slot
	live     *liveSnap
}

// listEntry is one point in an edge list: its offset, tag, and the stable
// slot identity that survives canonical renumbering.
type listEntry struct {
	pos  float64
	tag  int32
	slot int32
}

// edgeList is the mutable form of one edge's point group, copied out of the
// last view the first time a batch touches the edge and dropped once the
// batch's view is frozen; untouched edges are copied from the last view at
// freeze time.
type edgeList struct {
	key    uint64
	n1, n2 network.NodeID
	weight float64
	pts    []listEntry // ascending pos; equal-pos ties keep insertion order
	// gi is the index of the edge's group in the last view when had, else
	// the index of the first group past it: where freeze interleaves the list.
	gi  int
	had bool
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

// rKind tags a resolved op.
type rKind uint8

const (
	rInsert rKind = iota + 1
	rDelete
)

// resolvedOp is a mutation resolved to the stable slot it adds or removes:
// what the live maintainer repairs its ε-graph from.
type resolvedOp struct {
	kind rKind
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

	// reconciler-owned state: the last published view — its snapshot, the
	// slot of each of its points and its point groups — and the edge lists
	// of the batch being applied, which live until its view is frozen.
	sn       *csr.Snapshot
	slots    []int32
	groups   []network.PointGroup
	lists    []*edgeList // ascending key
	points   int         // point count of the batch's content
	nextSlot int32       // only grows: a slot is never reused
	live     *live
	newIDs   []network.PointID // freeze's buffer for the batch's insert IDs

	closed    chan struct{}
	closeOnce sync.Once
	recDone   chan struct{}

	stats statCells
}

// statCells mirrors reconciler-owned counters into atomics for Stats().
type statCells struct {
	batches  atomic.Int64
	ops      atomic.Int64
	rejected atomic.Int64
	live     liveCounters
	liveNs   atomic.Int64
}

// Stats is a point-in-time snapshot of the overlay's write-path counters,
// serialized into /v1/datasets for live datasets.
type Stats struct {
	Epoch    int64 `json:"epoch"`
	Points   int   `json:"points"`
	Batches  int64 `json:"batches"`
	Ops      int64 `json:"ops"`
	Rejected int64 `json:"rejected"`
	// Compactions, PendingOps, MaxPauseMS, LastCompileMS and CompactRunning
	// are always zero and never serialized: nothing is compacted. They stay
	// for the benchmark, which reads them (ROADMAP item 1 (A)).
	Compactions    int64   `json:"-"`
	PendingOps     int64   `json:"-"`
	MaxPauseMS     float64 `json:"-"`
	LastCompileMS  float64 `json:"-"`
	CompactRunning bool    `json:"-"`
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
		sn:      sn,
		points:  sn.NumPoints(),
		wakeup:  make(chan struct{}, 1),
		closed:  make(chan struct{}),
		recDone: make(chan struct{}),
	}
	var err error
	if o.groups, err = indexGroups(sn); err != nil {
		return nil, err
	}
	o.slots = make([]int32, sn.NumPoints())
	for i := range o.slots {
		o.slots[i] = int32(i)
	}
	o.nextSlot = int32(sn.NumPoints())
	cur := &Current{Graph: sn, Epoch: initialEpoch, Points: sn.NumPoints(), idToSlot: o.slots}
	if o.opts.Live != nil {
		o.live = newLive(o.opts.Live.Eps, o.opts.Live.MinPts, &o.stats.live)
		snap, err := o.live.bootstrap(sn, o.slots)
		if err != nil {
			return nil, fmt.Errorf("delta: bootstrapping live clustering: %w", err)
		}
		cur.live = snap
	}
	o.cur.Store(cur)
	go o.reconcile()
	return o, nil
}

// indexGroups validates and lists a base's groups: strictly ascending
// canonical edge keys with dense First offsets, the shape freeze() merges
// against.
func indexGroups(sn *csr.Snapshot) ([]network.PointGroup, error) {
	var next network.PointID
	prev := uint64(0)
	groups := make([]network.PointGroup, 0, sn.NumGroups())
	err := sn.ScanGroups(func(gid network.GroupID, pg network.PointGroup, offs []float64) error {
		key := groupKey(pg)
		if gid > 0 && key <= prev {
			return fmt.Errorf("delta: base group %d out of edge-key order", gid)
		}
		if pg.First != next {
			return fmt.Errorf("delta: base group %d not dense (first %d, want %d)", gid, pg.First, next)
		}
		prev = key
		next += network.PointID(pg.Count)
		groups = append(groups, pg)
		return nil
	})
	return groups, err
}

func groupKey(pg network.PointGroup) uint64 { return network.EdgeKey(pg.N1, pg.N2) }

// Current returns the published read view. Callers use one Current for a
// whole request: graph, epoch, and live labels stay mutually consistent.
func (o *Overlay) Current() *Current { return o.cur.Load() }

// Stats snapshots the write-path counters.
func (o *Overlay) Stats() Stats {
	c := o.cur.Load()
	s := Stats{
		Epoch:    c.Epoch,
		Points:   c.Points,
		Batches:  o.stats.batches.Load(),
		Ops:      o.stats.ops.Load(),
		Rejected: o.stats.rejected.Load(),
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
// batch, and publishes its view.
func (o *Overlay) reconcile() {
	defer close(o.recDone)
	for {
		select {
		case <-o.wakeup:
			o.drainAndApply()
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
	cur, err := o.publish(resolved, first)
	if err != nil {
		// Live maintenance self-healed by full rebuild; only a bootstrap
		// failure reaches here.
		b.res <- applyResult{err: err}
		return
	}
	o.stats.batches.Add(1)
	o.stats.ops.Add(int64(len(b.ops)))
	b.res <- applyResult{r: Result{Epoch: cur.Epoch, Points: cur.Points}}
}

// publish freezes the batch's view, makes it the one the next batch derives
// from, refreshes the live labelling over the resolved ops, and swaps the new
// Current in, one epoch past the last. The batch's inserts hold the slots
// from first up.
func (o *Overlay) publish(resolved []resolvedOp, first int32) (*Current, error) {
	sn, idToSlot, groups, newIDs := o.freeze(first)
	o.sn, o.slots, o.groups = sn, idToSlot, groups
	o.dropLists()
	cur := &Current{Graph: &View{sn}, Epoch: o.cur.Load().Epoch + 1, Points: len(idToSlot), idToSlot: idToSlot}
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
	return cur, nil
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

// applyOps applies one batch atomically to edge lists copied out of the last
// view: every op validates and applies, or the lists are dropped, the slot
// and point counters restored, and the error names the offending op.
func (o *Overlay) applyOps(ops []Op) ([]resolvedOp, error) {
	savedSlot, savedPoints := o.nextSlot, o.points
	resolved := make([]resolvedOp, 0, len(ops))

	fail := func(i int, err error) ([]resolvedOp, error) {
		o.dropLists()
		o.nextSlot, o.points = savedSlot, savedPoints
		return nil, fmt.Errorf("op %d: %w", i, err)
	}
	// resolve maps a canonical ID of the last view to its slot, edge key and
	// edge weight.
	resolve := func(p network.PointID) (int32, uint64, float64, error) {
		if p < 0 || int(p) >= len(o.slots) {
			return 0, 0, 0, fmt.Errorf("%w: point %d of %d", network.ErrPointRange, p, len(o.slots))
		}
		pi, err := o.sn.PointInfo(p)
		if err != nil {
			return 0, 0, 0, err
		}
		return o.slots[p], network.EdgeKey(pi.N1, pi.N2), pi.Weight, nil
	}

	for i, op := range ops {
		if (op.Kind == OpInsert || op.Kind == OpMove) && math.IsNaN(op.Pos) {
			return fail(i, fmt.Errorf("%w: pos NaN", network.ErrInvalidOptions))
		}
		switch op.Kind {
		case OpInsert:
			key, pos, err := o.resolveDest(op, resolve)
			if err != nil {
				return fail(i, err)
			}
			el, err := o.list(key)
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
			resolved = append(resolved, resolvedOp{kind: rInsert, slot: slot})

		case OpDelete:
			slot, key, _, err := resolve(op.Point)
			if err != nil {
				return fail(i, err)
			}
			el, err := o.list(key)
			if err != nil {
				return fail(i, err)
			}
			if _, ok := el.remove(slot); !ok {
				return fail(i, fmt.Errorf("%w: point %d already mutated in this batch", network.ErrInvalidOptions, op.Point))
			}
			o.points--
			resolved = append(resolved, resolvedOp{kind: rDelete, slot: slot})

		case OpMove:
			slot, srcKey, _, err := resolve(op.Point)
			if err != nil {
				return fail(i, err)
			}
			src, err := o.list(srcKey)
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
			dst, err := o.list(dstKey)
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
				resolvedOp{kind: rDelete, slot: slot},
				resolvedOp{kind: rInsert, slot: slot2})

		default:
			return fail(i, fmt.Errorf("%w: unknown op kind %d", network.ErrInvalidOptions, op.Kind))
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
func (o *Overlay) resolveDest(op Op, resolve func(network.PointID) (int32, uint64, float64, error)) (uint64, float64, error) {
	switch op.Edge {
	case EdgeExplicit:
		if op.N1 == op.N2 {
			return 0, 0, fmt.Errorf("%w: self-loop edge (%d,%d)", network.ErrInvalidOptions, op.N1, op.N2)
		}
		if op.N1 < 0 || int(op.N1) >= o.sn.NumNodes() || op.N2 < 0 || int(op.N2) >= o.sn.NumNodes() {
			return 0, 0, fmt.Errorf("%w: edge (%d,%d)", network.ErrNodeRange, op.N1, op.N2)
		}
		n1, n2 := network.CanonEdge(op.N1, op.N2)
		return network.EdgeKey(n1, n2), op.Pos, nil
	case EdgeNear:
		_, key, w, err := resolve(op.Near)
		if err != nil {
			return 0, 0, err
		}
		return key, clampFrac(op.Pos) * w, nil
	default:
		return 0, 0, fmt.Errorf("%w: bad edge selector %d for op", network.ErrInvalidOptions, op.Edge)
	}
}

// list returns the batch's edge list of edge key, copying the edge's group
// out of the last view on first contact (empty for a point-free edge, after
// checking that the edge exists).
func (o *Overlay) list(key uint64) (*edgeList, error) {
	at, ok := slices.BinarySearchFunc(o.lists, key, func(el *edgeList, key uint64) int {
		return cmp.Compare(el.key, key)
	})
	if ok {
		return o.lists[at], nil
	}
	n1, n2 := network.UnpackEdgeKey(key)
	el := &edgeList{key: key, n1: n1, n2: n2}
	el.gi, el.had = slices.BinarySearchFunc(o.groups, key, func(pg network.PointGroup, key uint64) int {
		return cmp.Compare(groupKey(pg), key)
	})
	if el.had {
		pg := o.groups[el.gi]
		_, pos, _, tag := csr.Columns(o.sn)
		el.weight = pg.Weight
		el.pts = make([]listEntry, pg.Count)
		for i := range el.pts {
			p := pg.First + network.PointID(i)
			el.pts[i] = listEntry{pos: pos[p], tag: tag[p], slot: o.slots[p]}
		}
	} else {
		w, err := network.EdgeWeight(o.sn, n1, n2)
		if err != nil {
			if errors.Is(err, network.ErrNoEdge) {
				err = fmt.Errorf("%w: %v", network.ErrInvalidOptions, err)
			}
			return nil, err
		}
		el.weight = w
	}
	o.lists = slices.Insert(o.lists, at, el)
	return el, nil
}

// dropLists forgets the batch's edge lists.
func (o *Overlay) dropLists() {
	clear(o.lists)
	o.lists = o.lists[:0]
}
