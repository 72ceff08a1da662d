package csr

import (
	"context"
	"fmt"
	"math"

	"netclus/internal/heapx"
	"netclus/internal/network"
)

// entry is a lazy-deletion Dijkstra frontier element of the kernel.
type entry struct {
	node int32
	dist float64
}

func lessEntry(a, b entry) bool { return a.dist < b.dist }

// Scratch is the kernel's reusable ε-range query state over one snapshot
// family: epoch-stamped node-distance and point-visited arrays (O(1) reset, no
// per-query clearing) and a 4-ary frontier heap. It implements
// network.RangeQuerier; obtain one through Snapshot.NewRangeScratch (or
// network.ScratchFor, which dispatches here for snapshots). A query rebinds
// it to the graph it is handed, which may be any snapshot derived from the
// same base (Derive) or a graph embedding one, such as a live overlay's
// view; any other graph is refused. A Scratch belongs to one
// goroutine; any number may query the shared snapshots concurrently.
type Scratch struct {
	sn *Snapshot

	nodeDist  []float64
	nodeEpoch []int32
	ptDist    []float64
	ptEpoch   []int32
	epoch     int32
	heap      *heapx.Heap4[entry]
	result    []network.PointID
	resultD   []network.PointDist
	knnS      []network.PointDist // kNN candidate set backing array

	// The filter-and-refine path delegates to a generic RangeScratch over
	// the snapshot (lazily created), keeping the Bounder contract and its
	// counters unchanged. It is sized for one snapshot, so a rebind drops it,
	// folding its counters into pruneBase.
	bounder   network.Bounder
	pruned    *network.RangeScratch
	pruneBase network.PruneStats
}

var _ network.RangeQuerier = (*Scratch)(nil)

// NewRangeScratch returns a fresh kernel scratch over the snapshot,
// satisfying network.ScratchProvider.
func (s *Snapshot) NewRangeScratch() network.RangeQuerier { return s.newScratch() }

func (s *Snapshot) newScratch() *Scratch {
	return &Scratch{
		sn:        s,
		nodeDist:  make([]float64, s.NumNodes()),
		nodeEpoch: make([]int32, s.NumNodes()),
		ptDist:    make([]float64, s.NumPoints()),
		ptEpoch:   make([]int32, s.NumPoints()),
		heap:      heapx.New4(lessEntry),
	}
}

// acquire draws a pooled scratch bound to s; release returns it. The kNN
// entry point and the batched range mode run through the pool, so their
// steady state allocates no traversal state — across a family's snapshots
// too, since the pool is the family's.
func (s *Snapshot) acquire() *Scratch {
	if sc, ok := s.pools.scratch.Get().(*Scratch); ok {
		sc.bind(s)
		return sc
	}
	return s.newScratch()
}

func (s *Snapshot) release(sc *Scratch) { s.pools.scratch.Put(sc) }

// snapshotOf is satisfied by a snapshot and by every graph that embeds one.
type snapshotOf interface{ snapshot() *Snapshot }

func (s *Snapshot) snapshot() *Snapshot { return s }

// rebind points the scratch at g ahead of a query (see Scratch).
func (sc *Scratch) rebind(g network.Graph) error {
	if g == network.Graph(sc.sn) {
		return nil
	}
	if e, ok := g.(snapshotOf); ok && e.snapshot().pools == sc.sn.pools {
		sc.bind(e.snapshot())
		return nil
	}
	return fmt.Errorf("%w: a range scratch of a compiled snapshot cannot query %T outside its family", network.ErrInvalidOptions, g)
}

// bind points the scratch at sn, a snapshot of its family. The node arrays
// fit every member; the point arrays are regrown, with headroom, only when sn
// holds more points than they do. Stale stamps are harmless: every query
// draws a fresh epoch.
func (sc *Scratch) bind(sn *Snapshot) {
	if sc.sn == sn {
		return
	}
	if sc.pruned != nil {
		sc.pruneBase.Add(sc.pruned.PruneStats())
		sc.pruned = nil
	}
	sc.sn = sn
	if n := len(sn.ptPos); n > len(sc.ptEpoch) {
		sc.ptDist = make([]float64, headroom(n))
		sc.ptEpoch = make([]int32, headroom(n))
	}
}

// headroom is the capacity pooled per-point state is regrown to: a live
// overlay's point count drifts by a few points per write batch, so exact
// sizing would regrow on most of them.
func headroom(n int) int { return n + n/8 + 64 }

// SetBounder installs a lower-bound provider: subsequent RangeQueryCtx calls
// run the generic filter-and-refine path over the snapshot (identical result
// set). RangeQueryDistCtx always runs the kernel expansion, like the generic
// scratch always runs its plain one. Pass nil to return to the kernel path.
func (sc *Scratch) SetBounder(b network.Bounder) {
	sc.bounder = b
	if b == nil && sc.pruned != nil {
		sc.pruned.SetBounder(nil)
	}
}

// PruneStats returns the pruning counters accumulated by filter-and-refine
// queries on this scratch (zero while no bounder was ever installed).
func (sc *Scratch) PruneStats() network.PruneStats {
	st := sc.pruneBase
	if sc.pruned != nil {
		st.Add(sc.pruned.PruneStats())
	}
	return st
}

// RangeQueryCtx returns the IDs of every point within eps of p (p included)
// on g, which must belong to the scratch's snapshot family. The slice is
// reused by the next query on this scratch.
func (sc *Scratch) RangeQueryCtx(ctx context.Context, g network.Graph, p network.PointID, eps float64) ([]network.PointID, error) {
	if err := sc.rebind(g); err != nil {
		return nil, err
	}
	if sc.bounder != nil {
		return sc.RangeQueryLimitCtx(ctx, g, p, eps, math.MaxInt)
	}
	if err := sc.run(ctx, p, eps); err != nil {
		return nil, err
	}
	return sc.result, nil
}

// RangeQueryLimitCtx is RangeQueryCtx with the early exit of the
// network.RangeQuerier contract: the filter-and-refine path under a bounder,
// the recording counting expansion of the fused core-flag pass otherwise.
func (sc *Scratch) RangeQueryLimitCtx(ctx context.Context, g network.Graph, p network.PointID, eps float64, limit int) ([]network.PointID, error) {
	if err := sc.rebind(g); err != nil {
		return nil, err
	}
	if sc.bounder != nil {
		if sc.pruned == nil {
			sc.pruned = network.NewRangeScratch(sc.sn)
		}
		sc.pruned.SetBounder(sc.bounder)
		return sc.pruned.RangeQueryLimitCtx(ctx, sc.sn, p, eps, limit)
	}
	if _, err := sc.rangeCount(ctx, p, eps, limit, true); err != nil {
		return nil, err
	}
	return sc.result, nil
}

// RangeQueryDistCtx returns every point within eps of p with its exact
// network distance, in the canonical ascending (Dist, Point) order shared
// with the generic scratch. The slice is reused by the next query.
func (sc *Scratch) RangeQueryDistCtx(ctx context.Context, g network.Graph, p network.PointID, eps float64) ([]network.PointDist, error) {
	if err := sc.rebind(g); err != nil {
		return nil, err
	}
	if err := sc.run(ctx, p, eps); err != nil {
		return nil, err
	}
	sc.resultD = sc.resultD[:0]
	for _, q := range sc.result {
		sc.resultD = append(sc.resultD, network.PointDist{Point: q, Dist: sc.ptDist[q]})
	}
	network.SortPointDists(sc.resultD)
	return sc.resultD, nil
}

func (sc *Scratch) nextEpoch() {
	if sc.epoch == math.MaxInt32 {
		// Stamp wrap-around: clear everything once per 2^31 queries.
		for i := range sc.nodeEpoch {
			sc.nodeEpoch[i] = 0
		}
		for i := range sc.ptEpoch {
			sc.ptEpoch[i] = 0
		}
		sc.epoch = 0
	}
	sc.epoch++
	sc.heap.Clear()
	sc.result = sc.result[:0]
}

func (sc *Scratch) dist(n int32) float64 {
	if sc.nodeEpoch[n] != sc.epoch {
		return network.Inf
	}
	return sc.nodeDist[n]
}

// addPoint records q as reachable at distance d, keeping the minimum over
// all discovery routes — the same accumulation as the generic scratch, so
// the per-point distances are bit-identical.
func (sc *Scratch) addPoint(q network.PointID, d float64) {
	if sc.ptEpoch[q] != sc.epoch {
		sc.ptEpoch[q] = sc.epoch
		sc.ptDist[q] = d
		sc.result = append(sc.result, q)
	} else if d < sc.ptDist[q] {
		sc.ptDist[q] = d
	}
}

// run is the kernel's bounded multi-source Dijkstra: the same expansion as
// RangeScratch.run over the flat arrays, with no interface dispatch and no
// per-row error checks. Result distances match the generic path bit for bit
// (same routes, same association order); only the discovery order of the ID
// slice differs, because the 4-ary heap settles equidistant nodes in a
// different sequence.
func (sc *Scratch) run(ctx context.Context, p network.PointID, eps float64) error {
	ticks := 0
	if err := cancelCheck(ctx, &ticks); err != nil {
		return err // poll once per query even when the expansion stays empty
	}
	sn := sc.sn
	if p < 0 || int(p) >= len(sn.ptPos) {
		return fmt.Errorf("%w: %d", network.ErrPointRange, p)
	}
	sc.nextEpoch()
	pg := &sn.groups[sn.ptGrp[p]]
	pos := sn.ptPos[p]

	// Same-edge points reachable directly along the edge. The bucket is
	// position-sorted and p sits at index p-first inside it, so scanning
	// outward from p replaces the binary search; pos-off[i] on the left arm
	// equals |off[i]-pos| bit for bit (IEEE negation is exact).
	first := int32(pg.First)
	off := sn.ptPos[first : first+pg.Count]
	pi := int(int32(p) - first)
	for i := pi; i >= 0 && pos-off[i] <= eps; i-- {
		sc.addPoint(network.PointID(first+int32(i)), pos-off[i])
	}
	for i := pi + 1; i < len(off) && off[i]-pos <= eps; i++ {
		sc.addPoint(network.PointID(first+int32(i)), off[i]-pos)
	}

	// Bounded expansion from the edge exits (Definition 4 seeds).
	if pos <= eps {
		sc.heap.Push(entry{node: int32(pg.N1), dist: pos})
	}
	if d := pg.Weight - pos; d <= eps {
		sc.heap.Push(entry{node: int32(pg.N2), dist: d})
	}
	for !sc.heap.Empty() {
		e := sc.heap.Pop()
		if e.dist >= sc.dist(e.node) {
			continue
		}
		if err := cancelCheck(ctx, &ticks); err != nil {
			return err
		}
		sc.nodeEpoch[e.node] = sc.epoch
		sc.nodeDist[e.node] = e.dist
		for _, nb := range sn.adj[sn.rowOff[e.node]:sn.rowOff[e.node+1]] {
			if nb.Group >= 0 {
				sc.collect(e.node, int32(nb.Group), e.dist, eps)
			}
			if nd := e.dist + nb.Weight; nd <= eps {
				if v := int32(nb.Node); nd < sc.dist(v) {
					sc.heap.Push(entry{node: v, dist: nd})
				}
			}
		}
	}
	return nil
}

// collect adds the points of group gid whose along-edge distance from node u
// (itself at du from the query point) keeps the total within eps. The
// arithmetic mirrors RangeScratch.collectFrom expression for expression.
func (sc *Scratch) collect(u, gid int32, du, eps float64) {
	sn := sc.sn
	pg := &sn.groups[gid]
	first := int32(pg.First)
	off := sn.ptPos[first : first+pg.Count]
	budget := eps - du
	if u == int32(pg.N1) {
		// Offsets ascend from u: a prefix qualifies.
		for i := 0; i < len(off) && off[i] <= budget; i++ {
			sc.addPoint(network.PointID(first+int32(i)), du+off[i])
		}
	} else {
		// Distances from u are Weight-off: a suffix qualifies.
		for i := len(off) - 1; i >= 0 && pg.Weight-off[i] <= budget; i-- {
			sc.addPoint(network.PointID(first+int32(i)), du+pg.Weight-off[i])
		}
	}
}

// cancelCheckMask paces the context polls of the kernel loops, matching the
// cadence of the generic traversal (once per 256 settled entries).
const cancelCheckMask = 255

// cancelCheck is network's cancelCheck for the flat kernels: a non-blocking
// receive on ctx.Done() at the first and every 256th bump.
func cancelCheck(ctx context.Context, counter *int) error {
	*counter++
	if *counter != 1 && *counter&cancelCheckMask != 0 {
		return nil
	}
	return pollCancel(ctx)
}

// pollCancel is cancelCheck's poll, out of line so that the counting above
// inlines into every kernel loop.
func pollCancel(ctx context.Context) error {
	done := ctx.Done()
	if done == nil {
		return nil // a context that is never cancelled, such as Background
	}
	select {
	case <-done:
		return fmt.Errorf("csr: traversal cancelled: %w", ctx.Err())
	default:
		return nil
	}
}
