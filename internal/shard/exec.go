package shard

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"netclus/internal/csr"
	"netclus/internal/network"
)

// Querier is the scatter-gather executor of one goroutine: per-shard seeded
// kernel scratches plus the cross-shard stitch state (proposal and relax
// labels over global nodes, cut-point candidates over global points), all
// epoch-stamped for O(1) reset. It implements network.RangeQuerier; obtain
// one through Set.NewRangeScratch (or network.ScratchFor).
//
// A query runs in rounds to the cross-shard fixpoint: every shard with
// pending boundary seeds (or the unrun home shard of the query point) runs
// its seeded kernel, then the executor walks the boundary nodes each run
// settled and relaxes their cut edges — collecting cut-group points itself
// and proposing improved distances as seeds into the neighbouring shard.
// Distances are the unique least fixpoint of the same relaxations the
// single-snapshot kernel applies, evaluated expression for expression with
// the same operand order, so results are byte-identical to it.
type Querier struct {
	set *Set
	sc  []*csr.Scratch // lazy per-shard seeded scratches, watch = boundary

	epoch int32
	// bnd is the best distance proposed *to* a node so far (dedups seed
	// sends); rlx is the settled distance a node's cut edges were last
	// relaxed *from*. They must stay separate: a node that settles exactly
	// at its proposed distance still has to be stitched once.
	bnd   []float64
	bndEp []int32
	rlx   []float64
	rlxEp []int32
	// cptD carries per-global-point state: the best distance of cut-group
	// points found by the executor (range), and each candidate's best offer
	// so far (kNN), exactly the role csr's ptDist plays.
	cptD   []float64
	cptEp  []int32
	cutPts []network.PointID

	pend [][]network.Seed // boundary seeds for the next run, local node IDs
	ran  []bool

	resID []network.PointID
	resD  []network.PointDist
	// resS holds each shard's mapped-and-sorted range results, produced in a
	// parallel gather round; the mrg* fields carry the aggregation-tree state
	// that pair-merges those lists down to at most two before cutD and
	// mergeHeads feed the final serial merge.
	resS       [][]network.PointDist
	cutD       []network.PointDist
	mergeHeads [][]network.PointDist
	mrgLists   [][]network.PointDist
	mrgMerged  [][]network.PointDist
	mrgOwner   []int32
	mrgBufs    [2][][]network.PointDist
	pairFor    []int32
	gOffS      []network.PointDist
	gMergeS    []network.PointDist
	gOff       goffers
	qt0        time.Time

	runList    []int32
	runNs      []int64
	runErr     []error
	totalRunNs int64
	critRunNs  int64

	// Filter-and-refine delegation, same contract as the csr scratch.
	bounder network.Bounder
	pruned  *network.RangeScratch
}

var _ network.RangeQuerier = (*Querier)(nil)

// NewRangeScratch returns a fresh executor over the set, satisfying
// network.ScratchProvider.
func (set *Set) NewRangeScratch() network.RangeQuerier { return newQuerier(set) }

func newQuerier(set *Set) *Querier {
	return &Querier{
		set:   set,
		sc:    make([]*csr.Scratch, set.k),
		bnd:   make([]float64, len(set.nodeShard)),
		bndEp: make([]int32, len(set.nodeShard)),
		rlx:   make([]float64, len(set.nodeShard)),
		rlxEp: make([]int32, len(set.nodeShard)),
		cptD:  make([]float64, len(set.ptPos)),
		cptEp: make([]int32, len(set.ptPos)),
		pend:  make([][]network.Seed, set.k),
		ran:   make([]bool, set.k),
		resS:  make([][]network.PointDist, set.k),
		mrgBufs: [2][][]network.PointDist{
			make([][]network.PointDist, set.k),
			make([][]network.PointDist, set.k),
		},
		pairFor: make([]int32, set.k),
	}
}

func (set *Set) acquireQuerier() *Querier  { return set.querierPool.Get().(*Querier) }
func (set *Set) releaseQuerier(q *Querier) { set.querierPool.Put(q) }

// KNNCtx answers a k-nearest-neighbour query through the scatter-gather
// executor, satisfying network.KNNQuerier. Results are byte-identical to
// csr.Snapshot.KNNCtx over one snapshot of the whole network.
func (set *Set) KNNCtx(ctx context.Context, p network.PointID, k int) ([]network.PointDist, error) {
	if k < 1 {
		return nil, fmt.Errorf("%w: k-NN needs k >= 1, got %d", network.ErrInvalidOptions, k)
	}
	k = min(k, len(set.ptPos))
	q := set.acquireQuerier()
	defer set.releaseQuerier(q)
	if err := q.runKNN(ctx, p, k); err != nil {
		return nil, err
	}
	out := make([]network.PointDist, len(q.gOff.s))
	copy(out, q.gOff.s)
	q.finish()
	return out, nil
}

// SetBounder installs a lower-bound provider: subsequent RangeQueryCtx calls
// run the generic filter-and-refine path over the set (identical result
// set), exactly as the csr scratch delegates. Pass nil to return to the
// scatter-gather path.
func (q *Querier) SetBounder(b network.Bounder) {
	q.bounder = b
	if b == nil && q.pruned != nil {
		q.pruned.SetBounder(nil)
	}
}

// PruneStats returns the pruning counters of filter-and-refine queries.
func (q *Querier) PruneStats() network.PruneStats {
	if q.pruned == nil {
		return network.PruneStats{}
	}
	return q.pruned.PruneStats()
}

// RangeQueryCtx returns the IDs of every point within eps of p (p included).
// The slice is reused by the next query on this executor.
func (q *Querier) RangeQueryCtx(ctx context.Context, g network.Graph, p network.PointID, eps float64) ([]network.PointID, error) {
	return q.RangeQueryLimitCtx(ctx, g, p, eps, math.MaxInt)
}

// RangeQueryLimitCtx is RangeQueryCtx with the early exit of the
// network.RangeQuerier contract on the filter-and-refine path; the
// scatter-gather rounds have none and return the whole neighbourhood.
func (q *Querier) RangeQueryLimitCtx(ctx context.Context, g network.Graph, p network.PointID, eps float64, limit int) ([]network.PointID, error) {
	if q.bounder != nil {
		if q.pruned == nil {
			q.pruned = network.NewRangeScratch(q.set)
		}
		q.pruned.SetBounder(q.bounder)
		return q.pruned.RangeQueryLimitCtx(ctx, q.set, p, eps, limit)
	}
	if err := q.runRange(ctx, p, eps); err != nil {
		return nil, err
	}
	set := q.set
	q.resID = q.resID[:0]
	for s := 0; s < set.k; s++ {
		if !q.ran[s] {
			continue
		}
		for _, lq := range q.sc[s].RangeResults() {
			q.resID = append(q.resID, network.PointID(set.pointGlobal[s][lq]))
		}
	}
	q.resID = append(q.resID, q.cutPts...)
	q.finish()
	return q.resID, nil
}

// RangeQueryDistCtx returns every point within eps of p with its exact
// network distance, ascending (Dist, Point). The slice is reused by the
// next query on this executor.
//
// Assembly is itself scattered: a gather round has every ran shard map its
// results to global IDs and sort them locally, then aggregation-tree rounds
// pair-merge the sorted lists — each pair on its first member's shard —
// until at most two remain, and the executor serially merges those with the
// cut-group list. The shard-side rounds are parallel work (on the shard's
// core in a real deployment), so the serial stitch cost of a wide query
// drops from the O(R·log R) global sort to one two-or-three-way merge pass.
// Point sets are disjoint across shards and the cut-group list, and every
// merge uses the canonical (Dist, Point) order, so the output is
// byte-identical to sorting the concatenation.
func (q *Querier) RangeQueryDistCtx(ctx context.Context, g network.Graph, p network.PointID, eps float64) ([]network.PointDist, error) {
	if err := q.runRange(ctx, p, eps); err != nil {
		return nil, err
	}
	set := q.set
	q.runList = q.runList[:0]
	for s := 0; s < set.k; s++ {
		if q.ran[s] {
			q.runList = append(q.runList, int32(s))
		}
	}
	if len(q.runList) > 0 {
		err := q.runShards(ctx, func(s int) error {
			sc := q.sc[s]
			res := q.resS[s][:0]
			for _, lq := range sc.RangeResults() {
				res = append(res, network.PointDist{
					Point: network.PointID(set.pointGlobal[s][lq]),
					Dist:  sc.PointDist(lq),
				})
			}
			network.SortPointDists(res)
			q.resS[s] = res
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	lists, owners := q.mrgLists[:0], q.mrgOwner[:0]
	for _, s := range q.runList {
		if len(q.resS[s]) > 0 {
			lists = append(lists, q.resS[s])
			owners = append(owners, s)
		}
	}
	parity := 0
	for len(lists) > 2 {
		np := len(lists) / 2
		odd := len(lists)%2 == 1
		merged := q.mrgMerged[:0]
		q.runList = q.runList[:0]
		for j := 0; j < np; j++ {
			s := owners[2*j]
			q.pairFor[s] = int32(j)
			q.runList = append(q.runList, s)
			merged = append(merged, nil)
		}
		q.mrgMerged = merged
		err := q.runShards(ctx, func(s int) error {
			j := q.pairFor[s]
			out := mergePointDists(q.mrgBufs[parity][s][:0], lists[2*j], lists[2*j+1])
			q.mrgBufs[parity][s] = out
			merged[j] = out
			return nil
		})
		if err != nil {
			return nil, err
		}
		for j := 0; j < np; j++ {
			lists[j], owners[j] = merged[j], owners[2*j]
		}
		if odd {
			lists[np], owners[np] = lists[len(lists)-1], owners[len(owners)-1]
			np++
		}
		lists, owners = lists[:np], owners[:np]
		parity ^= 1
	}
	q.mrgLists, q.mrgOwner = lists, owners
	q.cutD = q.cutD[:0]
	for _, gq := range q.cutPts {
		q.cutD = append(q.cutD, network.PointDist{Point: gq, Dist: q.cptD[gq]})
	}
	network.SortPointDists(q.cutD)
	heads := q.mergeHeads[:0]
	if len(q.cutD) > 0 {
		heads = append(heads, q.cutD)
	}
	heads = append(heads, lists...)
	q.mergeHeads = heads
	q.resD = q.resD[:0]
	for {
		best := -1
		for i, h := range heads {
			if len(h) == 0 {
				continue
			}
			if best < 0 || h[0].Dist < heads[best][0].Dist ||
				(h[0].Dist == heads[best][0].Dist && h[0].Point < heads[best][0].Point) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		q.resD = append(q.resD, heads[best][0])
		heads[best] = heads[best][1:]
	}
	q.finish()
	return q.resD, nil
}

// mergePointDists appends the two-way merge of sorted disjoint lists a and b
// onto dst in the canonical ascending (Dist, Point) order.
func mergePointDists(dst, a, b []network.PointDist) []network.PointDist {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Dist < b[j].Dist || (a[i].Dist == b[j].Dist && a[i].Point < b[j].Point) {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

func (q *Querier) newEpoch() {
	if q.epoch == math.MaxInt32 {
		for i := range q.bndEp {
			q.bndEp[i] = 0
		}
		for i := range q.rlxEp {
			q.rlxEp[i] = 0
		}
		for i := range q.cptEp {
			q.cptEp[i] = 0
		}
		q.epoch = 0
	}
	q.epoch++
	q.cutPts = q.cutPts[:0]
	for s := range q.ran {
		q.ran[s] = false
		q.pend[s] = q.pend[s][:0]
	}
	q.totalRunNs, q.critRunNs = 0, 0
}

func (q *Querier) bndGet(n int32) float64 {
	if q.bndEp[n] != q.epoch {
		return network.Inf
	}
	return q.bnd[n]
}

func (q *Querier) rlxGet(n int32) float64 {
	if q.rlxEp[n] != q.epoch {
		return network.Inf
	}
	return q.rlx[n]
}

// addCutPoint records cut-group point gq at distance d, keeping the minimum
// over discovery routes — the executor's twin of the kernel's addPoint.
func (q *Querier) addCutPoint(gq network.PointID, d float64) {
	if q.cptEp[gq] != q.epoch {
		q.cptEp[gq] = q.epoch
		q.cptD[gq] = d
		q.cutPts = append(q.cutPts, gq)
	} else if d < q.cptD[gq] {
		q.cptD[gq] = d
	}
}

func (q *Querier) scratch(s int) *csr.Scratch {
	if q.sc[s] == nil {
		q.sc[s] = q.set.shards[s].NewKernelScratch()
		q.sc[s].SetWatch(q.set.boundary[s])
	}
	return q.sc[s]
}

// proposeRange queues distance nd for global node gv as a seed into its
// shard, deduped by the best proposal so far.
func (q *Querier) proposeRange(gv int32, nd float64) {
	if nd < q.bndGet(gv) {
		q.bnd[gv], q.bndEp[gv] = nd, q.epoch
		s := q.set.nodeShard[gv]
		q.pend[s] = append(q.pend[s], network.Seed{Node: network.NodeID(q.set.nodeLocal[gv]), Dist: nd})
	}
}

// runRange drives an ε-range query to the cross-shard fixpoint.
func (q *Querier) runRange(ctx context.Context, p network.PointID, eps float64) error {
	set := q.set
	if p < 0 || int(p) >= len(set.ptPos) {
		return fmt.Errorf("%w: %d", network.ErrPointRange, p)
	}
	q.qt0 = time.Now()
	q.newEpoch()
	home := set.pointShard[p]
	if home < 0 {
		// p lies on a cut edge: the executor itself plays the kernel's
		// same-edge arms and edge-exit seeding over the global tables.
		pg := &set.groups[set.ptGrp[p]]
		pos := set.ptPos[p]
		first := int32(pg.First)
		off := set.ptPos[first : first+pg.Count]
		pi := int(int32(p) - first)
		for i := pi; i >= 0 && pos-off[i] <= eps; i-- {
			q.addCutPoint(network.PointID(first+int32(i)), pos-off[i])
		}
		for i := pi + 1; i < len(off) && off[i]-pos <= eps; i++ {
			q.addCutPoint(network.PointID(first+int32(i)), off[i]-pos)
		}
		if pos <= eps {
			q.proposeRange(int32(pg.N1), pos)
		}
		if d := pg.Weight - pos; d <= eps {
			q.proposeRange(int32(pg.N2), d)
		}
	}
	for {
		q.runList = q.runList[:0]
		for s := 0; s < set.k; s++ {
			if len(q.pend[s]) > 0 || (int32(s) == home && !q.ran[s]) {
				q.runList = append(q.runList, int32(s))
			}
		}
		if len(q.runList) == 0 {
			break
		}
		err := q.runShards(ctx, func(s int) error {
			sc := q.scratch(s)
			lp := network.PointID(-1)
			resume := q.ran[s]
			if int32(s) == home && !resume {
				lp = network.PointID(set.pointLocal[p])
			}
			err := sc.SeededRange(ctx, lp, q.pend[s], eps, resume)
			q.pend[s] = q.pend[s][:0]
			q.ran[s] = true
			return err
		})
		if err != nil {
			return err
		}
		// Stitch: relax the cut edges of every boundary node that settled
		// (at an improved distance) during this round.
		for _, s := range q.runList {
			sc := q.sc[s]
			for _, lu := range sc.Settled() {
				gu := set.nodeGlobal[s][lu]
				d, ok := sc.NodeDist(lu)
				if !ok || d >= q.rlxGet(gu) {
					continue
				}
				q.rlx[gu], q.rlxEp[gu] = d, q.epoch
				q.relaxRangeBoundary(gu, d, eps)
			}
		}
	}
	return nil
}

// relaxRangeBoundary relaxes the cut edges of global node gu, settled at du:
// collecting the points of cut groups within budget (the kernel's collect,
// expression for expression) and proposing the far endpoints as seeds.
func (q *Querier) relaxRangeBoundary(gu int32, du, eps float64) {
	set := q.set
	for i := set.cutOff[gu]; i < set.cutOff[gu+1]; i++ {
		ce := &set.cutEdges[set.cutAdj[i]]
		if ce.Group >= 0 {
			pg := &set.groups[ce.Group]
			first := int32(pg.First)
			off := set.ptPos[first : first+pg.Count]
			budget := eps - du
			if gu == int32(pg.N1) {
				for j := 0; j < len(off) && off[j] <= budget; j++ {
					q.addCutPoint(network.PointID(first+int32(j)), du+off[j])
				}
			} else {
				for j := len(off) - 1; j >= 0 && pg.Weight-off[j] <= budget; j-- {
					q.addCutPoint(network.PointID(first+int32(j)), du+pg.Weight-off[j])
				}
			}
		}
		if nd := du + ce.Weight; nd <= eps {
			gv := int32(ce.U)
			if gv == gu {
				gv = int32(ce.V)
			}
			q.proposeRange(gv, nd)
		}
	}
}

// proposeKNN queues distance nd for global node gv as a seed into its shard,
// deduped by the best proposal and capped by the current global bound.
func (q *Querier) proposeKNN(gv int32, nd float64) {
	if nd <= q.gOff.bound() && nd < q.bndGet(gv) {
		q.bnd[gv], q.bndEp[gv] = nd, q.epoch
		s := q.set.nodeShard[gv]
		q.pend[s] = append(q.pend[s], network.Seed{Node: network.NodeID(q.set.nodeLocal[gv]), Dist: nd})
	}
}

// runKNN drives a kNN query to the cross-shard fixpoint. Per round, every
// shard runs its seeded kernel capped by the global k-th-best bound; its
// local candidate set (the best k local points) merges into the global one,
// and improved boundary nodes relay across cut edges — with the executor
// scanning cut groups itself, using the kernel's exact along-edge
// arithmetic and break-at-bound scans.
func (q *Querier) runKNN(ctx context.Context, p network.PointID, k int) error {
	set := q.set
	if p < 0 || int(p) >= len(set.ptPos) {
		return fmt.Errorf("%w: %d", network.ErrPointRange, p)
	}
	q.qt0 = time.Now()
	q.newEpoch()
	q.gOff = goffers{p: p, k: k, s: q.gOffS[:0], q: q}
	home := set.pointShard[p]
	if home < 0 {
		pg := &set.groups[set.ptGrp[p]]
		pos := set.ptPos[p]
		first := int32(pg.First)
		off := set.ptPos[first : first+pg.Count]
		pi := int(int32(p) - first)
		for i := pi; i >= 0; i-- {
			if d := pos - off[i]; d > q.gOff.bound() {
				break
			} else {
				q.gOff.offer(network.PointID(first+int32(i)), d)
			}
		}
		for i := pi + 1; i < len(off); i++ {
			if d := off[i] - pos; d > q.gOff.bound() {
				break
			} else {
				q.gOff.offer(network.PointID(first+int32(i)), d)
			}
		}
		q.proposeKNN(int32(pg.N1), pos)
		q.proposeKNN(int32(pg.N2), pg.Weight-pos)
	}
	// Scatter rounds to the fixpoint. A cut-group query (home < 0) starts from
	// the seeds proposed above; no shard owes it an unconditional first run.
	for {
		q.runList = q.runList[:0]
		for s := 0; s < set.k; s++ {
			if len(q.pend[s]) > 0 || (int32(s) == home && !q.ran[s]) {
				q.runList = append(q.runList, int32(s))
			}
		}
		if len(q.runList) == 0 {
			break
		}
		bound := q.gOff.bound()
		err := q.runShards(ctx, func(s int) error {
			sc := q.scratch(s)
			lp := network.PointID(-1)
			resume := q.ran[s]
			if int32(s) == home && !resume {
				lp = network.PointID(set.pointLocal[p])
			}
			err := sc.SeededKNN(ctx, lp, q.pend[s], k, bound, resume)
			q.pend[s] = q.pend[s][:0]
			q.ran[s] = true
			return err
		})
		if err != nil {
			return err
		}
		// Merge the local candidate sets — each is sorted in the canonical
		// order, so one linear pass per shard folds it into the global top-k —
		// then stitch improved boundary nodes across the cut edges.
		for _, s := range q.runList {
			q.mergeOffers(s, q.sc[s].KNNOffers())
		}
		for _, s := range q.runList {
			sc := q.sc[s]
			bnd := q.gOff.bound()
			for _, lu := range sc.Settled() {
				gu := set.nodeGlobal[s][lu]
				d, ok := sc.NodeDist(lu)
				if !ok || d >= q.rlxGet(gu) {
					continue
				}
				q.rlx[gu], q.rlxEp[gu] = d, q.epoch
				if d > bnd {
					// Every relay from gu is at least d: nothing it reaches
					// can enter the candidate set, so skip its cut edges.
					// rlx is still stamped — a later, shorter route to gu
					// re-relaxes it.
					continue
				}
				q.relaxKNNBoundary(gu, d)
				bnd = q.gOff.bound()
			}
		}
	}
	return nil
}

// mergeOffers folds shard s's current local candidate list — ascending
// (Dist, Point) over local IDs, which is also the global order because local
// IDs ascend with global IDs inside a shard — into the global top-k in one
// linear merge pass. Re-offers of known candidates skip on their per-point
// stamp, an improved offer supersedes the stale global entry (which the pass
// drops when it reaches it), and the pass stops at k entries: the surviving
// set and order are exactly what entry-by-entry offer() calls would build,
// without the O(k) insertion memmoves that dominate wide-k merges.
func (q *Querier) mergeOffers(s int32, offs []network.PointDist) {
	if len(offs) == 0 {
		return
	}
	o := &q.gOff
	set := q.set
	g := o.s
	out := q.gMergeS[:0]
	i, j := 0, 0
	for len(out) < o.k && (i < len(g) || j < len(offs)) {
		if j < len(offs) {
			gq := network.PointID(set.pointGlobal[s][offs[j].Point])
			d := offs[j].Dist
			if i >= len(g) || d < g[i].Dist || (d == g[i].Dist && gq < g[i].Point) {
				j++
				if gq == o.p {
					continue
				}
				if q.cptEp[gq] == q.epoch && d >= q.cptD[gq] {
					continue // already known at this distance or better
				}
				q.cptEp[gq], q.cptD[gq] = q.epoch, d
				out = append(out, network.PointDist{Point: gq, Dist: d})
				continue
			}
		}
		e := g[i]
		i++
		if q.cptD[e.Point] == e.Dist {
			out = append(out, e) // still this point's best offer
		}
	}
	q.gMergeS = g[:0] // retired backing array becomes the next pass's scratch
	o.s = out
	q.gOffS = out
}

// relaxKNNBoundary relays global node gu, settled at du, across its cut
// edges: scanning cut-group points with the kernel's exact arithmetic and
// proposing the far endpoints, both pruned by the global bound.
func (q *Querier) relaxKNNBoundary(gu int32, du float64) {
	set := q.set
	for i := set.cutOff[gu]; i < set.cutOff[gu+1]; i++ {
		ce := &set.cutEdges[set.cutAdj[i]]
		if ce.Group >= 0 {
			npg := &set.groups[ce.Group]
			nfirst := int32(npg.First)
			noff := set.ptPos[nfirst : nfirst+npg.Count]
			if gu == int32(npg.N1) {
				for j := 0; j < len(noff); j++ {
					d := du + noff[j]
					if d > q.gOff.bound() {
						break
					}
					q.gOff.offer(network.PointID(nfirst+int32(j)), d)
				}
			} else {
				for j := len(noff) - 1; j >= 0; j-- {
					d := du + (npg.Weight - noff[j])
					if d > q.gOff.bound() {
						break
					}
					q.gOff.offer(network.PointID(nfirst+int32(j)), d)
				}
			}
		}
		if nd := du + ce.Weight; nd <= q.gOff.bound() {
			gv := int32(ce.U)
			if gv == gu {
				gv = int32(ce.V)
			}
			q.proposeKNN(gv, nd)
		}
	}
}

// runShards executes run for every shard in q.runList — concurrently when
// the set allows more than one worker — and accounts the per-shard busy
// time, the round fan-out, and the critical-path model inputs.
func (q *Querier) runShards(ctx context.Context, run func(s int) error) error {
	set := q.set
	nr := len(q.runList)
	q.runNs = q.runNs[:0]
	for i := 0; i < nr; i++ {
		q.runNs = append(q.runNs, 0)
	}
	var firstErr error
	if set.workers > 1 && nr > 1 {
		q.runErr = q.runErr[:0]
		for i := 0; i < nr; i++ {
			q.runErr = append(q.runErr, nil)
		}
		sem := make(chan struct{}, set.workers)
		var wg sync.WaitGroup
		for i, s := range q.runList {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int, s int32) {
				defer wg.Done()
				rt := time.Now()
				q.runErr[i] = run(int(s))
				dt := time.Since(rt).Nanoseconds()
				q.runNs[i] = dt
				set.busyNs[s].Add(dt)
				set.localRuns[s].Add(1)
				<-sem
			}(i, s)
		}
		wg.Wait()
		for _, e := range q.runErr {
			if e != nil {
				firstErr = e
				break
			}
		}
	} else {
		for i, s := range q.runList {
			rt := time.Now()
			err := run(int(s))
			dt := time.Since(rt).Nanoseconds()
			q.runNs[i] = dt
			set.busyNs[s].Add(dt)
			set.localRuns[s].Add(1)
			if err != nil {
				firstErr = err
				break
			}
		}
	}
	var total, crit int64
	for _, ns := range q.runNs {
		total += ns
		if ns > crit {
			crit = ns
		}
	}
	q.totalRunNs += total
	q.critRunNs += crit
	set.rounds.Add(1)
	set.fanout.Add(int64(nr))
	return firstErr
}

// finish books the query's timing counters once the public entry point has
// assembled its result (so stitch AND assembly are accounted): WallNs is
// what this process measured; CritNs replaces the serialized shard runs
// with each round's slowest run — the cost with one core per shard.
func (q *Querier) finish() {
	set := q.set
	wall := time.Since(q.qt0).Nanoseconds()
	nonKernel := wall - q.totalRunNs
	if nonKernel < 0 {
		nonKernel = 0
	}
	set.critNs.Add(nonKernel + q.critRunNs)
	set.wallNs.Add(wall)
	set.queries.Add(1)
}

// goffers is the executor's global kNN candidate set: the same structure,
// tie-break and per-point best-offer stamps as the kernel's offers, over
// global point IDs. Because local IDs ascend with global IDs inside every
// shard, a shard's local (Dist, Point) order equals the global one, and
// merging per-shard top-k sets (plus the executor's own cut-group offers)
// reproduces the single-kernel candidate set exactly — ties included.
type goffers struct {
	p network.PointID
	k int
	s []network.PointDist
	q *Querier
}

func (o *goffers) bound() float64 {
	if len(o.s) < o.k {
		return network.Inf
	}
	return o.s[len(o.s)-1].Dist
}

func (o *goffers) offer(gq network.PointID, d float64) {
	if gq == o.p {
		return
	}
	q := o.q
	if q.cptEp[gq] == q.epoch {
		old := q.cptD[gq]
		if d >= old {
			return
		}
		q.cptD[gq] = d
		if at := o.search(old, gq); at < len(o.s) && o.s[at].Point == gq {
			o.s = append(o.s[:at], o.s[at+1:]...)
		}
	} else {
		q.cptEp[gq] = q.epoch
		q.cptD[gq] = d
	}
	if d > o.bound() {
		return
	}
	at := o.search(d, gq)
	o.s = append(o.s, network.PointDist{})
	copy(o.s[at+1:], o.s[at:])
	o.s[at] = network.PointDist{Point: gq, Dist: d}
	if len(o.s) > o.k {
		o.s = o.s[:o.k]
	}
	q.gOffS = o.s
}

func (o *goffers) search(d float64, gq network.PointID) int {
	return sort.Search(len(o.s), func(i int) bool {
		if o.s[i].Dist != d {
			return o.s[i].Dist > d
		}
		return o.s[i].Point >= gq
	})
}
