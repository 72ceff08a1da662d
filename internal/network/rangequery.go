package network

import (
	"context"
	"math"
	"slices"
	"sort"

	"netclus/internal/heapx"
)

// RangeScratch holds the reusable state of network ε-range queries: stamped
// node-distance and point-visited arrays (O(1) reset between queries) and the
// traversal frontier. DBSCAN and OPTICS issue thousands of range queries per
// run, so amortizing these allocations dominates their constant factor.
type RangeScratch struct {
	nodeDist  []float64
	nodeEpoch []int32
	ptEpoch   []int32
	ptDist    []float64
	epoch     int32
	heap      *heapx.Heap[queueEntry]
	result    []PointID
	resultD   []PointDist

	// Lower-bound pruning state (active only when bounder is set).
	bounder   Bounder
	prune     PruneStats
	lbDist    []float64 // memoized target-set lower bound per node
	lbEpoch   []int32
	pendEpoch []int32 // per-point pending-candidate stamp
	pending   int
	targets   []PointInfo
	tb        TargetBounder
}

// NewRangeScratch allocates scratch space sized for g.
func NewRangeScratch(g Graph) *RangeScratch {
	return NewRangeScratchSize(g.NumNodes(), g.NumPoints())
}

// NewRangeScratchSize allocates scratch space for graphs of up to the given
// node and point counts. A scratch sized with headroom serves any smaller
// graph: every array is indexed by IDs of the queried graph and invalidated
// by epoch stamps, never scanned in full, so extra capacity is inert. Mutable
// overlays use this to keep one scratch across views whose point count
// drifts.
func NewRangeScratchSize(nodes, points int) *RangeScratch {
	return &RangeScratch{
		nodeDist:  make([]float64, nodes),
		nodeEpoch: make([]int32, nodes),
		ptEpoch:   make([]int32, points),
		ptDist:    make([]float64, points),
		lbDist:    make([]float64, nodes),
		lbEpoch:   make([]int32, nodes),
		pendEpoch: make([]int32, points),
		heap:      heapx.New(lessEntry),
	}
}

// SetBounder installs a lower-bound provider: subsequent RangeQuery /
// RangeQueryCtx calls run the filter-and-refine path (identical result set,
// in candidate rather than discovery order). RangeQueryDist always runs the
// plain expansion — its callers need exact distances for every result, which
// upper-bound acceptance does not produce. Pass nil to disable pruning.
func (s *RangeScratch) SetBounder(b Bounder) { s.bounder = b }

// PruneStats returns the pruning counters accumulated by queries on this
// scratch since its creation.
func (s *RangeScratch) PruneStats() PruneStats { return s.prune }

func (s *RangeScratch) nextEpoch() {
	if s.epoch == math.MaxInt32 {
		// Stamp wrap-around: clear everything once per 2^31 queries.
		for i := range s.nodeEpoch {
			s.nodeEpoch[i] = 0
		}
		for i := range s.ptEpoch {
			s.ptEpoch[i] = 0
		}
		for i := range s.lbEpoch {
			s.lbEpoch[i] = 0
		}
		for i := range s.pendEpoch {
			s.pendEpoch[i] = 0
		}
		s.epoch = 0
	}
	s.epoch++
	s.heap.Clear()
	s.result = s.result[:0]
}

func (s *RangeScratch) dist(n NodeID) float64 {
	if s.nodeEpoch[n] != s.epoch {
		return Inf
	}
	return s.nodeDist[n]
}

func (s *RangeScratch) setDist(n NodeID, d float64) {
	s.nodeEpoch[n] = s.epoch
	s.nodeDist[n] = d
}

// addPoint records q as reachable at distance d, keeping the minimum over
// all discovery routes (direct along the query's edge, or via either settled
// endpoint of q's edge).
func (s *RangeScratch) addPoint(q PointID, d float64) {
	if s.pendEpoch[q] == s.epoch {
		// A pending filter candidate just resolved within range. The epoch
		// counter never takes the zero value, so 0 is a safe "unmarked".
		s.pendEpoch[q] = 0
		s.pending--
	}
	if s.ptEpoch[q] != s.epoch {
		s.ptEpoch[q] = s.epoch
		s.ptDist[q] = d
		s.result = append(s.result, q)
	} else if d < s.ptDist[q] {
		s.ptDist[q] = d
	}
}

// RangeQuery returns the IDs of every point q with d(p, q) <= eps, including
// p itself — the network ε-neighborhood used by the DBSCAN adaptation
// (§4.3). It expands the network around p with a bounded Dijkstra, visiting
// only edges within ε of p (the range-search pattern of Papadias et al.,
// cited as [16] in the paper). The returned slice is reused by the next
// query on the same scratch.
func (s *RangeScratch) RangeQuery(g Graph, p PointID, eps float64) ([]PointID, error) {
	return s.RangeQueryCtx(context.Background(), g, p, eps)
}

// RangeQueryCtx is RangeQuery with cancellation: the expansion checks ctx
// periodically and returns an error wrapping ctx.Err() when it is done.
func (s *RangeScratch) RangeQueryCtx(ctx context.Context, g Graph, p PointID, eps float64) ([]PointID, error) {
	return s.RangeQueryLimitCtx(ctx, g, p, eps, math.MaxInt)
}

// RangeQueryLimitCtx is RangeQueryCtx for callers that only ask whether the
// ε-neighbourhood of p holds at least limit points (DBSCAN's core test): the
// search stops as soon as limit members are proven. It returns either the
// whole neighbourhood — fewer than limit points — or at least limit of its
// members. Results only ever grow, so stopping early never admits a point
// beyond eps.
func (s *RangeScratch) RangeQueryLimitCtx(ctx context.Context, g Graph, p PointID, eps float64, limit int) ([]PointID, error) {
	if s.bounder != nil {
		handled, err := s.runPruned(ctx, g, p, eps, limit)
		if err != nil {
			return nil, err
		}
		if handled {
			return s.result, nil
		}
		// The bounder cannot enumerate candidates (no validated planar
		// embedding); fall back to the plain expansion.
	}
	if err := s.run(ctx, g, p, eps, limit); err != nil {
		return nil, err
	}
	return s.result, nil
}

// RangeQueryDist is RangeQuery with exact network distances attached: every
// point q with d(p, q) <= eps, each at its true distance (minimum over the
// direct same-edge route and both endpoint routes), in ascending
// (Dist, Point) order. OPTICS builds its core and reachability distances
// from it; the canonical order makes its tie-sensitive seed relaxation
// independent of traversal discovery order, so the generic scratch and the
// CSR kernel feed it identical lists. The returned slice is reused by the
// next query on the same scratch.
func (s *RangeScratch) RangeQueryDist(g Graph, p PointID, eps float64) ([]PointDist, error) {
	return s.RangeQueryDistCtx(context.Background(), g, p, eps)
}

// RangeQueryDistCtx is RangeQueryDist with cancellation.
func (s *RangeScratch) RangeQueryDistCtx(ctx context.Context, g Graph, p PointID, eps float64) ([]PointDist, error) {
	if err := s.run(ctx, g, p, eps, math.MaxInt); err != nil {
		return nil, err
	}
	s.resultD = s.resultD[:0]
	for _, q := range s.result {
		s.resultD = append(s.resultD, PointDist{Point: q, Dist: s.ptDist[q]})
	}
	SortPointDists(s.resultD)
	return s.resultD, nil
}

// SortPointDists sorts pds into the canonical ascending (Dist, Point) order
// shared by every distance-returning query path. The comparator is a total
// order (no two entries share Point), so any sort produces the same bytes.
func SortPointDists(pds []PointDist) {
	slices.SortFunc(pds, func(a, b PointDist) int {
		switch {
		case a.Dist < b.Dist:
			return -1
		case a.Dist > b.Dist:
			return 1
		case a.Point < b.Point:
			return -1
		case a.Point > b.Point:
			return 1
		}
		return 0
	})
}

// run performs the bounded expansion shared by both query flavours, stopping
// early once limit points are in the result.
func (s *RangeScratch) run(ctx context.Context, g Graph, p PointID, eps float64, limit int) error {
	ticks := 0
	if err := cancelCheck(ctx, &ticks); err != nil {
		return err // poll once per query even when the expansion stays empty
	}
	s.nextEpoch()
	pi, err := g.PointInfo(p)
	if err != nil {
		return err
	}

	// Same-edge points reachable directly along the edge.
	if err := s.scanOwnEdge(g, pi, eps); err != nil {
		return err
	}
	if len(s.result) >= limit {
		return nil
	}

	// Bounded multi-source Dijkstra from p's edge exits.
	for _, sd := range PointSeeds(pi) {
		if sd.Dist <= eps {
			s.heap.Push(queueEntry{node: sd.Node, dist: sd.Dist})
		}
	}
	for !s.heap.Empty() {
		e := s.heap.Pop()
		if e.dist >= s.dist(e.node) {
			continue
		}
		if err := cancelCheck(ctx, &ticks); err != nil {
			return err
		}
		s.setDist(e.node, e.dist)
		adj, err := g.Neighbors(e.node)
		if err != nil {
			return err
		}
		for _, nb := range adj {
			if nb.Group != NoGroup {
				if err := s.collectFrom(g, e.node, nb, e.dist, eps); err != nil {
					return err
				}
				if len(s.result) >= limit {
					return nil
				}
			}
			if nd := e.dist + nb.Weight; nd <= eps && nd < s.dist(nb.Node) {
				s.heap.Push(queueEntry{node: nb.Node, dist: nd})
			}
		}
	}
	return nil
}

// scanOwnEdge adds the points reachable from the query point directly along
// its own edge (the d_L route of Definition 2).
func (s *RangeScratch) scanOwnEdge(g Graph, pi PointInfo, eps float64) error {
	off, err := g.GroupOffsets(pi.Group)
	if err != nil {
		return err
	}
	pg, err := g.Group(pi.Group)
	if err != nil {
		return err
	}
	lo := sort.SearchFloat64s(off, pi.Pos-eps)
	for i := lo; i < len(off) && off[i] <= pi.Pos+eps; i++ {
		d := off[i] - pi.Pos
		if d < 0 {
			d = -d
		}
		s.addPoint(pg.First+PointID(i), d)
	}
	return nil
}

// targetLB memoizes s.tb.Lower per node for the duration of one query.
func (s *RangeScratch) targetLB(v NodeID) float64 {
	if s.lbEpoch[v] == s.epoch {
		return s.lbDist[v]
	}
	d := s.tb.Lower(v)
	s.lbEpoch[v] = s.epoch
	s.lbDist[v] = d
	return d
}

// runPruned is the filter-and-refine range query: enumerate a Euclidean
// candidate superset, accept by upper bound and reject by lower bound
// without traversal, then resolve only the uncertain band with an expansion
// that (a) prunes frontier pushes whose target-set lower bound proves they
// cannot reach any pending candidate within eps and (b) stops as soon as
// every pending candidate is resolved. It produces exactly the result SET of
// run() — accepted points carry their upper bound, not their exact distance,
// which is why RangeQueryDist never uses this path. Both phases stop once
// limit points are in the result. Returns handled=false (scratch reusable,
// nothing recorded) when the bounder cannot enumerate candidates.
func (s *RangeScratch) runPruned(ctx context.Context, g Graph, p PointID, eps float64, limit int) (bool, error) {
	ticks := 0
	if err := cancelCheck(ctx, &ticks); err != nil {
		return true, err
	}
	pi, err := bounderPointInfo(g, s.bounder, p)
	if err != nil {
		return true, err
	}
	s.nextEpoch()
	s.pending = 0
	s.targets = s.targets[:0]

	handled := s.bounder.Candidates(pi, eps, func(q PointID, qi PointInfo, lb, ub float64) bool {
		s.prune.Candidates++
		if ub <= eps {
			s.prune.FilterAccepted++
			s.addPoint(q, ub)
			return len(s.result) < limit
		}
		if lb > eps {
			s.prune.FilterRejected++
			return true
		}
		s.prune.FilterUncertain++
		s.pendEpoch[q] = s.epoch
		s.pending++
		s.targets = append(s.targets, qi)
		return true
	})
	if !handled {
		return false, nil
	}
	// No own-edge scan here, unlike run(): the candidate bounds already
	// carry the direct same-edge route (a same-edge candidate with direct
	// distance <= eps is accepted by its upper bound), so a still-pending
	// same-edge candidate can only qualify through an endpoint route, which
	// the expansion below resolves. A query whose candidates all resolved
	// from the tables therefore touches the graph zero times.
	if s.pending == 0 || len(s.result) >= limit {
		s.prune.ZeroTraversalQueries++
		return true, nil
	}

	// Bounded expansion focused on the pending candidates.
	s.tb = s.bounder.TargetBounds(s.targets)
	for _, sd := range PointSeeds(pi) {
		if sd.Dist > eps {
			continue
		}
		if sd.Dist+s.targetLB(sd.Node) > eps {
			s.prune.PrunedPushes++
			continue
		}
		s.heap.Push(queueEntry{node: sd.Node, dist: sd.Dist})
	}
	for !s.heap.Empty() {
		e := s.heap.Pop()
		if e.dist >= s.dist(e.node) {
			continue
		}
		if err := cancelCheck(ctx, &ticks); err != nil {
			return true, err
		}
		s.setDist(e.node, e.dist)
		adj, err := g.Neighbors(e.node)
		if err != nil {
			return true, err
		}
		for _, nb := range adj {
			if nb.Group != NoGroup {
				if err := s.collectFrom(g, e.node, nb, e.dist, eps); err != nil {
					return true, err
				}
			}
			nd := e.dist + nb.Weight
			if nd > eps || nd >= s.dist(nb.Node) {
				continue
			}
			if nd+s.targetLB(nb.Node) > eps {
				// nb cannot reach any still-pending candidate within eps.
				// Along a true shortest path to a pending in-range
				// candidate, nd + lb never exceeds eps, so such paths are
				// never cut (see DESIGN.md, Lower-bound pruning).
				s.prune.PrunedPushes++
				continue
			}
			s.heap.Push(queueEntry{node: nb.Node, dist: nd})
		}
		if s.pending == 0 {
			s.prune.EarlyStops++
			break
		}
		if len(s.result) >= limit {
			break
		}
	}
	s.tb = nil
	return true, nil
}

// collectFrom adds the points of nb's group whose along-edge distance from
// node u (itself at du from the query point) keeps the total within eps.
func (s *RangeScratch) collectFrom(g Graph, u NodeID, nb Neighbor, du, eps float64) error {
	pg, err := g.Group(nb.Group)
	if err != nil {
		return err
	}
	off, err := g.GroupOffsets(nb.Group)
	if err != nil {
		return err
	}
	budget := eps - du
	if u == pg.N1 {
		// Offsets ascend from u: a prefix qualifies.
		for i := 0; i < len(off) && off[i] <= budget; i++ {
			s.addPoint(pg.First+PointID(i), du+off[i])
		}
	} else {
		// Distances from u are Weight-off: a suffix qualifies.
		for i := len(off) - 1; i >= 0 && pg.Weight-off[i] <= budget; i-- {
			s.addPoint(pg.First+PointID(i), du+pg.Weight-off[i])
		}
	}
	return nil
}
