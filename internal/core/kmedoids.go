package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"netclus/internal/heapx"
	"netclus/internal/network"
)

// MedoidState holds, for every network node, the index of its nearest medoid
// (in the current medoid set) and the network distance to it — the output of
// the Fig. 4 concurrent expansion, updated in place by the Fig. 5 incremental
// replacement. Unreachable/unassigned nodes have Med -1 and Dist +Inf.
//
// Between Begin and Rollback/Commit the state records every entry it
// overwrites, so that a rejected medoid swap is undone at the cost of what it
// changed (network.MedoidLog) instead of a copy of both arrays.
type MedoidState struct {
	Med  []int32
	Dist []float64

	log       network.MedoidLog
	recording bool

	// affected, seeds and frontier are scratch for the incremental update
	// and the generic expansion, kept on the state so the
	// once-per-attempted-swap call rate allocates nothing in steady state.
	// Never retained past a call.
	affected []network.NodeID
	seeds    []network.MedoidSeed
	frontier *heapx.Heap[medEntry]
}

// NewMedoidState returns a state for a graph with n nodes, all unassigned.
func NewMedoidState(n int) *MedoidState {
	return new(MedoidState).resize(n)
}

// resize makes s a state for a graph with n nodes, all unassigned, reusing
// its arrays when they are large enough.
func (s *MedoidState) resize(n int) *MedoidState {
	s.Med, s.Dist = slices.Grow(s.Med[:0], n)[:n], slices.Grow(s.Dist[:0], n)[:n]
	s.Reset()
	return s
}

// Reset unassigns every node.
func (s *MedoidState) Reset() {
	for n := range s.Med {
		if s.Med[n] != -1 || s.Dist[n] != network.Inf {
			s.set(network.NodeID(n), -1, network.Inf)
		}
	}
}

// set overwrites node n's entry, logging the old one while recording.
func (s *MedoidState) set(n network.NodeID, med int32, dist float64) {
	if s.recording {
		s.log = append(s.log, network.MedoidChange{Node: n, Med: s.Med[n], Dist: s.Dist[n]})
	}
	s.Med[n], s.Dist[n] = med, dist
}

// improves reports whether (dist, med) lexicographically beats node n's
// current (Dist, Med): the one acceptance test of every expansion write.
func (s *MedoidState) improves(n network.NodeID, dist float64, med int32) bool {
	return dist < s.Dist[n] || (dist == s.Dist[n] && med < s.Med[n])
}

// Begin starts recording overwrites: the state Rollback returns to is the
// one held now.
func (s *MedoidState) Begin() {
	s.log, s.recording = s.log[:0], true
}

// Commit keeps everything written since Begin and stops recording.
func (s *MedoidState) Commit() { s.recording = false }

// Rollback restores the state held at Begin and stops recording.
func (s *MedoidState) Rollback() {
	s.log.Undo(s.Med, s.Dist)
	s.recording = false
}

// medEntry is a queue entry B of Figs. 4-5: node, medoid index, distance.
type medEntry struct {
	node network.NodeID
	med  int32
	dist float64
}

// lessMedEntry orders the expansion frontier by the explicit lexicographic
// (dist, med, node) key. Distance alone decides almost every pop; the med
// component makes the winning medoid of exactly equidistant nodes the
// lowest slot index, and the node component makes the order total. Any
// label-correcting schedule that accepts lexicographic (dist, med)
// improvements converges to the same assignment (DESIGN.md §10), which is
// the contract the CSR Δ-stepping kernel is proven against.
func lessMedEntry(a, b medEntry) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	if a.med != b.med {
		return a.med < b.med
	}
	return a.node < b.node
}

// MedoidDistFind implements Fig. 4: a concurrent (multi-source) Dijkstra
// expansion from all medoids that tags every node with its nearest medoid
// and distance. The state is fully recomputed.
func MedoidDistFind(g network.Graph, medoids []network.PointInfo, st *MedoidState, stats *Stats) error {
	return medoidDistFindCtx(context.Background(), g, medoids, st, stats, nil)
}

func medoidDistFindCtx(ctx context.Context, g network.Graph, medoids []network.PointInfo, st *MedoidState, stats *Stats, mp *medoidPruner) error {
	st.Reset()
	seeds := make([]network.MedoidSeed, 0, 2*len(medoids))
	for i, m := range medoids {
		seeds = append(seeds,
			network.MedoidSeed{Node: m.N1, Med: int32(i), Dist: m.Pos},
			network.MedoidSeed{Node: m.N2, Med: int32(i), Dist: m.Weight - m.Pos})
		stats.HeapPushes += 2
	}
	return runExpansion(ctx, g, seeds, st, stats, mp)
}

// IncMedoidUpdate implements Fig. 5: after medoid slot replacedIdx has been
// replaced (medoids is the new set, already holding the new medoid in that
// slot), nodes of the old medoid's cluster are unassigned and re-expanded
// from (a) the frontier of the surviving clusters, (b) the new medoid and
// (c) the direct edge-endpoint seeds of every surviving medoid, touching only
// the part of the network whose nearest medoid can have changed. st must
// hold a consistent assignment for the previous medoid set.
//
// Seed source (c) is a correction to the paper's pseudocode: when a
// surviving medoid's own edge endpoint was assigned to the replaced medoid,
// the endpoint's direct d_L connection to that medoid is not reachable
// through any neighbouring node's retained distance, so Fig. 5's two seed
// sources alone under-estimate it. Re-pushing the (cheap, 2k) Fig. 4 seeds
// restores exactness; they are skipped unless they improve a node.
func IncMedoidUpdate(g network.Graph, medoids []network.PointInfo, replacedIdx int, st *MedoidState, stats *Stats) error {
	return incMedoidUpdateCtx(context.Background(), g, medoids, replacedIdx, st, stats, nil)
}

func incMedoidUpdateCtx(ctx context.Context, g network.Graph, medoids []network.PointInfo, replacedIdx int, st *MedoidState, stats *Stats, mp *medoidPruner) error {
	seeds := st.seeds[:0]

	// Unassign the replaced medoid's cluster.
	affected := st.affected[:0]
	for n, m := range st.Med {
		if m == int32(replacedIdx) {
			affected = append(affected, network.NodeID(n))
		}
	}
	if st.recording {
		// Room for what the swap is expected to write: each unassigned node
		// once when it is cleared and once when it is settled again, and about
		// as many captured from the neighbouring clusters.
		st.log = grown(st.log, 3*len(affected))
	}
	for _, n := range affected {
		st.set(n, -1, network.Inf)
	}
	// Seed from neighbours that still belong to some surviving medoid.
	for _, ni := range affected {
		adj, err := g.Neighbors(ni)
		if err != nil {
			return err
		}
		stats.EdgesVisited += len(adj)
		for _, nb := range adj {
			if st.Med[nb.Node] >= 0 {
				seeds = append(seeds, network.MedoidSeed{Node: ni, Med: st.Med[nb.Node], Dist: st.Dist[nb.Node] + nb.Weight})
				stats.HeapPushes++
			}
		}
	}
	// Seed every medoid's edge endpoints (the new medoid's seeds are what
	// Fig. 5 prescribes; the survivors' are the pseudocode correction).
	for i, m := range medoids {
		seeds = append(seeds,
			network.MedoidSeed{Node: m.N1, Med: int32(i), Dist: m.Pos},
			network.MedoidSeed{Node: m.N2, Med: int32(i), Dist: m.Weight - m.Pos})
		stats.HeapPushes += 2
	}
	st.affected, st.seeds = affected, seeds

	return runExpansion(ctx, g, seeds, st, stats, mp)
}

// runExpansion dispatches the seeded concurrent expansion: graphs with a
// native expansion kernel (the compiled CSR snapshot) run it directly when
// pruning is off — kernel and generic loop converge to the same
// (dist, med, node) lexicographic fixpoint, so the assignment is
// bit-identical — otherwise the generic heap loop runs.
func runExpansion(ctx context.Context, g network.Graph, seeds []network.MedoidSeed, st *MedoidState, stats *Stats, mp *medoidPruner) error {
	if ne, ok := g.(network.NearestExpander); ok && mp == nil {
		var log *network.MedoidLog
		if st.recording {
			log = &st.log
		}
		c, err := ne.ExpandNearestLogged(ctx, seeds, st.Med, st.Dist, log)
		stats.NodesSettled += c.Settled
		stats.HeapPushes += c.Pushes
		stats.EdgesVisited += c.Edges
		return err
	}
	return expand(ctx, g, seeds, st, stats, mp, nil)
}

// medoidPruner suppresses expansion frontier pushes that can never win: a
// push at distance nd to node v is dead weight when nd already exceeds an
// upper bound on v's distance to its nearest medoid, because v's final
// assignment is provably closer. Along the multi-source shortest-path tree
// every push carries exactly the target node's final distance, which is
// never above the upper bound, so pruned expansions settle every node at the
// same distance as unpruned ones (see DESIGN.md, Lower-bound pruning).
// Bound and path sum round differently, so upper widens the bound by
// slack = 1 + n·2⁻⁵², the worst-case relative rounding of a sum of at most
// n = |V| terms. Upper bounds are memoized per node with an epoch stamp;
// retarget invalidates the memo when the medoid set changes.
type medoidPruner struct {
	b     network.Bounder
	tb    network.TargetBounder
	slack float64
	memo  []float64
	stamp []int32
	epoch int32
}

func newMedoidPruner(b network.Bounder, numNodes int) *medoidPruner {
	return &medoidPruner{b: b, slack: 1 + float64(numNodes)*0x1p-52, memo: make([]float64, numNodes), stamp: make([]int32, numNodes)}
}

// retarget rebinds the pruner to the current medoid set.
func (mp *medoidPruner) retarget(medoids []network.PointInfo) {
	if mp.epoch == math.MaxInt32 {
		for i := range mp.stamp {
			mp.stamp[i] = 0
		}
		mp.epoch = 0
	}
	mp.epoch++
	mp.tb = mp.b.TargetBounds(medoids)
}

func (mp *medoidPruner) upper(v network.NodeID) float64 {
	if mp.stamp[v] == mp.epoch {
		return mp.memo[v]
	}
	u := mp.tb.Upper(v) * mp.slack
	mp.stamp[v] = mp.epoch
	mp.memo[v] = u
	return u
}

// expand is the one generic multi-source expansion: Concurrent_Expansion of
// Figs. 4-5 for k-medoids and the network Voronoi diagram of Single-Link's
// Fig. 8 step. Every write — a seed or a push — is tentative and happens
// only when (dist, med) lexicographically improves the node's (Dist, Med);
// with a reset state that is Fig. 4's "not assigned" check, on a partially
// retained one Fig. 5's "can this node get closer". A pop is accepted only
// while it still equals its node's entry, and because positive edge weights
// make the (dist, med, node) key strictly increase along every path, that
// first matching pop is final: each node is settled, and its adjacency read,
// at most once, at the unique lexicographic fixpoint every schedule reaches
// (DESIGN.md §10). The med half of the key only matters at exact distance
// ties, where it awards the node to the lowest medoid slot (point ID for
// Single-Link).
//
// A non-nil mp prunes pushes whose distance exceeds the target node's upper
// bound to the nearest medoid without changing any settled distance or
// label: the winning push of a node carries exactly its final distance,
// which is never above the upper bound. A non-nil onMeet is called with
// every adjacency entry of a settling node u whose other end was settled
// before u — its (Dist, Med, node) key is below u's — so on a reset state
// each edge between two settled nodes is met exactly once, from its later
// end.
func expand(ctx context.Context, g network.Graph, seeds []network.MedoidSeed, st *MedoidState, stats *Stats, mp *medoidPruner, onMeet func(u network.NodeID, nb network.Neighbor)) error {
	if st.frontier == nil {
		st.frontier = heapx.New(lessMedEntry)
	}
	h := st.frontier
	h.Clear()
	for _, s := range seeds {
		if st.improves(s.Node, s.Dist, s.Med) {
			st.set(s.Node, s.Med, s.Dist)
			h.Push(medEntry{node: s.Node, med: s.Med, dist: s.Dist})
		}
	}
	ticks := 0
	for !h.Empty() {
		b := h.Pop()
		if b.dist != st.Dist[b.node] || b.med != st.Med[b.node] {
			continue // superseded by a better write
		}
		if err := ctxCheck(ctx, &ticks); err != nil {
			return err
		}
		stats.NodesSettled++
		adj, err := g.Neighbors(b.node)
		if err != nil {
			return err
		}
		stats.EdgesVisited += len(adj)
		for _, nb := range adj {
			v, nd := nb.Node, b.dist+nb.Weight
			if !st.improves(v, nd, b.med) {
				if onMeet != nil && lessMedEntry(medEntry{node: v, med: st.Med[v], dist: st.Dist[v]}, b) {
					onMeet(b.node, nb)
				}
				continue
			}
			if mp != nil && nd > mp.upper(v) {
				stats.Prune.PrunedPushes++
				continue
			}
			st.set(v, b.med, nd)
			h.Push(medEntry{node: v, med: b.med, dist: nd})
			stats.HeapPushes++
		}
	}
	return nil
}

// AssignPoints assigns every point to its nearest medoid using Equation 1:
// the best of (i) via its edge's endpoints using the node assignment in st
// and (ii) directly along its own edge when a medoid shares the edge. It
// fills labels (length NumPoints; Noise for points unreachable from every
// medoid) and returns the evaluation function R = Σ d(p, m_p). The scan is a
// single sequential pass over the point groups; R accumulates per group
// first and then across groups in ascending order, the association the swap
// search's partial rescans keep so they reproduce the full-scan value bit
// for bit.
func AssignPoints(g network.Graph, medoids []network.PointInfo, st *MedoidState, labels []int32, stats *Stats) (r float64, err error) {
	if len(labels) != g.NumPoints() {
		return 0, fmt.Errorf("core: labels slice has %d entries for %d points", len(labels), g.NumPoints())
	}
	err = g.ScanGroups(func(gid network.GroupID, pg network.PointGroup, offsets []float64) error {
		stats.GroupsRead++
		r += assignGroup(gid, &pg, offsets, medoids, st, labels)
		return nil
	})
	return r, err
}

// assignGroup is Equation 1 over the points of group gid: each takes the
// best of its two endpoint routes under the node assignment in st and the
// direct routes to the medoids on its own edge, in ascending slot order. It
// writes the group's labels and returns the group's R subtotal, summed in
// point order.
func assignGroup(gid network.GroupID, pg *network.PointGroup, offsets []float64, medoids []network.PointInfo, st *MedoidState, labels []int32) float64 {
	var buf [4]int32
	same := buf[:0]
	for i := range medoids {
		if medoids[i].Group == gid {
			same = append(same, int32(i))
		}
	}
	d1, m1 := st.Dist[pg.N1], st.Med[pg.N1]
	d2, m2 := st.Dist[pg.N2], st.Med[pg.N2]
	lbl := labels[pg.First : int(pg.First)+len(offsets)]
	var sg float64
	for i, off := range offsets {
		best, bestM := network.Inf, int32(-1)
		if d := d1 + off; d < best {
			best, bestM = d, m1
		}
		if d := d2 + (pg.Weight - off); d < best {
			best, bestM = d, m2
		}
		for _, mi := range same {
			dl := off - medoids[mi].Pos
			if dl < 0 {
				dl = -dl
			}
			if dl < best {
				best, bestM = dl, mi
			}
		}
		lbl[i] = bestM
		if bestM >= 0 {
			sg += best
		}
	}
	return sg
}

// KMedoidsOptions configures the partitioning algorithm of §4.2.
type KMedoidsOptions struct {
	// K is the number of medoids (clusters).
	K int
	// MaxBadSwaps is the number of consecutive unsuccessful medoid
	// replacements after which a local optimum is declared. The paper's
	// experiments use 15, the default.
	MaxBadSwaps int
	// Restarts is the number of random initial medoid sets evaluated; the
	// best local optimum wins. Default 1 (the cost the paper reports is
	// per local optimum).
	Restarts int
	// Recompute disables the Fig. 5 incremental update: every swap re-runs
	// MedoidDistFind from scratch (the ablation baseline of Figure 12).
	Recompute bool
	// InitialMedoids, when non-empty, seeds the first restart with these
	// points instead of a random sample (the paper's "ideal start" of
	// Fig. 11b). Must contain exactly K distinct points.
	InitialMedoids []network.PointID
	// Rand is the randomness source; nil falls back to a fixed-seed
	// generator so runs are reproducible by default.
	Rand *rand.Rand
	// Prune, when non-nil, suppresses medoid-expansion frontier pushes that
	// a distance bound proves irrelevant to the final assignment. Labels,
	// medoids and R are identical either way (up to exact distance ties);
	// Stats.Prune.PrunedPushes reports the saved work.
	Prune network.Bounder
}

func (o *KMedoidsOptions) defaults(g network.Graph) error {
	if o.K < 1 {
		return fmt.Errorf("%w: KMedoids: K must be >= 1 (got %d)", ErrInvalidOptions, o.K)
	}
	if o.K > g.NumPoints() {
		return fmt.Errorf("%w: KMedoids: K must not exceed the number of points (got K = %d for %d points)", ErrInvalidOptions, o.K, g.NumPoints())
	}
	if o.MaxBadSwaps == 0 {
		o.MaxBadSwaps = 15
	}
	if o.Restarts < 0 {
		return fmt.Errorf("%w: KMedoids: Restarts must be >= 0 (got %d)", ErrInvalidOptions, o.Restarts)
	}
	if o.Restarts == 0 {
		o.Restarts = 1
	}
	if len(o.InitialMedoids) > 0 && len(o.InitialMedoids) != o.K {
		return fmt.Errorf("%w: KMedoids: InitialMedoids must hold exactly K points (got %d for K = %d)", ErrInvalidOptions, len(o.InitialMedoids), o.K)
	}
	if o.Rand == nil {
		o.Rand = rand.New(rand.NewSource(1))
	}
	return nil
}

// KMedoidsResult is the outcome of one KMedoids run.
type KMedoidsResult struct {
	// Labels assigns each point the index (0..K-1) of its medoid, or Noise
	// when unreachable from every medoid.
	Labels []int32
	// Medoids are the final medoid points.
	Medoids []network.PointID
	// R is the final value of the evaluation function Σ d(p, m_p).
	R float64
	// Iterations counts full cluster evaluations that were kept: the
	// initial assignment plus every committed swap (Table 1's
	// "# iterations").
	Iterations int
	// AttemptedSwaps and AcceptedSwaps count medoid replacements tried and
	// committed across all restarts.
	AttemptedSwaps, AcceptedSwaps int
	// FirstIterTime is the duration of the initial MedoidDistFind plus
	// point assignment (Table 1's "first one"); SwapIterTime is the total
	// and SwapIters the count of subsequent swap evaluations ("next ones"
	// are SwapIterTime/SwapIters).
	FirstIterTime time.Duration
	SwapIterTime  time.Duration
	SwapIters     int
	// Stats aggregates traversal work across the run.
	Stats Stats
}

// AvgSwapIterTime returns the mean duration of one swap evaluation.
func (r *KMedoidsResult) AvgSwapIterTime() time.Duration {
	if r.SwapIters == 0 {
		return 0
	}
	return r.SwapIterTime / time.Duration(r.SwapIters)
}

// KMedoids runs the §4.2 partitioning algorithm: random medoids, concurrent
// expansion, then randomized medoid replacement (incremental by default)
// until MaxBadSwaps consecutive replacements fail to improve R, repeated for
// the configured number of restarts; the best local optimum is returned.
// Restarts run in order, each on its own seed drawn from opts.Rand up front;
// the first restart to reach the lowest R wins.
func KMedoids(g network.Graph, opts KMedoidsOptions) (*KMedoidsResult, error) {
	return KMedoidsCtx(context.Background(), g, opts)
}

// KMedoidsCtx is KMedoids with cancellation: the expansions check ctx
// periodically and the run returns an error wrapping ctx.Err() when it is
// done.
func KMedoidsCtx(ctx context.Context, g network.Graph, opts KMedoidsOptions) (*KMedoidsResult, error) {
	if err := opts.defaults(g); err != nil {
		return nil, err
	}
	seeds := make([]int64, opts.Restarts)
	for i := range seeds {
		seeds[i] = opts.Rand.Int63()
	}
	res := &KMedoidsResult{}
	var best *restartResult
	for restart, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		init := opts.InitialMedoids
		if restart > 0 || len(init) == 0 {
			init = samplePoints(g.NumPoints(), opts.K, rng)
		}
		rr, err := kmedoidsOnce(ctx, g, opts, init, rng, res)
		if err != nil {
			return nil, err
		}
		if best == nil || rr.r < best.r {
			best = rr
		}
	}
	res.Labels = best.labels
	res.Medoids = best.medoids
	res.R = best.r
	return res, nil
}

type restartResult struct {
	labels  []int32
	medoids []network.PointID
	r       float64
}

// medoidSearch is the state of one restart's randomized swap search (§4.2):
// the current medoid set with the node assignment, point labels and R it
// induces. attempt mutates all of it in place and puts back exactly what it
// changed when the swap does not improve R.
type medoidSearch struct {
	g         network.Graph
	recompute bool
	stats     *Stats

	ids   []network.PointID
	infos []network.PointInfo
	inSet map[network.PointID]bool

	st     *MedoidState
	labels []int32
	r      float64

	// One pruner per restart: the Bounder is read-only, the memo is the
	// search's own.
	mp *medoidPruner

	// The assignment is kept per point group so that an attempt rescans only
	// the groups it perturbed, in place, on every backend: groups holds each
	// group's header (from the initial scan), sub its R subtotal and undo
	// what the last attempt overwrote; dirty[n] == epoch marks node n as
	// moved by the attempt being reassigned, so the reset is one increment.
	// R is re-summed over sub in ascending group order — AssignPoints'
	// association — so it is the full-scan value bit for bit.
	groups []network.PointGroup
	sub    []float64
	undo   assignUndo
	dirty  []uint32
	epoch  uint32
}

// newMedoidSearch runs the initial Fig. 4 expansion and point assignment for
// the medoid set init.
func newMedoidSearch(ctx context.Context, g network.Graph, opts KMedoidsOptions, init []network.PointID, stats *Stats) (*medoidSearch, error) {
	s := &medoidSearch{
		g: g, recompute: opts.Recompute, stats: stats,
		ids:    append([]network.PointID(nil), init...),
		infos:  make([]network.PointInfo, len(init)),
		inSet:  make(map[network.PointID]bool, len(init)),
		st:     NewMedoidState(g.NumNodes()),
		labels: make([]int32, g.NumPoints()),
	}
	for i, id := range s.ids {
		pi, err := g.PointInfo(id)
		if err != nil {
			return nil, err
		}
		s.infos[i] = pi
		s.inSet[id] = true
	}
	if len(s.inSet) != len(s.ids) {
		return nil, fmt.Errorf("%w: KMedoids: InitialMedoids must be distinct", ErrInvalidOptions)
	}
	if opts.Prune != nil {
		s.mp = newMedoidPruner(opts.Prune, g.NumNodes())
		s.mp.retarget(s.infos)
	}
	if err := medoidDistFindCtx(ctx, g, s.infos, s.st, stats, s.mp); err != nil {
		return nil, err
	}
	s.groups = make([]network.PointGroup, 0, g.NumGroups())
	s.sub = make([]float64, 0, g.NumGroups())
	s.dirty = make([]uint32, g.NumNodes())
	err := g.ScanGroups(func(gid network.GroupID, pg network.PointGroup, offsets []float64) error {
		stats.GroupsRead++
		sg := assignGroup(gid, &pg, offsets, s.infos, s.st, s.labels)
		s.groups, s.sub = append(s.groups, pg), append(s.sub, sg)
		s.r += sg
		return nil
	})
	return s, err
}

// reassign re-runs Equation 1 over the groups the last expansion perturbed
// and returns the new R. A group's labels depend only on the (Med, Dist) of
// its two end nodes and the medoids on its own edge, so it is dirty when an
// end node's entry differs from its earliest one in the change log — the
// log is read backwards for that, so a node taken away and given back
// unchanged stays clean — or when it is one of the two edges in swapped,
// which lost and gained a medoid. Only dirty groups' offsets are read; what
// their rescan overwrites goes to undo first.
func (s *medoidSearch) reassign(swapped [2]network.GroupID) (float64, error) {
	if s.epoch++; s.epoch == 0 { // wrapped: no stamp may still match
		clear(s.dirty)
		s.epoch = 1
	}
	st, log, epoch := s.st, s.st.log, s.epoch
	for i := len(log) - 1; i >= 0; i-- {
		e := &log[i]
		if st.Med[e.Node] != e.Med || st.Dist[e.Node] != e.Dist {
			s.dirty[e.Node] = epoch
		} else {
			s.dirty[e.Node] = 0
		}
	}
	s.undo.reset()
	var r float64
	for i := range s.groups {
		pg, gid := &s.groups[i], network.GroupID(i)
		if s.dirty[pg.N1] == epoch || s.dirty[pg.N2] == epoch || gid == swapped[0] || gid == swapped[1] {
			offsets, err := s.g.GroupOffsets(gid)
			if err != nil {
				return 0, err
			}
			s.stats.GroupsRead++
			s.undo.save(gid, s.sub[i], s.labels[pg.First:int(pg.First)+len(offsets)])
			s.sub[i] = assignGroup(gid, pg, offsets, s.infos, st, s.labels)
		}
		r += s.sub[i]
	}
	return r, nil
}

// attempt replaces medoid slot mi by the point cand, re-evaluates R and keeps
// the replacement when R fell; otherwise the search is back in the state it
// was called in.
func (s *medoidSearch) attempt(ctx context.Context, mi int, cand network.PointID) (accepted bool, err error) {
	candInfo, err := s.g.PointInfo(cand)
	if err != nil {
		return false, err
	}
	oldInfo, oldID := s.infos[mi], s.ids[mi]
	s.infos[mi], s.ids[mi] = candInfo, cand
	if s.mp != nil {
		s.mp.retarget(s.infos)
	}
	s.st.Begin()
	if s.recompute {
		err = medoidDistFindCtx(ctx, s.g, s.infos, s.st, s.stats, s.mp)
	} else {
		err = incMedoidUpdateCtx(ctx, s.g, s.infos, mi, s.st, s.stats, s.mp)
	}
	if err != nil {
		return false, err
	}
	r2, err := s.reassign([2]network.GroupID{oldInfo.Group, candInfo.Group})
	if err != nil {
		return false, err
	}
	if r2 < s.r {
		s.st.Commit()
		s.r = r2
		delete(s.inSet, oldID)
		s.inSet[cand] = true
		return true, nil
	}
	s.infos[mi], s.ids[mi] = oldInfo, oldID
	s.st.Rollback()
	s.undo.restore(s.groups, s.labels, s.sub)
	return false, nil
}

// assignUndo holds what one reassign overwrote: the R subtotal and the
// labels of every group it rescanned, in scan order. restore puts them back,
// so a rejected swap costs the groups it touched and not a copy of the whole
// assignment.
type assignUndo struct {
	gids   []network.GroupID
	subs   []float64
	labels []int32
}

func (u *assignUndo) reset() { u.gids, u.subs, u.labels = u.gids[:0], u.subs[:0], u.labels[:0] }

// save records group gid's subtotal and labels before a rescan overwrites
// them.
func (u *assignUndo) save(gid network.GroupID, sub float64, labels []int32) {
	u.gids, u.subs = append(u.gids, gid), append(u.subs, sub)
	u.labels = append(grown(u.labels, len(labels)), labels...)
}

// restore writes every saved group back into labels and sub; groups holds
// the headers that place a group's labels.
func (u *assignUndo) restore(groups []network.PointGroup, labels []int32, sub []float64) {
	off := 0
	for i, gid := range u.gids {
		pg := &groups[gid]
		off += copy(labels[pg.First:int(pg.First)+int(pg.Count)], u.labels[off:])
		sub[gid] = u.subs[i]
	}
}

// grown returns s with room for n more elements, at least doubling its
// capacity when it has to reallocate. The swap-attempt buffers (the change
// log, assignUndo) settle at their working size within a few swaps that way;
// left to append, which grows a large slice by a quarter, one search abandons
// several times the final buffer on the way there.
func grown[T any](s []T, n int) []T {
	if need := len(s) + n; need > cap(s) {
		g := make([]T, len(s), max(need, 2*cap(s)))
		copy(g, s)
		return g
	}
	return s
}

func kmedoidsOnce(ctx context.Context, g network.Graph, opts KMedoidsOptions, init []network.PointID, rng *rand.Rand, res *KMedoidsResult) (*restartResult, error) {
	start := time.Now()
	s, err := newMedoidSearch(ctx, g, opts, init, &res.Stats)
	if err != nil {
		return nil, err
	}
	res.FirstIterTime += time.Since(start)
	res.Iterations++

	bad := 0
	for bad < opts.MaxBadSwaps {
		mi := rng.Intn(opts.K)
		cand := randomNonMedoid(g.NumPoints(), s.inSet, rng)
		if cand < 0 {
			break // every point is a medoid: nothing to swap
		}
		start := time.Now()
		accepted, err := s.attempt(ctx, mi, cand)
		if err != nil {
			return nil, err
		}
		res.SwapIterTime += time.Since(start)
		res.SwapIters++
		res.AttemptedSwaps++
		if accepted {
			res.AcceptedSwaps++
			res.Iterations++
			bad = 0
		} else {
			bad++
		}
	}
	return &restartResult{labels: s.labels, medoids: s.ids, r: s.r}, nil
}

// samplePoints draws k distinct point IDs uniformly from [0, n).
func samplePoints(n, k int, rng *rand.Rand) []network.PointID {
	if k > n/2 {
		perm := rng.Perm(n)
		out := make([]network.PointID, k)
		for i := 0; i < k; i++ {
			out[i] = network.PointID(perm[i])
		}
		return out
	}
	seen := make(map[network.PointID]bool, k)
	out := make([]network.PointID, 0, k)
	for len(out) < k {
		p := network.PointID(rng.Intn(n))
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// randomNonMedoid draws a point outside the medoid set, or -1 when none
// exists.
func randomNonMedoid(n int, inSet map[network.PointID]bool, rng *rand.Rand) network.PointID {
	if len(inSet) >= n {
		return -1
	}
	for {
		p := network.PointID(rng.Intn(n))
		if !inSet[p] {
			return p
		}
	}
}
