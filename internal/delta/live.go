package delta

import (
	"context"
	"sync/atomic"

	"netclus/internal/network"
)

// noise mirrors core.Noise: the label of unclustered points.
const noise = int32(-1)

// live maintains exact ε-Link and DBSCAN labellings across mutations without
// recomputing from scratch. The key property: network distance between two
// points depends only on the network and their own placements, so a mutation
// batch changes the ε-neighbor graph only at the mutated points. The
// maintainer keeps that graph in stable slot space (slots survive canonical
// renumbering and compaction), repairs it with one range query per inserted
// point and zero for deletes, and re-floods components only from touched
// slots — the union-find splice for merges and the bounded re-expansion for
// splits collapse into one BFS over the dirty region. Labels then derive in
// one canonical-order pass, reproducing the batch algorithms exactly.
type live struct {
	eps    float64
	minPts int
	rq     *atomic.Int64 // overlay's live range-query counter

	// slot-indexed state
	alive  []bool
	core   []bool    // alive && |N_eps|+1 >= minPts
	adj    [][]int32 // ε-neighbors (excluding self), unordered
	compEL []int64   // ε-graph component, all alive slots
	compDB []int64   // core-core ε-graph component, core slots
	visEL  []int64
	visDB  []int64
	slotLb []int32 // per-derive core label scratch

	visStamp int64
	nextComp int64

	touched []int32 // dirty-slot worklist, deduped by touchGen
	tstamp  []int64
	tgen    int64
	queue   []int32

	// comp→label remap tables of derive. Array-indexed, not maps: derive
	// renumbers every component to its emitted label, so live comp IDs stay
	// dense — bounded by the cluster count plus this batch's flood count.
	remapEL []int32
	remapDB []int32

	// sc is the repair range-query scratch, kept across batches. Allocated
	// with headroom so point-count drift between views doesn't force a fresh
	// O(points) allocation per batch.
	sc    *network.RangeScratch
	scPts int
}

// scratch returns the cached repair scratch, regrown when the view outgrew
// it. Oversized scratch is safe: arrays are indexed by the queried graph's
// IDs and epoch-stamped, never scanned in full.
func (l *live) scratch(g network.Graph) *network.RangeScratch {
	if n := g.NumPoints(); l.sc == nil || n > l.scPts {
		l.scPts = n + n/8 + 64
		l.sc = network.NewRangeScratchSize(g.NumNodes(), l.scPts)
	}
	return l.sc
}

// liveSnap is the immutable labelling published with one view. Label arrays
// are shared with every reader of that epoch; callers copy before mutating.
type liveSnap struct {
	eps        float64
	minPts     int
	elLabels   []int32
	elClusters int32
	dbLabels   []int32
	dbClusters int32
	corePoints int
}

// LiveDBSCAN returns the maintained DBSCAN labelling, its cluster count
// (before any min-support suppression) and core-point count — false when
// live clustering is off or the parameters differ from the maintained ones.
// The labels slice is shared: copy before mutating.
func (c *Current) LiveDBSCAN(eps float64, minPts int) (labels []int32, clusters int32, corePoints int, ok bool) {
	ls := c.live
	if ls == nil || ls.eps != eps || ls.minPts != minPts {
		return nil, 0, 0, false
	}
	return ls.dbLabels, ls.dbClusters, ls.corePoints, true
}

// LiveEpsLink returns the maintained ε-Link labelling and its cluster count
// before min-support suppression — false when unavailable. The labels slice
// is shared: copy before mutating.
func (c *Current) LiveEpsLink(eps float64) (labels []int32, clusters int32, ok bool) {
	ls := c.live
	if ls == nil || ls.eps != eps {
		return nil, 0, false
	}
	return ls.elLabels, ls.elClusters, true
}

func newLive(eps float64, minPts int, rq *atomic.Int64) *live {
	return &live{eps: eps, minPts: minPts, rq: rq}
}

func (l *live) ensureCap(slot int32) {
	for int(slot) >= len(l.alive) {
		l.alive = append(l.alive, false)
		l.core = append(l.core, false)
		l.adj = append(l.adj, nil)
		l.compEL = append(l.compEL, 0)
		l.compDB = append(l.compDB, 0)
		l.visEL = append(l.visEL, 0)
		l.visDB = append(l.visDB, 0)
		l.slotLb = append(l.slotLb, 0)
		l.tstamp = append(l.tstamp, 0)
	}
}

// bootstrap builds the ε-graph from scratch with one range query per point
// and returns the initial labelling. Also the self-heal path: it resets all
// maintained state.
func (l *live) bootstrap(g network.Graph, idToSlot []int32) (*liveSnap, error) {
	n := len(idToSlot)
	l.alive, l.core, l.adj = nil, nil, nil
	l.compEL, l.compDB, l.visEL, l.visDB = nil, nil, nil, nil
	l.slotLb, l.tstamp = nil, nil
	maxSlot := int32(-1)
	for _, s := range idToSlot {
		if s > maxSlot {
			maxSlot = s
		}
	}
	l.ensureCap(maxSlot)
	sc := network.ScratchFor(g)
	ctx := context.Background()
	for p := 0; p < n; p++ {
		res, err := sc.RangeQueryCtx(ctx, g, network.PointID(p), l.eps)
		l.rq.Add(1)
		if err != nil {
			return nil, err
		}
		s := idToSlot[p]
		l.alive[s] = true
		for _, q := range res {
			if int(q) < p { // each symmetric pair once
				t := idToSlot[q]
				l.adj[s] = append(l.adj[s], t)
				l.adj[t] = append(l.adj[t], s)
			}
		}
	}
	for s := range l.alive {
		if l.alive[s] {
			l.core[s] = len(l.adj[s])+1 >= l.minPts
		}
	}
	// Flood every component fresh.
	l.visStamp++
	for _, s := range idToSlot {
		if l.visEL[s] != l.visStamp {
			l.floodEL(s)
		}
	}
	l.visStamp++
	for _, s := range idToSlot {
		if l.core[s] && l.visDB[s] != l.visStamp {
			l.floodDB(s)
		}
	}
	return l.derive(idToSlot), nil
}

// apply repairs the ε-graph for one resolved batch — the new view g is
// already published content — and returns the fresh labelling. On an
// unexpected engine error it self-heals with a full bootstrap.
func (l *live) apply(g network.Graph, idToSlot []int32, resolved []resolvedOp) (*liveSnap, error) {
	l.tgen++
	l.touched = l.touched[:0]
	touch := func(s int32) {
		if l.tstamp[s] != l.tgen {
			l.tstamp[s] = l.tgen
			l.touched = append(l.touched, s)
		}
	}

	// Deletes first: they only shed edges, and a later insert's range query
	// runs against the final view, which already excludes deleted points.
	for _, rop := range resolved {
		if rop.kind != rDelete {
			continue
		}
		s := rop.slot
		for _, t := range l.adj[s] {
			dropEdge(l.adj, t, s)
			touch(t)
		}
		l.adj[s] = nil
		l.alive[s] = false
		l.core[s] = false
	}

	// Inserts: one range query each on the new view. Edges to inserts not
	// yet processed are skipped — the later insert's own query adds them.
	var inserts []int32
	pending := make(map[int32]bool)
	for _, rop := range resolved {
		if rop.kind == rInsert {
			l.ensureCap(rop.slot)
			inserts = append(inserts, rop.slot)
			pending[rop.slot] = true
		}
	}
	if len(inserts) > 0 {
		idOf := make(map[int32]int32, len(inserts))
		found := 0
		for p, s := range idToSlot {
			if pending[s] {
				idOf[s] = int32(p)
				if found++; found == len(inserts) {
					break
				}
			}
		}
		ctx := context.Background()
		if rb, ok := g.(network.RangeBatcher); ok {
			// Snapshot-backed view (freshly compacted, no overlay): one
			// batched multi-source expansion over the kernel's pooled SoA
			// scratches replaces the per-insert generic queries. The batch
			// may visit in any order, so the sequential pending-skip rule is
			// replayed positionally: the edge between two inserts is added
			// only by the later-indexed one, exactly the pair the loop below
			// would have kept. derive canonicalizes labels by ascending
			// canonical ID, so adjacency and touch order stay invisible.
			order := make(map[int32]int, len(inserts))
			pts := make([]network.PointID, len(inserts))
			for i, s := range inserts {
				order[s] = i
				pts[i] = network.PointID(idOf[s])
				l.alive[s] = true
			}
			err := rb.RangeEach(ctx, pts, l.eps, 1, func(i int, _ network.PointID, res []network.PointID, _ []float64) error {
				s := inserts[i]
				l.rq.Add(1)
				for _, q := range res {
					t := idToSlot[q]
					if t == s {
						continue
					}
					if j, ins := order[t]; ins && j > i {
						continue // the later insert's own visit adds this edge
					}
					l.adj[s] = append(l.adj[s], t)
					l.adj[t] = append(l.adj[t], s)
					touch(t)
				}
				touch(s)
				return nil
			})
			if err != nil {
				return l.bootstrap(g, idToSlot)
			}
		} else {
			sc := l.scratch(g)
			for _, s := range inserts {
				delete(pending, s)
				l.alive[s] = true
				res, err := sc.RangeQueryCtx(ctx, g, network.PointID(idOf[s]), l.eps)
				l.rq.Add(1)
				if err != nil {
					return l.bootstrap(g, idToSlot)
				}
				for _, q := range res {
					t := idToSlot[q]
					if t == s || pending[t] {
						continue
					}
					l.adj[s] = append(l.adj[s], t)
					l.adj[t] = append(l.adj[t], s)
					touch(t)
				}
				touch(s)
			}
		}
	}

	// Core flips: a degree change at x can move x across the minPts line,
	// which adds or removes all of x's core-core edges — so x's neighbors
	// join the dirty region too. Appending extends the loop; appended slots
	// had no degree change, so the cascade stops after one hop.
	for i := 0; i < len(l.touched); i++ {
		x := l.touched[i]
		if !l.alive[x] {
			continue
		}
		nc := len(l.adj[x])+1 >= l.minPts
		if nc != l.core[x] {
			l.core[x] = nc
			for _, t := range l.adj[x] {
				touch(t)
			}
		}
	}

	// Re-flood components from the dirty region. Every component whose
	// membership changed contains a touched slot (each split piece holds a
	// neighbor of a removed vertex; each merge holds the inserted point), so
	// untouched slots keep valid component IDs — fresh IDs are monotonic and
	// never collide with retained ones.
	l.visStamp++
	for _, s := range l.touched {
		if l.alive[s] && l.visEL[s] != l.visStamp {
			l.floodEL(s)
		}
	}
	l.visStamp++
	for _, s := range l.touched {
		if l.alive[s] && l.core[s] && l.visDB[s] != l.visStamp {
			l.floodDB(s)
		}
	}
	return l.derive(idToSlot), nil
}

func (l *live) floodEL(s int32) {
	comp := l.nextComp
	l.nextComp++
	l.queue = append(l.queue[:0], s)
	l.visEL[s] = l.visStamp
	l.compEL[s] = comp
	for len(l.queue) > 0 {
		u := l.queue[len(l.queue)-1]
		l.queue = l.queue[:len(l.queue)-1]
		for _, t := range l.adj[u] {
			if l.visEL[t] != l.visStamp {
				l.visEL[t] = l.visStamp
				l.compEL[t] = comp
				l.queue = append(l.queue, t)
			}
		}
	}
}

func (l *live) floodDB(s int32) {
	comp := l.nextComp
	l.nextComp++
	l.queue = append(l.queue[:0], s)
	l.visDB[s] = l.visStamp
	l.compDB[s] = comp
	for len(l.queue) > 0 {
		u := l.queue[len(l.queue)-1]
		l.queue = l.queue[:len(l.queue)-1]
		for _, t := range l.adj[u] {
			if l.core[t] && l.visDB[t] != l.visStamp {
				l.visDB[t] = l.visStamp
				l.compDB[t] = comp
				l.queue = append(l.queue, t)
			}
		}
	}
}

// resetRemap sizes m to n and fills it with the "unassigned" sentinel.
func resetRemap(m []int32, n int) []int32 {
	if cap(m) < n {
		m = make([]int32, n)
	} else {
		m = m[:n]
	}
	for i := range m {
		m[i] = -1
	}
	return m
}

// dropEdge removes to from adj[from] (swap-remove; adjacency is unordered).
func dropEdge(adj [][]int32, from, to int32) {
	row := adj[from]
	for i, t := range row {
		if t == to {
			row[i] = row[len(row)-1]
			adj[from] = row[:len(row)-1]
			return
		}
	}
}

// derive turns slot-space components into canonical labellings, reproducing
// the batch algorithms bit for bit: labels assigned on first sight in
// ascending canonical ID order (the labellers' seeds ascend), DBSCAN border points
// taking the minimum label over their core ε-neighbors, everything else
// Noise.
func (l *live) derive(idToSlot []int32) *liveSnap {
	n := len(idToSlot)
	el := make([]int32, n)
	db := make([]int32, n)
	// Every live comp ID is below nextComp: untouched slots carry last
	// derive's renumbered (dense) IDs, and this batch's floods allocated
	// monotonically from there. So the remap tables stay small and the
	// per-point cost is an array index, not a map lookup — the difference
	// between O(points) with map constants and a tight linear pass.
	ne := int(l.nextComp)
	l.remapEL = resetRemap(l.remapEL, ne)
	l.remapDB = resetRemap(l.remapDB, ne)
	var elNext, dbNext int32
	corePoints := 0
	// Components renumber to their emitted labels inline (each slot appears
	// once, so the write-back never races a later read): distinct components
	// got distinct labels, uniqueness is preserved, and the next batch's
	// floods allocate from the reset nextComp without colliding.
	for p := 0; p < n; p++ {
		s := idToSlot[p]
		c := l.compEL[s]
		lab := l.remapEL[c]
		if lab < 0 {
			lab = elNext
			l.remapEL[c] = elNext
			elNext++
		}
		el[p] = lab
		l.compEL[s] = int64(lab)
		if l.core[s] {
			corePoints++
			c := l.compDB[s]
			lab := l.remapDB[c]
			if lab < 0 {
				lab = dbNext
				l.remapDB[c] = dbNext
				dbNext++
			}
			db[p] = lab
			l.slotLb[s] = lab
			l.compDB[s] = int64(lab)
		} else {
			db[p] = noise
		}
	}
	for p := 0; p < n; p++ {
		s := idToSlot[p]
		if l.core[s] {
			continue
		}
		best := noise
		for _, t := range l.adj[s] {
			if l.core[t] {
				if lt := l.slotLb[t]; best == noise || lt < best {
					best = lt
				}
			}
		}
		db[p] = best
	}
	l.nextComp = int64(elNext)
	if int64(dbNext) > l.nextComp {
		l.nextComp = int64(dbNext)
	}
	return &liveSnap{
		eps: l.eps, minPts: l.minPts,
		elLabels: el, elClusters: elNext,
		dbLabels: db, dbClusters: dbNext, corePoints: corePoints,
	}
}
