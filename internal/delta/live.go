package delta

import (
	"context"
	"math"
	"sync/atomic"

	"netclus/internal/csr"
	"netclus/internal/network"
	"netclus/internal/unionfind"
)

// noise mirrors core.Noise: the label of unclustered points.
const noise = int32(-1)

// live maintains exact ε-Link and DBSCAN labellings across mutations without
// recomputing from scratch. The key property: network distance between two
// points depends only on the network and their own placements, so a mutation
// batch changes the ε-neighbor graph only at the mutated points. The
// maintainer keeps that graph in stable slot space (slots survive canonical
// renumbering) and repairs it with one range query per
// inserted point and zero for deletes. Two graphs ride on it — the ε-graph
// over alive slots (ε-Link's components) and the core graph over core slots
// (DBSCAN's) — and a batch changes each only by the vertices that leave it
// and the vertices that join it, edges among the rest untouched. Joins are
// unions over component IDs; leaves are checked locally for a split (see
// repairSplits). Labels then derive in one canonical-order pass, reproducing
// the batch algorithms exactly.
type live struct {
	eps    float64
	minPts int
	ct     *liveCounters // the overlay's live-maintenance counters

	// slot-indexed state
	alive  []bool
	core   []bool  // alive && |N_eps|+1 >= minPts
	adj    rows    // ε-neighbors (excluding self), unordered
	compEL []int32 // ε-graph component, all alive slots
	compDB []int32 // core graph component, core slots
	// mark is the one stamp array behind every per-batch set: touched slots,
	// leavers, blob boundaries, BFS fronts. Each use draws values nobody drew
	// before from stamp, so a stale mark never reads as a live one and
	// nothing is cleared between uses.
	mark  []int32
	stamp int32

	// Component IDs are dense: derive renumbers every component to its
	// emitted label and resets the forests to that many singletons, a batch's
	// joiners and floods Grow them, and derive resolves the batch's unions.
	ufEL, ufDB unionfind.UF

	// per-batch worklists, kept for their storage
	touched  []int32 // slots whose degree may have changed
	dead     []int32 // deleted slots: the ε-graph's leavers
	leftDB   []int32 // deleted cores and core→non-core flips
	joinDB   []int32 // non-core→core flips, inserts included
	queue    []int32
	boundary []int32
	border   []int32 // derive's non-core points, by canonical ID
	visits   int     // slots the current batch's repair walked
	floods   int     // components it had to re-flood

	// comp→label tables of derive, indexed by the dense component IDs.
	remapEL []int32
	remapDB []int32
}

// liveCounters are the maintainer's share of the overlay's Stats.
type liveCounters struct {
	rangeQueries atomic.Int64
	floods       atomic.Int64
	repairVisits atomic.Int64
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

func newLive(eps float64, minPts int, ct *liveCounters) *live {
	return &live{eps: eps, minPts: minPts, ct: ct}
}

func (l *live) ensureCap(slot int32) {
	for int(slot) >= len(l.alive) {
		l.alive = append(l.alive, false)
		l.core = append(l.core, false)
		l.adj.grow()
		l.compEL = append(l.compEL, 0)
		l.compDB = append(l.compDB, 0)
		l.mark = append(l.mark, 0)
	}
}

// nextStamps reserves k consecutive mark values and returns the first.
func (l *live) nextStamps(k int32) int32 {
	first := l.stamp + 1
	l.stamp += k
	return first
}

// side is one of the two maintained graphs as the repair sees it: in holds
// the final membership (alive for the ε-graph, core for the core graph) and
// comp the component ID of every member. IDs in [base, fresh) went to this
// batch's joiners; IDs from fresh up go to the components it re-floods.
type side struct {
	in          []bool
	comp        []int32
	uf          *unionfind.UF
	base, fresh int32
}

// survivor reports whether member t was in the graph before the batch too.
func (sd side) survivor(t int32) bool {
	c := sd.comp[t]
	return c < sd.base || c >= sd.fresh
}

// bootstrap builds the ε-graph from scratch with one range query per point
// and returns the initial labelling. Also the self-heal path: it resets all
// maintained state.
func (l *live) bootstrap(g *csr.Snapshot, idToSlot []int32) (*liveSnap, error) {
	n := len(idToSlot)
	slots := 0
	for _, s := range idToSlot {
		slots = max(slots, int(s)+1)
	}
	l.alive, l.core = make([]bool, slots), make([]bool, slots)
	l.compEL, l.compDB, l.mark = make([]int32, slots), make([]int32, slots), make([]int32, slots)
	l.stamp = 0
	// Each symmetric pair is found twice and kept once, as (later, earlier);
	// the rows are then laid out with windows of exactly their degree.
	var pairs []int32
	deg := make([]int32, slots)
	sc := network.ScratchFor(g)
	ctx := context.Background()
	for p := 0; p < n; p++ {
		res, err := sc.RangeQueryCtx(ctx, g, network.PointID(p), l.eps)
		l.ct.rangeQueries.Add(1)
		if err != nil {
			return nil, err
		}
		s := idToSlot[p]
		l.alive[s] = true
		for _, q := range res {
			if int(q) < p {
				t := idToSlot[q]
				pairs = append(pairs, s, t)
				deg[s]++
				deg[t]++
			}
		}
	}
	l.adj.reset(deg)
	for i := 0; i < len(pairs); i += 2 {
		s, t := pairs[i], pairs[i+1]
		l.adj.add(s, t)
		l.adj.add(t, s)
	}
	for _, s := range idToSlot {
		l.core[s] = int(l.adj.deg[s])+1 >= l.minPts
		l.compEL[s], l.compDB[s] = -1, -1
	}
	// Flood every component fresh: with empty forests no slot is a survivor
	// and an ID below fresh = 0 means "not flooded yet", as in repairSplits.
	l.ufEL.Reset(0)
	l.ufDB.Reset(0)
	el := side{in: l.alive, comp: l.compEL, uf: &l.ufEL}
	db := side{in: l.core, comp: l.compDB, uf: &l.ufDB}
	for _, s := range idToSlot {
		if el.comp[s] < 0 {
			l.flood(el, s)
		}
		if db.in[s] && db.comp[s] < 0 {
			l.flood(db, s)
		}
	}
	return l.derive(idToSlot), nil
}

// apply repairs both graphs for one resolved batch — the new view g is
// already published content — and returns the fresh labelling. The inserts'
// range queries run as one batched expansion over the snapshot family's
// pooled kernel scratch. On an unexpected engine error it self-heals with a
// full bootstrap.
//
// A batch's inserts must hold the highest slots of idToSlot, consecutive and
// in op order, as applyOps allocates them; newIDs holds their canonical IDs
// in that order, as freeze finds them.
func (l *live) apply(g *csr.Snapshot, idToSlot []int32, newIDs []network.PointID, resolved []resolvedOp) (*liveSnap, error) {
	if l.stamp > math.MaxInt32/2 {
		// Stamp wrap-around, checked between batches only: the sets of one
		// batch must outlive each other. A batch draws a few stamps per leaver
		// and per flood, far fewer than the half range left.
		clear(l.mark)
		l.stamp = 0
	}
	l.visits, l.floods = 0, 0
	elBase, dbBase := int32(l.ufEL.Len()), int32(l.ufDB.Len())

	isTouched := l.nextStamps(1)
	l.touched = l.touched[:0]
	touch := func(s int32) {
		if l.mark[s] != isTouched {
			l.mark[s] = isTouched
			l.touched = append(l.touched, s)
		}
	}

	// Deletes first: they only shed edges, and a later insert's range query
	// runs against the final view, which already excludes deleted points.
	// The edges themselves stay until the end of the batch — alive and core
	// keep the traversals off a dead slot — because the split check needs the
	// old neighbourhood of every leaver, seen from both ends.
	l.dead, l.leftDB, l.joinDB = l.dead[:0], l.leftDB[:0], l.joinDB[:0]
	first, inserts := int32(0), 0
	for _, rop := range resolved {
		if rop.kind == rInsert {
			if inserts == 0 {
				first = rop.slot
			}
			inserts++
			continue
		}
		s := rop.slot
		l.alive[s] = false
		l.dead = append(l.dead, s)
		if l.core[s] {
			l.core[s] = false
			l.leftDB = append(l.leftDB, s)
		}
		for _, t := range l.adj.row(s) {
			touch(t)
		}
	}

	// Inserts: one range query each on the new view. An insert joins the
	// ε-graph under an ID of its own, and every ε-edge it brings is a union.
	if inserts > 0 {
		l.ensureCap(first + int32(inserts) - 1)
		for s := first; s < first+int32(inserts); s++ {
			l.alive[s] = true
			l.compEL[s] = int32(l.ufEL.Grow())
		}
		// link adds insert s's ε-edges. The edge between two inserts is added
		// by the later one only, whichever is queried first: t > s can only be
		// a later insert, and its own result holds s.
		link := func(s int32, res []network.PointID) {
			l.ct.rangeQueries.Add(1)
			for _, q := range res {
				t := idToSlot[q]
				if t >= s {
					continue
				}
				l.adj.add(s, t)
				l.adj.add(t, s)
				l.ufEL.Union(int(l.compEL[s]), int(l.compEL[t]))
				touch(t)
			}
			touch(s)
		}
		// derive canonicalizes labels by ascending canonical ID, so adjacency
		// and visit order stay invisible.
		err := g.RangeEach(context.Background(), newIDs, l.eps, 1, func(i int, _ network.PointID, res []network.PointID, _ []float64) error {
			link(first+int32(i), res)
			return nil
		})
		if err != nil {
			return l.bootstrap(g, idToSlot)
		}
	}

	// Core flips: a degree change at x can move x across the minPts line,
	// which takes x out of the core graph or brings it in with all its
	// core-core edges. An insert starts non-core, so it joins like any other.
	for _, x := range l.touched {
		if !l.alive[x] {
			continue
		}
		deg := int(l.adj.deg[x])
		if len(l.dead) > 0 { // some rows still hold dead slots: count the rest
			deg = 0
			for _, t := range l.adj.row(x) {
				if l.alive[t] {
					deg++
				}
			}
		}
		if nc := deg+1 >= l.minPts; nc != l.core[x] {
			l.core[x] = nc
			if nc {
				l.compDB[x] = int32(l.ufDB.Grow())
				l.joinDB = append(l.joinDB, x)
			} else {
				l.leftDB = append(l.leftDB, x)
			}
		}
	}
	for _, x := range l.joinDB {
		for _, t := range l.adj.row(x) {
			if l.core[t] {
				l.ufDB.Union(int(l.compDB[x]), int(l.compDB[t]))
			}
		}
	}
	l.visits += len(l.touched)

	l.repairSplits(side{in: l.alive, comp: l.compEL, uf: &l.ufEL, base: elBase, fresh: int32(l.ufEL.Len())}, l.dead)
	l.repairSplits(side{in: l.core, comp: l.compDB, uf: &l.ufDB, base: dbBase, fresh: int32(l.ufDB.Len())}, l.leftDB)

	for _, s := range l.dead {
		for _, t := range l.adj.row(s) {
			if l.alive[t] {
				l.adj.drop(t, s)
			}
		}
		l.adj.release(s)
	}
	l.ct.floods.Add(int64(l.floods))
	l.ct.repairVisits.Add(int64(l.visits))
	return l.derive(idToSlot), nil
}

// repairSplits gives every component that lost vertices this batch the IDs
// its pieces need. leavers are the vertices that left sd's graph; their adj
// rows still hold their old neighbourhoods. They are grouped into blobs —
// leavers adjacent in the old graph share one — and each blob's boundary,
// the survivors that were adjacent to one of its leavers, is tested for
// connectivity in the final graph, joiners and their edges included. If one
// BFS from the first boundary vertex reaches all the others, nothing is
// done. If it exhausts first, every final component holding a boundary
// vertex is re-flooded under a fresh ID.
//
// Why that is exact. Edges between survivors are the same before and after,
// so any old path between two survivors of an old component C survives
// except for its runs of consecutive leavers; a run lies inside one blob,
// and the survivors right before and after it are on that blob's boundary.
// (Checking leavers one by one would miss a–x₁–x₂–b: neither x has both a
// and b as neighbours.)
//   - If every blob in C passes, each run can be replaced by a final-graph
//     path, so C's survivors are still connected and rightly keep C's ID.
//     Whatever else now shares their component got there along a joiner's
//     edge, which apply already turned into a union with C's ID.
//   - If a blob in C fails, every survivor of C ends up flooded: walk an old
//     path from it to the failed blob; the survivors on it stay in one final
//     component across passing blobs, and the last one is on the failed
//     blob's boundary, so that component is flooded. C's ID then has no
//     holder left and whatever it was unioned with is harmless.
//   - A flooded set is one whole final component under an ID nobody else
//     has, which is correct whatever happened to it.
//
// So for unflooded vertices "same root" means "same final component", and
// flooded components are exact by construction.
func (l *live) repairSplits(sd side, leavers []int32) {
	if len(leavers) == 0 {
		return
	}
	// left marks a leaver no blob has claimed yet, left+1 one that was.
	left := l.nextStamps(2)
	for _, s := range leavers {
		l.mark[s] = left
	}
	for _, s := range leavers {
		if l.mark[s] != left {
			continue
		}
		// want marks a boundary vertex the BFS still has to reach, want+1
		// every vertex it reached.
		want := l.nextStamps(2)
		bd := l.boundary[:0]
		q := append(l.queue[:0], s)
		l.mark[s] = left + 1
		for len(q) > 0 {
			u := q[len(q)-1]
			q = q[:len(q)-1]
			l.visits++
			for _, t := range l.adj.row(u) {
				switch m := l.mark[t]; {
				case m == left:
					l.mark[t] = left + 1
					q = append(q, t)
				case m == left+1 || m == want:
				case sd.in[t] && sd.survivor(t):
					l.mark[t] = want
					bd = append(bd, t)
				}
			}
		}
		l.queue, l.boundary = q, bd
		if len(bd) < 2 || l.connected(sd, bd, want) {
			continue
		}
		for _, b := range bd {
			if sd.comp[b] < sd.fresh {
				l.flood(sd, b)
				l.floods++
			}
		}
	}
}

// connected reports whether every vertex of bd, all marked want, is
// reachable from the first in sd's final graph. FIFO, because the boundary
// of a blob lies within 2ε of itself: a breadth-first front meets the others
// after a few rings where a depth-first one could tour the whole cluster.
func (l *live) connected(sd side, bd []int32, want int32) bool {
	seen, missing := want+1, len(bd)-1
	q := append(l.queue[:0], bd[0])
	l.mark[bd[0]] = seen
	for head := 0; head < len(q) && missing > 0; head++ {
		l.visits++
		for _, t := range l.adj.row(q[head]) {
			m := l.mark[t]
			if m == seen || !sd.in[t] {
				continue
			}
			if m == want {
				missing--
			}
			l.mark[t] = seen
			q = append(q, t)
		}
	}
	l.queue = q
	return missing == 0
}

// flood gives the whole final component of s a fresh ID. Only bootstrap and
// a failed split check get here.
func (l *live) flood(sd side, s int32) {
	id, seen := int32(sd.uf.Grow()), l.nextStamps(1)
	q := append(l.queue[:0], s)
	l.mark[s], sd.comp[s] = seen, id
	for len(q) > 0 {
		u := q[len(q)-1]
		q = q[:len(q)-1]
		l.visits++
		for _, t := range l.adj.row(u) {
			if sd.in[t] && l.mark[t] != seen {
				l.mark[t], sd.comp[t] = seen, id
				q = append(q, t)
			}
		}
	}
	l.queue = q
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

// rows is the ε-graph's adjacency in one pointer-free arena, so that the
// garbage collector has nothing to trace in it however many slots there
// are. Row s is cells[off[s] : off[s]+deg[s]] inside a window of room[s]
// cells. A row that outgrows its window moves to the end of the arena with
// twice the room; once the windows left behind hold more cells than the
// ones in use, compact lays every row out afresh. A row slice is valid until
// the next add.
type rows struct {
	cells          []int32
	off, deg, room []int32
	abandoned      int // cells in windows no row owns any more
}

// reset lays out one empty row per slot, each with room for deg[s] cells.
func (r *rows) reset(deg []int32) {
	n := len(deg)
	r.off, r.deg, r.room = make([]int32, n), make([]int32, n), make([]int32, n)
	total := int32(0)
	for s, d := range deg {
		r.off[s], r.room[s] = total, d
		total += d
	}
	r.cells, r.abandoned = make([]int32, total), 0
}

// grow adds an empty row, with no room yet, for one more slot.
func (r *rows) grow() {
	r.off = append(r.off, int32(len(r.cells)))
	r.deg = append(r.deg, 0)
	r.room = append(r.room, 0)
}

func (r *rows) row(s int32) []int32 {
	o, d := r.off[s], r.deg[s]
	return r.cells[o : o+d : o+d]
}

// add appends t to row s.
func (r *rows) add(s, t int32) {
	if r.deg[s] == r.room[s] {
		r.move(s)
	}
	r.cells[r.off[s]+r.deg[s]] = t
	r.deg[s]++
}

// move gives row s a window of twice its room at the end of the arena.
func (r *rows) move(s int32) {
	if r.abandoned > len(r.cells)-r.abandoned {
		r.compact()
	}
	room := max(2*r.room[s], 4)
	r.abandoned += int(r.room[s])
	old := r.row(s)
	r.off[s], r.room[s] = int32(len(r.cells)), room
	r.cells = append(r.cells, old...)
	r.cells = append(r.cells, make([]int32, int(room)-len(old))...)
}

// compact copies every row into a fresh arena, windows kept, abandoned ones
// dropped.
func (r *rows) compact() {
	cells := make([]int32, len(r.cells)-r.abandoned)
	at := int32(0)
	for s := range r.off {
		copy(cells[at:], r.row(int32(s)))
		r.off[s] = at
		at += r.room[s]
	}
	r.cells, r.abandoned = cells, 0
}

// drop removes to from row from (swap-remove; rows are unordered).
func (r *rows) drop(from, to int32) {
	row := r.row(from)
	for i, t := range row {
		if t == to {
			row[i] = row[len(row)-1]
			r.deg[from]--
			return
		}
	}
}

// release empties row s for good and gives up its window.
func (r *rows) release(s int32) {
	r.abandoned += int(r.room[s])
	r.deg[s], r.room[s] = 0, 0
}

// resolve gives component c, which remap does not know yet, its label: the
// one its root already has, or the next unused one. remap is indexed by
// component ID and keeps the answer under c too, so find runs once per ID,
// not once per point.
func resolve(uf *unionfind.UF, remap []int32, c int32, next *int32) int32 {
	r := uf.Find(int(c))
	lab := remap[r]
	if lab < 0 {
		lab = *next
		*next++
		remap[r] = lab
	}
	remap[c] = lab
	return lab
}

// derive turns slot-space components into canonical labellings, reproducing
// the batch algorithms bit for bit: labels assigned on first sight in
// ascending canonical ID order (the labellers' seeds ascend), DBSCAN border
// points taking the minimum label over their core ε-neighbors, everything
// else Noise. It is the one O(points) pass of a batch: one gather slot →
// component → label over every point, which also lists the non-core points,
// and one more over that list alone.
func (l *live) derive(idToSlot []int32) *liveSnap {
	n := len(idToSlot)
	labels := make([]int32, 2*n)
	el, db := labels[:n:n], labels[n:]
	remapEL := resetRemap(l.remapEL, l.ufEL.Len())
	remapDB := resetRemap(l.remapDB, l.ufDB.Len())
	compEL, compDB, core := l.compEL, l.compDB, l.core
	var elNext, dbNext int32
	border := l.border[:0]
	// Components renumber to their emitted labels inline (each slot appears
	// once, so the write-back never races a later read): distinct components
	// got distinct labels, so the IDs stay unique and dense, and the forests
	// restart as that many singletons.
	for p, s := range idToSlot {
		c := compEL[s]
		lab := remapEL[c]
		if lab < 0 {
			lab = resolve(&l.ufEL, remapEL, c, &elNext)
		}
		el[p], compEL[s] = lab, lab
		if !core[s] {
			border = append(border, int32(p))
			continue
		}
		c = compDB[s]
		if lab = remapDB[c]; lab < 0 {
			lab = resolve(&l.ufDB, remapDB, c, &dbNext)
		}
		db[p], compDB[s] = lab, lab
	}
	for _, p := range border {
		best := noise
		for _, t := range l.adj.row(idToSlot[p]) {
			if core[t] {
				if lt := compDB[t]; best == noise || lt < best {
					best = lt
				}
			}
		}
		db[p] = best
	}
	l.remapEL, l.remapDB, l.border = remapEL, remapDB, border
	l.ufEL.Reset(int(elNext))
	l.ufDB.Reset(int(dbNext))
	return &liveSnap{
		eps: l.eps, minPts: l.minPts,
		elLabels: el, elClusters: elNext,
		dbLabels: db, dbClusters: dbNext, corePoints: n - len(border),
	}
}
