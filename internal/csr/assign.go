package csr

import (
	"math"

	"netclus/internal/network"
)

// assignScratch is the pooled per-node dirty stamp of AssignNearestDelta:
// stamp[n] == epoch marks node n's assignment as changed by the swap being
// scanned. Epoch stamping makes the reset O(1) per call.
type assignScratch struct {
	stamp []int32
	epoch int32
}

func (s *Snapshot) acquireAssign() *assignScratch {
	as, ok := s.assignPool.Get().(*assignScratch)
	if !ok {
		as = &assignScratch{stamp: make([]int32, len(s.rowOff)-1)}
	}
	if as.epoch == math.MaxInt32 {
		for i := range as.stamp {
			as.stamp[i] = 0
		}
		as.epoch = 0
	}
	as.epoch++
	return as
}

func (s *Snapshot) releaseAssign(as *assignScratch) { s.assignPool.Put(as) }

// groupMedoid pairs a medoid's point group with its slot index in the
// current medoid set; the assignment scans consume a slice of them sorted
// ascending as a merge join against the group sweep.
type groupMedoid struct {
	gid  int32
	slot int32
}

// sortMedoidsByGroup builds the (group, slot) list into buf, sorted by group
// with slots ascending within a group — the generic path's slot-index
// iteration order at ties. k is small (tens); an insertion sort on a
// caller-provided stack buffer beats sort.Slice's reflection setup at the
// once-per-swap call rate.
func sortMedoidsByGroup(medoids []network.PointInfo, buf []groupMedoid) []groupMedoid {
	byGroup := buf
	if len(medoids) > cap(byGroup) {
		byGroup = make([]groupMedoid, 0, len(medoids))
	}
	for i, m := range medoids {
		gm := groupMedoid{gid: int32(m.Group), slot: int32(i)}
		j := len(byGroup)
		byGroup = append(byGroup, gm)
		for j > 0 && byGroup[j-1].gid > gm.gid {
			byGroup[j] = byGroup[j-1]
			j--
		}
		byGroup[j] = gm
	}
	return byGroup
}

// AssignNearest is the kernel of the Equation 1 point-assignment scan over a
// §4.1 point-group layout (groups in ascending first-point order, ptPos the
// flat offset table they index): one sequential pass that labels every point
// with its nearest medoid slot given the node assignment in med/dist,
// returning the evaluation function R and the number of groups scanned. sub,
// when non-nil, receives each group's R subtotal. The snapshot and the
// sharded set, which keeps the same two tables over its global ID space, both
// answer network.MedoidAssigner with it.
//
// The arithmetic and comparison order replicate the generic scan expression
// for expression — endpoint N1, endpoint N2, then same-edge medoids in
// ascending slot order — so labels and the R accumulation are bit-identical.
// The speedup over the generic path: no per-call map[GroupID][]int32 build
// (the k same-edge medoids are merge-joined from one small sorted slice),
// no ScanGroups closure dispatch, and the group headers and offsets come
// straight from the flat arrays. k-medoids runs this once per attempted
// swap, so on large point sets it is a sizable share of the per-swap cost.
func AssignNearest(groups []network.PointGroup, ptPos []float64, medoids []network.PointInfo, med []int32, dist []float64, labels []int32, sub []float64) (float64, int) {
	var stack [32]groupMedoid
	byGroup := sortMedoidsByGroup(medoids, stack[:0])

	var r float64
	gi := 0
	for g := range groups {
		lo := gi
		for gi < len(byGroup) && byGroup[gi].gid == int32(g) {
			gi++
		}
		sg := scanGroup(&groups[g], ptPos, medoids, byGroup[lo:gi], med, dist, labels)
		if sub != nil {
			sub[g] = sg
		}
		r += sg
	}
	return r, len(groups)
}

// AssignNearest satisfies network.MedoidAssigner, so core.AssignPoints
// dispatches here for snapshots.
func (s *Snapshot) AssignNearest(medoids []network.PointInfo, med []int32, dist []float64, labels []int32) (float64, int) {
	return AssignNearest(s.groups, s.ptPos, medoids, med, dist, labels, nil)
}

// AssignNearestDelta is the network.DeltaAssigner kernel: the Equation 1
// scan restricted to the groups a medoid swap touched, written in place. A
// group's labels and R subtotal depend only on the (med, dist) of its two
// endpoints and the medoids on its own edge, so groups whose endpoints hold
// what they held before the swap — and that are not one of the extraGroups
// edges that lost or gained the swapped medoid — keep their labels and sub
// entry; a rescanned group's are saved to undo first. R is re-summed over
// all group subtotals in ascending group order, the same association as the
// full scans, so the value is bit-identical to rescanning everything.
// undo == nil runs the full scan and seeds sub.
func (s *Snapshot) AssignNearestDelta(medoids []network.PointInfo, med []int32, dist []float64,
	changed network.MedoidLog, extraGroups []network.GroupID,
	labels []int32, sub []float64, undo *network.AssignUndo) (float64, int) {
	if undo == nil {
		return AssignNearest(s.groups, s.ptPos, medoids, med, dist, labels, sub)
	}
	var stack [32]groupMedoid
	byGroup := sortMedoidsByGroup(medoids, stack[:0])

	// Stamp the nodes whose assignment moved; a group is dirty when either
	// endpoint is stamped. The log is read backwards so that the entry which
	// decides a node is its earliest — the value it held before the swap: a
	// node the expansion took away and gave back unchanged stays clean. The
	// epoch trick makes the per-swap reset O(1).
	as := s.acquireAssign()
	epoch, stamp := as.epoch, as.stamp
	for i := len(changed) - 1; i >= 0; i-- {
		e := &changed[i]
		if med[e.Node] != e.Med || dist[e.Node] != e.Dist {
			stamp[e.Node] = epoch
		} else {
			stamp[e.Node] = 0
		}
	}

	var ex [4]int32
	exs := ex[:0]
	for _, eg := range extraGroups {
		exs = append(exs, int32(eg))
	}

	var r float64
	gi, rescanned := 0, 0
	for g := range s.groups {
		g32 := int32(g)
		lo := gi
		for gi < len(byGroup) && byGroup[gi].gid == g32 {
			gi++
		}
		pg := &s.groups[g]
		dirty := stamp[pg.N1] == epoch || stamp[pg.N2] == epoch
		if !dirty {
			for _, eg := range exs {
				if eg == g32 {
					dirty = true
					break
				}
			}
		}
		if dirty {
			undo.Save(network.GroupID(g), pg.First, labels[pg.First:pg.First+network.PointID(pg.Count)], sub[g])
			sub[g] = scanGroup(pg, s.ptPos, medoids, byGroup[lo:gi], med, dist, labels)
			rescanned++
		}
		r += sub[g]
	}
	s.releaseAssign(as)
	return r, rescanned
}

// scanGroup runs the Equation 1 minimization over one point group, writing
// the group's labels and returning its R subtotal. same lists the medoids on
// this group's edge as (gid, slot) pairs in ascending slot order.
func scanGroup(pg *network.PointGroup, ptPos []float64, medoids []network.PointInfo, same []groupMedoid, med []int32, dist []float64, labels []int32) float64 {
	d1, m1 := dist[pg.N1], med[pg.N1]
	d2, m2 := dist[pg.N2], med[pg.N2]
	first := int32(pg.First)
	off := ptPos[first : first+pg.Count]
	lbl := labels[first : first+pg.Count]
	var sg float64
	if len(same) == 0 {
		// No medoid on this edge (the overwhelmingly common case): only the
		// two endpoint routes compete. Same expressions and comparison order
		// as below, minus the dead inner loop.
		w := pg.Weight
		for i, o := range off {
			best, bestM := network.Inf, int32(-1)
			if d := d1 + o; d < best {
				best, bestM = d, m1
			}
			if d := d2 + (w - o); d < best {
				best, bestM = d, m2
			}
			lbl[i] = bestM
			if bestM >= 0 {
				sg += best
			}
		}
		return sg
	}
	for i, o := range off {
		best, bestM := network.Inf, int32(-1)
		if d := d1 + o; d < best {
			best, bestM = d, m1
		}
		if d := d2 + (pg.Weight - o); d < best {
			best, bestM = d, m2
		}
		for _, sm := range same {
			m := medoids[sm.slot]
			dl := o - m.Pos
			if dl < 0 {
				dl = -dl
			}
			if dl < best {
				best, bestM = dl, sm.slot
			}
		}
		lbl[i] = bestM
		if bestM >= 0 {
			sg += best
		}
	}
	return sg
}
