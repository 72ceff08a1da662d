package csr

import "netclus/internal/network"

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
// caller-provided stack buffer beats sort.Slice's reflection setup.
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

// AssignNearest is the kernel of the Equation 1 point-assignment scan over
// the snapshot's §4.1 point-group layout: one sequential pass that labels
// every point with its nearest medoid slot given the node assignment in
// med/dist, returning the evaluation function R and the number of groups
// scanned. k-medoids itself runs the generic scan (core's assignGroup over
// ScanGroups) on every backend, so nothing in the engine calls this: it stays
// only because benchmark/layers.go probes it (csr.assign_nearest_ms), and
// ROADMAP item 1 (A) removes it together with that probe. Tests call it as an
// independent check of the generic scan.
//
// The arithmetic and comparison order replicate the generic scan expression
// for expression — endpoint N1, endpoint N2, then same-edge medoids in
// ascending slot order — so labels and the R accumulation are bit-identical.
// The speedup over the generic path: the k same-edge medoids are
// merge-joined from one small sorted slice instead of tested per group, no
// ScanGroups closure dispatch, and the group headers and offsets come
// straight from the flat arrays.
func (s *Snapshot) AssignNearest(medoids []network.PointInfo, med []int32, dist []float64, labels []int32) (float64, int) {
	var stack [32]groupMedoid
	byGroup := sortMedoidsByGroup(medoids, stack[:0])

	var r float64
	gi := 0
	for g := range s.groups {
		lo := gi
		for gi < len(byGroup) && byGroup[gi].gid == int32(g) {
			gi++
		}
		r += scanGroup(&s.groups[g], s.ptPos, medoids, byGroup[lo:gi], med, dist, labels)
	}
	return r, len(s.groups)
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
