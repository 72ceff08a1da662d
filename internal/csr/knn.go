package csr

import (
	"context"
	"fmt"
	"sort"

	"netclus/internal/network"
)

// KNNCtx returns the k points closest to p in network distance (excluding p
// itself), ascending (Dist, Point) — the kernel behind
// network.KNearestNeighborsCtx, which dispatches here for snapshots. The
// result set is identical to the generic expansion: the offer set keeps the
// k best candidates under the deterministic (Dist, Point) tie-break, so it
// depends only on which (candidate, distance) offers are made, not on the
// traversal's discovery order. Traversal state comes from the snapshot's
// scratch pool; steady state allocates only the result slice.
func (s *Snapshot) KNNCtx(ctx context.Context, p network.PointID, k int) ([]network.PointDist, error) {
	if k < 1 {
		return nil, fmt.Errorf("%w: k-NN needs k >= 1, got %d", network.ErrInvalidOptions, k)
	}
	k = min(k, len(s.ptPos)) // result storage is sized by k; no more points exist
	sc := s.acquire()
	defer s.release(sc)
	out := make([]network.PointDist, k)
	n, err := sc.knnInto(ctx, p, k, out)
	if err != nil {
		return nil, err
	}
	return out[:n], nil
}

// knnInto runs one kNN query on this scratch, writing up to k results into
// dst (which must hold at least k entries) and returning how many were
// found. It is the shared kernel of KNNCtx and the batched KNNBatch sweep.
//
// Two savings over offering every point of every met group (what the
// generic expansion does):
//
//   - The per-edge point buckets are position-sorted, so the along-edge
//     distances from the entry endpoint ascend through a prefix scan (from
//     N1) or a reversed suffix scan (from N2); once one point falls beyond
//     the running k-th-best bound, the rest of the bucket must too, and the
//     scan breaks. Skipped offers all exceed the bound, so the surviving
//     set — the k lexicographically smallest (distance, point) pairs over
//     per-point best offers — is unchanged.
//
//   - Repeat offers for a candidate (each edge endpoint makes one) are
//     rejected in O(1) by an epoch-stamped best-distance stamp on the
//     scratch's per-point arrays, replacing the O(k) linear dedup scan of
//     the sorted candidate set.
func (sc *Scratch) knnInto(ctx context.Context, p network.PointID, k int, dst []network.PointDist) (int, error) {
	s := sc.sn
	ticks := 0
	if err := cancelCheck(ctx, &ticks); err != nil {
		return 0, err
	}
	if p < 0 || int(p) >= len(s.ptPos) {
		return 0, fmt.Errorf("%w: %d", network.ErrPointRange, p)
	}
	sc.nextEpoch()

	pg := &s.groups[s.ptGrp[p]]
	pos := s.ptPos[p]
	o := offers{p: p, k: k, s: sc.knnS[:0], sc: sc}

	// Same-edge candidates (direct distance), scanned outward from p so
	// both arms ascend and stop at the bound.
	first := int32(pg.First)
	off := s.ptPos[first : first+pg.Count]
	pi := int(int32(p) - first)
	for i := pi; i >= 0; i-- {
		if d := pos - off[i]; d > o.bound() {
			break
		} else {
			o.offer(network.PointID(first+int32(i)), d)
		}
	}
	for i := pi + 1; i < len(off); i++ {
		if d := off[i] - pos; d > o.bound() {
			break
		} else {
			o.offer(network.PointID(first+int32(i)), d)
		}
	}

	// Bounded Dijkstra from p's edge exits, collecting points of every edge
	// met, pruned by the running k-th best distance.
	sc.heap.Push(entry{node: int32(pg.N1), dist: pos})
	sc.heap.Push(entry{node: int32(pg.N2), dist: pg.Weight - pos})
	for !sc.heap.Empty() {
		e := sc.heap.Pop()
		if e.dist >= sc.dist(e.node) {
			continue
		}
		if err := cancelCheck(ctx, &ticks); err != nil {
			sc.knnS = o.s
			return 0, err
		}
		if e.dist > o.bound() {
			break // no unsettled node can contribute anymore
		}
		sc.nodeEpoch[e.node] = sc.epoch
		sc.nodeDist[e.node] = e.dist
		for _, nb := range s.adj[s.rowOff[e.node]:s.rowOff[e.node+1]] {
			if nb.Group >= 0 {
				npg := &s.groups[nb.Group]
				nfirst := int32(npg.First)
				noff := s.ptPos[nfirst : nfirst+npg.Count]
				if e.node == int32(npg.N1) {
					for j := 0; j < len(noff); j++ {
						d := e.dist + noff[j]
						if d > o.bound() {
							break
						}
						o.offer(network.PointID(nfirst+int32(j)), d)
					}
				} else {
					for j := len(noff) - 1; j >= 0; j-- {
						d := e.dist + (npg.Weight - noff[j])
						if d > o.bound() {
							break
						}
						o.offer(network.PointID(nfirst+int32(j)), d)
					}
				}
			}
			if nd := e.dist + nb.Weight; nd <= o.bound() {
				if v := int32(nb.Node); nd < sc.dist(v) {
					sc.heap.Push(entry{node: v, dist: nd})
				}
			}
		}
	}
	sc.knnS = o.s // keep the grown backing array for the next query
	return copy(dst, o.s), nil
}

// offers keeps the k best (distance, point) candidates seen so far with the
// deterministic (Dist, Point) tie-break — the kernel's twin of the network
// package's offerSet, so both kNN paths agree even at k-th-place ties. The
// scratch's epoch-stamped per-point arrays carry each candidate's best
// offer so far, turning the repeat-offer test into two array loads.
type offers struct {
	p  network.PointID
	k  int
	s  []network.PointDist // ascending (Dist, Point), len <= k
	sc *Scratch
}

// bound returns the current k-th best offer distance (+Inf while fewer than
// k candidates are known). No k-th-or-worse offer can change the result set.
func (o *offers) bound() float64 {
	if len(o.s) < o.k {
		return network.Inf
	}
	return o.s[len(o.s)-1].Dist
}

// offer records distance d for candidate q, evicting the (Dist, Point)-largest
// entry when the set exceeds k.
func (o *offers) offer(q network.PointID, d float64) {
	if q == o.p {
		return
	}
	sc := o.sc
	if sc.ptEpoch[q] == sc.epoch {
		old := sc.ptDist[q]
		if d >= old {
			return // not an improvement for this candidate
		}
		sc.ptDist[q] = d
		// Drop the superseded entry if it made the candidate set. (It may
		// not have: ptDist also tracks candidates rejected by the bound.)
		if at := o.search(old, q); at < len(o.s) && o.s[at].Point == q {
			o.s = append(o.s[:at], o.s[at+1:]...)
		}
	} else {
		sc.ptEpoch[q] = sc.epoch
		sc.ptDist[q] = d
	}
	if d > o.bound() {
		return
	}
	at := o.search(d, q)
	o.s = append(o.s, network.PointDist{})
	copy(o.s[at+1:], o.s[at:])
	o.s[at] = network.PointDist{Point: q, Dist: d}
	if len(o.s) > o.k {
		o.s = o.s[:o.k]
	}
}

// search returns the first (Dist, Point)-ascending position not before
// (d, q) — the insertion slot, and the exact index when (d, q) is present.
func (o *offers) search(d float64, q network.PointID) int {
	return sort.Search(len(o.s), func(i int) bool {
		if o.s[i].Dist != d {
			return o.s[i].Dist > d
		}
		return o.s[i].Point >= q
	})
}
