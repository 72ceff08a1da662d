package csr

import (
	"context"
	"fmt"

	"netclus/internal/network"
)

// This file holds the seeded, resumable variants of the range and kNN
// kernels that the sharded scatter-gather executor (internal/shard) drives:
// a shard's expansion starts from the query point when the shard owns it,
// or from boundary-node seeds handed over by the executor, and can be
// resumed with improved boundary distances until the cross-shard fixpoint
// is reached. The loop bodies replicate run() and knnInto() expression for
// expression — same relaxations, same comparison polarity, same
// along-edge arithmetic — so the per-shard distances are bit-identical to
// what the single-snapshot kernel computes along the same routes, which is
// what makes the stitched results byte-identical overall. The hot
// single-snapshot paths stay untouched.

// NewKernelScratch exposes the concrete kernel scratch for the sharded
// executor. Plain callers use Snapshot.NewRangeScratch / network.ScratchFor.
func (s *Snapshot) NewKernelScratch() *Scratch { return s.newScratch() }

// SetWatch installs the watched-node mask (the shard's boundary nodes,
// indexed by local node ID, nil to disable). Seeded runs append every
// watched node they settle to the list returned by Settled.
func (sc *Scratch) SetWatch(mask []bool) { sc.watch = mask }

// Settled returns the watched nodes settled during the last seeded call
// (valid until the next call). A node can appear more than once across
// resumed rounds — and even within one round, at improving distances —
// so callers read its final distance through NodeDist.
func (sc *Scratch) Settled() []int32 { return sc.watched }

// NodeDist returns the current distance label of local node n, and whether
// the node was settled at all during this query's rounds.
func (sc *Scratch) NodeDist(n int32) (float64, bool) {
	if sc.nodeEpoch[n] != sc.epoch {
		return network.Inf, false
	}
	return sc.nodeDist[n], true
}

// RangeResults returns the local point IDs discovered so far (across all
// rounds of the current query).
func (sc *Scratch) RangeResults() []network.PointID { return sc.result }

// PointDist returns the best distance recorded for a discovered point.
func (sc *Scratch) PointDist(p network.PointID) float64 { return sc.ptDist[p] }

// SeededRange runs one round of the bounded ε-expansion: on a fresh round
// starting from local point p (pass p < 0 when this shard does not own the
// query point) plus the given boundary seeds; on a resumed round
// (resume=true) continuing the previous expansion with new seeds only.
// Seeds beyond eps or not improving the node's current label are ignored,
// exactly as the kernel's own relaxation would ignore them.
func (sc *Scratch) SeededRange(ctx context.Context, p network.PointID, seeds []network.Seed, eps float64, resume bool) error {
	ticks := 0
	if err := cancelCheck(ctx, &ticks); err != nil {
		return err
	}
	sn := sc.sn
	if !resume {
		sc.nextEpoch()
	}
	sc.watched = sc.watched[:0]
	if !resume && p >= 0 {
		if int(p) >= len(sn.ptPos) {
			return fmt.Errorf("%w: %d", network.ErrPointRange, p)
		}
		pg := &sn.groups[sn.ptGrp[p]]
		pos := sn.ptPos[p]
		first := int32(pg.First)
		off := sn.ptPos[first : first+pg.Count]
		pi := int(int32(p) - first)
		for i := pi; i >= 0 && pos-off[i] <= eps; i-- {
			sc.addPoint(network.PointID(first+int32(i)), pos-off[i])
		}
		for i := pi + 1; i < len(off) && off[i]-pos <= eps; i++ {
			sc.addPoint(network.PointID(first+int32(i)), off[i]-pos)
		}
		if pos <= eps {
			sc.heap.Push(entry{node: int32(pg.N1), dist: pos})
		}
		if d := pg.Weight - pos; d <= eps {
			sc.heap.Push(entry{node: int32(pg.N2), dist: d})
		}
	}
	for _, sd := range seeds {
		if sd.Dist <= eps && sd.Dist < sc.dist(int32(sd.Node)) {
			sc.heap.Push(entry{node: int32(sd.Node), dist: sd.Dist})
		}
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
		if sc.watch != nil && sc.watch[e.node] {
			sc.watched = append(sc.watched, e.node)
		}
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

// KNNOffers returns the current candidate set of the seeded kNN rounds, in
// ascending (Dist, Point) order over local point IDs, at most k entries.
func (sc *Scratch) KNNOffers() []network.PointDist { return sc.seedO.s }

// SeededKNN runs one round of the bounded kNN expansion. On a fresh round
// the candidate set is reset and, when the shard owns the query point p,
// the same-edge arms and edge-exit pushes of the plain kernel run first;
// resumed rounds continue with the new boundary seeds and the retained
// candidate set and frontier. bound caps the expansion: the executor passes
// the current global k-th best distance, which is always at least the final
// bound, so capping can only skip work the global merge would discard. The
// local candidate set keeps the best k local points; merged across shards
// (plus the executor's own cut-edge candidates) that reproduces the
// single-snapshot offer set exactly.
func (sc *Scratch) SeededKNN(ctx context.Context, p network.PointID, seeds []network.Seed, k int, bound float64, resume bool) error {
	s := sc.sn
	ticks := 0
	if err := cancelCheck(ctx, &ticks); err != nil {
		return err
	}
	if !resume {
		sc.nextEpoch()
		sc.seedO = offers{p: p, k: k, s: sc.seedS[:0], sc: sc}
	}
	sc.watched = sc.watched[:0]
	sc.seedCap = bound
	o := &sc.seedO
	if !resume && p >= 0 {
		if int(p) >= len(s.ptPos) {
			return fmt.Errorf("%w: %d", network.ErrPointRange, p)
		}
		pg := &s.groups[s.ptGrp[p]]
		pos := s.ptPos[p]
		first := int32(pg.First)
		off := s.ptPos[first : first+pg.Count]
		pi := int(int32(p) - first)
		for i := pi; i >= 0; i-- {
			if d := pos - off[i]; d > sc.seedBound(o) {
				break
			} else {
				o.offer(network.PointID(first+int32(i)), d)
			}
		}
		for i := pi + 1; i < len(off); i++ {
			if d := off[i] - pos; d > sc.seedBound(o) {
				break
			} else {
				o.offer(network.PointID(first+int32(i)), d)
			}
		}
		sc.heap.Push(entry{node: int32(pg.N1), dist: pos})
		sc.heap.Push(entry{node: int32(pg.N2), dist: pg.Weight - pos})
	}
	for _, sd := range seeds {
		if sd.Dist < sc.dist(int32(sd.Node)) {
			sc.heap.Push(entry{node: int32(sd.Node), dist: sd.Dist})
		}
	}
	for !sc.heap.Empty() {
		e := sc.heap.Pop()
		if e.dist >= sc.dist(e.node) {
			continue
		}
		if err := cancelCheck(ctx, &ticks); err != nil {
			sc.seedS = o.s
			return err
		}
		if e.dist > sc.seedBound(o) {
			// The popped entry is beyond the bound: every remaining frontier
			// entry is too, so stop this round. The frontier is retained; a
			// resume with closer seeds continues it. (The discarded entry is
			// irrelevant: its distance exceeds the final global bound, and if
			// the node matters at a smaller distance a future seed re-pushes
			// it.)
			break
		}
		sc.nodeEpoch[e.node] = sc.epoch
		sc.nodeDist[e.node] = e.dist
		if sc.watch != nil && sc.watch[e.node] {
			sc.watched = append(sc.watched, e.node)
		}
		for _, nb := range s.adj[s.rowOff[e.node]:s.rowOff[e.node+1]] {
			if nb.Group >= 0 {
				npg := &s.groups[nb.Group]
				nfirst := int32(npg.First)
				noff := s.ptPos[nfirst : nfirst+npg.Count]
				if e.node == int32(npg.N1) {
					for j := 0; j < len(noff); j++ {
						d := e.dist + noff[j]
						if d > sc.seedBound(o) {
							break
						}
						o.offer(network.PointID(nfirst+int32(j)), d)
					}
				} else {
					for j := len(noff) - 1; j >= 0; j-- {
						d := e.dist + (npg.Weight - noff[j])
						if d > sc.seedBound(o) {
							break
						}
						o.offer(network.PointID(nfirst+int32(j)), d)
					}
				}
			}
			if nd := e.dist + nb.Weight; nd <= sc.seedBound(o) {
				if v := int32(nb.Node); nd < sc.dist(v) {
					sc.heap.Push(entry{node: v, dist: nd})
				}
			}
		}
	}
	sc.seedS = o.s
	return nil
}

// seedBound is the pruning bound of a seeded kNN round: the local candidate
// set's own k-th best, tightened by the executor's global bound. Both are
// upper bounds on the final k-th distance, so pruning by their minimum
// never discards a surviving candidate.
func (sc *Scratch) seedBound(o *offers) float64 {
	if b := o.bound(); b < sc.seedCap {
		return b
	}
	return sc.seedCap
}
