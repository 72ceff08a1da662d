package csr

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"netclus/internal/heapx"
	"netclus/internal/network"
)

// prEntry is a frontier element of the parallel range expansion: an accepted
// improvement of node to dist, queued for relaxation.
type prEntry struct {
	node int32
	dist float64
}

// prInlineThreshold is the frontier chunk size below which a wave is
// processed inline on the coordinator: splitting a handful of entries
// across goroutines costs more than it saves.
const prInlineThreshold = 64

// prState is the pooled per-query coordination state of the parallel range
// expansion: the Δ-stepping bucket queue, the per-worker proposal buffers
// and error slots, and the worker scratch pointer array. Pooling it keeps
// repeated parallel queries allocation-free apart from the caller-owned
// result slice.
type prState struct {
	q    *heapx.Buckets[prEntry]
	bufs [][]prEntry
	errs []error
	ws   []*Scratch
}

func (s *Snapshot) acquirePrange(workers int) *prState {
	ps, ok := s.pools.prange.Get().(*prState)
	if !ok {
		ps = &prState{q: heapx.NewBuckets[prEntry]()}
	}
	ps.q.Reset()
	for len(ps.bufs) < workers {
		ps.bufs = append(ps.bufs, nil)
	}
	for len(ps.errs) < workers {
		ps.errs = append(ps.errs, nil)
	}
	for len(ps.ws) < workers {
		ps.ws = append(ps.ws, nil)
	}
	ps.bufs, ps.errs, ps.ws = ps.bufs[:workers], ps.errs[:workers], ps.ws[:workers]
	for i := range ps.errs {
		ps.errs[i] = nil
	}
	return ps
}

func (s *Snapshot) releasePrange(ps *prState) { s.pools.prange.Put(ps) }

// RangeQueryDistParallel answers one ε-range query with the frontier split
// across workers — the large-ε companion of the sequential kernel, for
// queries whose expansion covers enough of the network that a single core
// becomes the bottleneck. It returns every point within eps of p with its
// exact network distance in canonical ascending (Dist, Point) order; the
// slice is caller-owned. RangeQueryDistParallelInto is the allocation-free
// variant for repeated queries.
//
// The expansion runs in Δ-stepping waves (same Δ as ExpandNearest). Each
// wave drains one distance bucket: the frontier chunk is partitioned across
// the workers, which relax their share against a read-only view of the
// authoritative node-distance array and collect qualifying points into
// per-worker scratch (own epoch stamps, so no write sharing); the
// coordinator then merges the proposed node improvements sequentially —
// min-merge, the same discipline that makes the union-find shard merge of
// the parallel DBSCAN deterministic — writes the winners into the
// authoritative array and files them into their buckets. Within one bucket,
// waves repeat until no entry remains (a short intra-bucket edge can
// improve an already-relaxed node; the improvement re-files and is relaxed
// again, exactly like sequential Δ-stepping re-processing).
//
// Determinism does not depend on the schedule: a worker relaxing from a
// stale (higher) distance only proposes distances at least as large as the
// relaxation from the node's final value, which some wave is guaranteed to
// perform once the value is final — so after the merge fold every node and
// point distance equals the sequential kernel's, bit for bit, and the
// canonical sort fixes the order. Property and race tests assert equality
// against Scratch.run across worker counts.
func (s *Snapshot) RangeQueryDistParallel(ctx context.Context, p network.PointID, eps float64, workers int) ([]network.PointDist, error) {
	return s.RangeQueryDistParallelInto(ctx, p, eps, workers, nil)
}

// RangeQueryDistParallelInto is RangeQueryDistParallel appending into
// dst[:0] — wide queries return thousands of points, so callers issuing
// them in a loop reuse one result buffer instead of allocating per query.
//
// workers is additionally capped at GOMAXPROCS: the kernel is pure CPU and
// wave-synchronous, so workers beyond the available Ps contribute nothing
// but coordination overhead, and the output is schedule-independent either
// way.
func (s *Snapshot) RangeQueryDistParallelInto(ctx context.Context, p network.PointID, eps float64, workers int, dst []network.PointDist) ([]network.PointDist, error) {
	if mp := runtime.GOMAXPROCS(0); workers > mp {
		workers = mp
	}
	if workers <= 1 {
		// One worker leaves nothing to split: the wave discipline would be
		// plain Δ-stepping with a buffered push detour. Run the sequential
		// kernel instead — node and point distances are min-merges over the
		// same route set, so the output is identical bit for bit.
		sc := s.acquire()
		defer s.release(sc)
		if err := sc.run(ctx, p, eps); err != nil {
			return nil, err
		}
		out := dst[:0]
		for _, pt := range sc.result {
			out = append(out, network.PointDist{Point: pt, Dist: sc.ptDist[pt]})
		}
		network.SortPointDists(out)
		return out, nil
	}
	return s.rangeParallel(ctx, p, eps, workers, dst)
}

// rangeParallel is the frontier-split expansion at face-value workers ≥ 2;
// the exported entry points apply the GOMAXPROCS cap before dispatching
// here, and the equivalence and race tests call it directly so the parallel
// machinery is exercised whatever the host's processor count.
func (s *Snapshot) rangeParallel(ctx context.Context, p network.PointID, eps float64, workers int, dst []network.PointDist) ([]network.PointDist, error) {
	ticks := 0
	if err := cancelCheck(ctx, &ticks); err != nil {
		return nil, err
	}
	if p < 0 || int(p) >= len(s.ptPos) {
		return nil, fmt.Errorf("%w: %d", network.ErrPointRange, p)
	}

	// The master scratch holds the authoritative node distances and the
	// final point accumulation; each worker collects points into its own.
	master := s.acquire()
	defer s.release(master)
	master.nextEpoch()
	ps := s.acquirePrange(workers)
	defer s.releasePrange(ps)
	ws := ps.ws
	for i := range ws {
		ws[i] = s.acquire()
		ws[i].nextEpoch()
		defer s.release(ws[i])
	}

	q := ps.q
	inv := s.invDelta
	pg := &s.groups[s.ptGrp[p]]
	pos := s.ptPos[p]

	// Same-edge points, directly reachable along the query point's edge.
	first := int32(pg.First)
	off := s.ptPos[first : first+pg.Count]
	pi := int(int32(p) - first)
	for i := pi; i >= 0 && pos-off[i] <= eps; i-- {
		master.addPoint(network.PointID(first+int32(i)), pos-off[i])
	}
	for i := pi + 1; i < len(off) && off[i]-pos <= eps; i++ {
		master.addPoint(network.PointID(first+int32(i)), off[i]-pos)
	}

	// Seed the edge exits through the same merge discipline as every wave.
	seed := func(n int32, d float64) {
		if d <= eps && d < master.dist(n) {
			master.nodeEpoch[n] = master.epoch
			master.nodeDist[n] = d
			q.Push(int(d*inv), prEntry{node: n, dist: d})
		}
	}
	seed(int32(pg.N1), pos)
	seed(int32(pg.N2), pg.Weight-pos)

	pushBufs := ps.bufs
	werrs := ps.errs
	var wg sync.WaitGroup

	// relax processes entries[lo:hi] for worker w: stale entries (already
	// improved past their distance) are skipped, live ones scan their
	// adjacency row, collecting points into the worker's scratch and
	// proposing node improvements into its push buffer.
	relax := func(w int, entries []prEntry, ticks *int) error {
		sc := ws[w]
		buf := pushBufs[w][:0]
		for _, e := range entries {
			if e.dist > master.nodeDist[e.node] || master.nodeEpoch[e.node] != master.epoch {
				continue // superseded after filing (stale duplicate)
			}
			if err := cancelCheck(ctx, ticks); err != nil {
				pushBufs[w] = buf
				return err
			}
			for _, nb := range s.adj[s.rowOff[e.node]:s.rowOff[e.node+1]] {
				if nb.Group >= 0 {
					sc.collect(e.node, int32(nb.Group), e.dist, eps)
				}
				if nd := e.dist + nb.Weight; nd <= eps {
					if v := int32(nb.Node); nd < masterDist(master, v) {
						buf = append(buf, prEntry{node: v, dist: nd})
					}
				}
			}
		}
		pushBufs[w] = buf
		return nil
	}

	for !q.Empty() {
		bkt := q.Skip()
		for {
			entries := q.Drain(bkt)
			if entries == nil {
				break
			}
			if workers == 1 || len(entries) < prInlineThreshold {
				// Small wave: relax inline on the coordinator as worker 0.
				if err := relax(0, entries, &ticks); err != nil {
					return nil, err
				}
			} else {
				chunk := (len(entries) + workers - 1) / workers
				for w := 0; w < workers; w++ {
					lo := w * chunk
					if lo >= len(entries) {
						break
					}
					hi := lo + chunk
					if hi > len(entries) {
						hi = len(entries)
					}
					wg.Add(1)
					go func(w int, part []prEntry) {
						defer wg.Done()
						wt := 0
						werrs[w] = relax(w, part, &wt)
					}(w, entries[lo:hi])
				}
				wg.Wait()
				for _, err := range werrs {
					if err != nil {
						return nil, err
					}
				}
			}
			q.Recycle(entries)
			// Sequential merge: fold the workers' proposals in worker order,
			// keeping strict improvements only. Commutative min-merge — the
			// final array does not depend on the fold order.
			for w := 0; w < workers; w++ {
				for _, e := range pushBufs[w] {
					if e.dist < master.dist(e.node) {
						master.nodeEpoch[e.node] = master.epoch
						master.nodeDist[e.node] = e.dist
						q.Push(int(e.dist*inv), e)
					}
				}
				pushBufs[w] = pushBufs[w][:0]
			}
		}
	}

	// Fold the workers' point accumulations into the master's: commutative
	// min-merge again, so the final per-point distance is the minimum over
	// every discovery route, exactly as in the sequential kernel.
	for _, sc := range ws {
		for _, pt := range sc.result {
			master.addPoint(pt, sc.ptDist[pt])
		}
	}

	out := dst[:0]
	for _, pt := range master.result {
		out = append(out, network.PointDist{Point: pt, Dist: master.ptDist[pt]})
	}
	network.SortPointDists(out)
	return out, nil
}

// masterDist reads the authoritative distance of node n — like
// Scratch.dist, but named for use inside worker goroutines, where the
// master array is read-only by convention (writes happen only in the
// coordinator's merge phases, between waves).
func masterDist(master *Scratch, n int32) float64 {
	if master.nodeEpoch[n] != master.epoch {
		return network.Inf
	}
	return master.nodeDist[n]
}
