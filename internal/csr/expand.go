package csr

import (
	"context"

	"netclus/internal/heapx"
	"netclus/internal/network"
)

// medEntry is a queue entry B of the paper's Figs. 4-5 over kernel indices.
type medEntry struct {
	node int32
	med  int32
	dist float64
}

// ExpandNearest is ExpandNearestLogged without a change log: the entry point
// of callers that never roll the expansion back (Single-Link's Voronoi step
// through the interface, the benchmark's probe directly).
func (s *Snapshot) ExpandNearest(ctx context.Context, seeds []network.MedoidSeed, med []int32, dist []float64) (network.ExpandCounts, error) {
	return s.ExpandNearestLogged(ctx, seeds, med, dist, nil)
}

// ExpandNearestLogged is the kernel of the k-medoids Concurrent_Expansion
// (Figs. 4-5): a multi-source expansion over the flat adjacency that tags
// every node in med/dist with its nearest medoid, appending the value of
// every entry it overwrites to log when log is non-nil. It satisfies
// network.NearestExpander, so core's k-medoids dispatches here when pruning
// is off.
//
// The frontier is a Δ-stepping bucket queue (Δ = the snapshot's mean edge
// weight), not a comparison heap: an entry at distance d files under bucket
// floor(d/Δ) in O(1), buckets drain in ascending order, and entries within
// one bucket come out in arbitrary order. The kernel keeps the one rule of
// the generic expansion (core's expand): a seed or a relaxation writes
// (dist, med) only when it improves the node lexicographically — a lower
// distance, or the same one with a lower medoid slot index — logging the
// entry it replaces, and a popped entry is settled only while it still
// equals its node's entry. Positive edge weights make the key strictly
// increase along every path, so whatever the processing order the arrays
// converge to the unique (dist, med, node) lexicographic fixpoint — each
// node at its shortest seed distance, owned by the lowest-index medoid
// achieving it — which is the assignment the generic binary-heap expansion
// settles on (network.NearestExpander, DESIGN.md §10). Out of order within a
// bucket, a node is settled again only when a better entry reaches it after
// its pop; an entry superseded before its pop is skipped. Equivalence is
// property-tested, not inherited from heap structure; the speedup comes from
// O(1) bucket pushes replacing O(log n) heap ops on top of the flat-array
// row scans.
func (s *Snapshot) ExpandNearestLogged(ctx context.Context, seeds []network.MedoidSeed, med []int32, dist []float64, log *network.MedoidLog) (network.ExpandCounts, error) {
	var c network.ExpandCounts
	q, ok := s.pools.expand.Get().(*heapx.Buckets[medEntry])
	if !ok {
		q = heapx.NewBuckets[medEntry]()
	}
	var changes network.MedoidLog
	if log != nil {
		changes = *log
	}
	defer func() {
		if log != nil {
			*log = changes
		}
		q.Reset()
		s.pools.expand.Put(q)
	}()
	inv := s.invDelta
	// improve is the one write of the expansion: node n takes (d, m), its
	// old entry going to the log first, and the entry is queued.
	improve := func(n, m int32, d float64) {
		if log != nil {
			changes = append(changes, network.MedoidChange{Node: network.NodeID(n), Med: med[n], Dist: dist[n]})
		}
		med[n], dist[n] = m, d
		q.Push(int(d*inv), medEntry{node: n, med: m, dist: d})
	}
	for _, sd := range seeds {
		if n := int32(sd.Node); sd.Dist < dist[n] || (sd.Dist == dist[n] && sd.Med < med[n]) {
			improve(n, sd.Med, sd.Dist)
		}
	}
	ticks := 0
	for !q.Empty() {
		bkt := q.Skip()
		// Drain the bucket to exhaustion: relaxations may re-file into it
		// (zero-length hops, tie-improving pushes at the same distance).
		for {
			batch := q.Drain(bkt)
			if batch == nil {
				break
			}
			for _, b := range batch {
				if b.dist != dist[b.node] || b.med != med[b.node] {
					continue // superseded by a better write
				}
				if err := cancelCheck(ctx, &ticks); err != nil {
					q.Recycle(batch)
					return c, err
				}
				c.Settled++
				row := s.adj[s.rowOff[b.node]:s.rowOff[b.node+1]]
				c.Edges += len(row)
				for _, nb := range row {
					nd := b.dist + nb.Weight
					v := int32(nb.Node)
					if nd > dist[v] || (nd == dist[v] && b.med >= med[v]) {
						continue
					}
					improve(v, b.med, nd)
					c.Pushes++
				}
			}
			q.Recycle(batch)
		}
	}
	return c, nil
}
