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

// expandFine is how many buckets of the expansion's frontier one mean edge
// weight spans. At 1 (plain Δ = mean) a node is settled about twice over on
// the road stand-ins, because an entry shares its bucket with the entries it
// spawns; at 8 re-settles fall to ~1.1 per node, and beyond 16 the empty
// buckets the cursor steps over cost more than the re-settles they save
// (DESIGN.md §10 has the sweep). The result does not depend on it.
const expandFine = 8

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
// weight / expandFine), not a comparison heap: an entry at distance d files
// under bucket floor(d/Δ) in O(1), buckets drain in ascending order, and
// entries within one bucket are processed in arbitrary order with
// re-processing when a same-bucket relaxation improves a node. That is
// allowed because the expansion is label-correcting under the explicit
// lexicographic (dist, med) acceptance test: a node takes an entry when it
// lowers the distance, or matches it with a lower medoid slot index.
// Positive edge weights make the key strictly increase along every path, so
// whatever the processing order the arrays converge to the unique
// (dist, med, node) lexicographic fixpoint — each node at its shortest seed
// distance, owned by the lowest-index medoid achieving it — which is the
// same assignment the generic binary-heap expansion settles on
// (network.NearestExpander, DESIGN.md §10). Equivalence is property-tested,
// not inherited from heap structure; the speedup comes from O(1) bucket
// pushes replacing O(log n) heap ops on top of the flat-array row scans.
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
	inv := s.invDelta * expandFine
	for _, sd := range seeds {
		q.Push(int(sd.Dist*inv), medEntry{node: int32(sd.Node), med: sd.Med, dist: sd.Dist})
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
				if b.dist > dist[b.node] || (b.dist == dist[b.node] && b.med >= med[b.node]) {
					continue
				}
				if err := cancelCheck(ctx, &ticks); err != nil {
					q.Recycle(batch)
					return c, err
				}
				if log != nil {
					changes = append(changes, network.MedoidChange{Node: network.NodeID(b.node), Med: med[b.node], Dist: dist[b.node]})
				}
				med[b.node] = b.med
				dist[b.node] = b.dist
				c.Settled++
				row := s.adj[s.rowOff[b.node]:s.rowOff[b.node+1]]
				c.Edges += len(row)
				for _, nb := range row {
					nd := b.dist + nb.Weight
					v := int32(nb.Node)
					if nd > dist[v] || (nd == dist[v] && b.med >= med[v]) {
						continue
					}
					q.Push(int(nd*inv), medEntry{node: v, med: b.med, dist: nd})
					c.Pushes++
				}
			}
			q.Recycle(batch)
		}
	}
	return c, nil
}
