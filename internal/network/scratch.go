package network

import "context"

// RangeQuerier is the reusable ε-range query state the clustering algorithms
// and the serving layer run against: the generic *RangeScratch over any
// Graph, or a graph-native kernel scratch (the compiled CSR snapshot's).
// A querier is bound to one goroutine at a time, like *RangeScratch.
//
// The g argument of the query methods names the graph to traverse; a querier
// obtained from ScratchFor(g) must be used with that same g. A kernel scratch
// also serves every other snapshot of g's family (one derived from the same
// base, such as a live overlay's next view) and refuses any other graph with
// ErrInvalidOptions.
type RangeQuerier interface {
	// RangeQueryCtx returns the IDs of every point within eps of p (p
	// included). The slice is reused by the next query on the scratch.
	RangeQueryCtx(ctx context.Context, g Graph, p PointID, eps float64) ([]PointID, error)
	// RangeQueryLimitCtx is RangeQueryCtx that may stop as soon as limit
	// points are proven within eps of p: it returns either the whole
	// neighbourhood (fewer than limit points) or at least limit of its
	// members. A querier without an early exit returns the whole
	// neighbourhood.
	RangeQueryLimitCtx(ctx context.Context, g Graph, p PointID, eps float64, limit int) ([]PointID, error)
	// RangeQueryDistCtx returns every point within eps of p with its exact
	// network distance, in ascending (Dist, Point) order. The slice is
	// reused by the next query on the scratch.
	RangeQueryDistCtx(ctx context.Context, g Graph, p PointID, eps float64) ([]PointDist, error)
	// SetBounder installs (or, with nil, removes) a lower-bound provider for
	// the filter-and-refine range path.
	SetBounder(b Bounder)
	// PruneStats returns the pruning counters accumulated by queries on this
	// scratch since its creation.
	PruneStats() PruneStats
}

var _ RangeQuerier = (*RangeScratch)(nil)

// ScratchProvider is implemented by Graphs that carry a native range-query
// kernel (the compiled CSR snapshot). NewRangeScratch returns a private
// scratch over the shared graph; any number of scratches may query
// concurrently.
type ScratchProvider interface {
	NewRangeScratch() RangeQuerier
}

// ScratchFor returns range-query scratch for g: the graph's own kernel
// scratch when g implements ScratchProvider, else a generic *RangeScratch.
// Every scratch consumer in core and the serving layer allocates through
// this, so a compiled snapshot accelerates them without further wiring.
func ScratchFor(g Graph) RangeQuerier {
	if sp, ok := g.(ScratchProvider); ok {
		return sp.NewRangeScratch()
	}
	return NewRangeScratch(g)
}

// KNNQuerier is implemented by Graphs that answer k-nearest-neighbour
// queries natively. KNearestNeighborsCtx dispatches to it; results must be
// identical to the generic expansion (ascending (Dist, Point), deterministic
// ties).
type KNNQuerier interface {
	KNNCtx(ctx context.Context, p PointID, k int) ([]PointDist, error)
}

// MedoidSeed is one initial frontier entry of the k-medoids concurrent
// expansion (Figs. 4-5): node Node is reachable from medoid Med at network
// distance Dist.
type MedoidSeed struct {
	Node NodeID
	Med  int32
	Dist float64
}

// ExpandCounts reports the traversal work of one NearestExpander run, in the
// same units core.Stats counts for the generic expansion.
type ExpandCounts struct {
	Settled int // nodes settled (accepted pops)
	Pushes  int // frontier pushes during the expansion
	Edges   int // adjacency entries scanned
}

// MedoidChange is one entry of a MedoidLog: node Node held (Med, Dist) before
// it was overwritten.
type MedoidChange struct {
	Node NodeID
	Med  int32
	Dist float64
}

// MedoidLog is the change log of one k-medoids swap attempt: every overwrite
// of the per-node (med, dist) assignment appends the value it replaced, in
// the order the overwrites happened. A node may appear any number of times —
// a label-correcting expansion can improve it more than once — and nothing
// stamps the first write: Undo replays the log backwards, so the entry
// applied last for a node is its earliest one, the value it held before the
// attempt.
type MedoidLog []MedoidChange

// Undo restores med/dist to what they held when the log was empty.
func (l MedoidLog) Undo(med []int32, dist []float64) {
	for i := len(l) - 1; i >= 0; i-- {
		e := &l[i]
		med[e.Node], dist[e.Node] = e.Med, e.Dist
	}
}

// NearestExpander is implemented by Graphs with a native multi-source
// nearest-medoid expansion kernel. ExpandNearestLogged updates med/dist
// (indexed by node) in place so that, merged with whatever assignment the
// arrays held on entry, every node ends at the lexicographic-minimum
// (dist, sourceRank) reachable from the seeds — i.e. its final distance is
// the shortest over all seeds and retained values, and at exact distance
// ties the smallest medoid slot index wins. A non-nil log receives the
// replaced value of every entry the call overwrites (at least once per node
// it changes, before the change); a nil log records nothing.
//
// That (dist, sourceRank, nodeID) tie-break key is the whole contract: the
// fixpoint it names is unique and independent of the priority-queue
// discipline or processing order (DESIGN.md §10 gives the argument), so an
// implementation is free to use Δ-stepping buckets, a 4-ary heap or any
// other label-correcting schedule. The generic expansion resolves ties the
// same way, which is what makes kernel and generic labels bit-identical —
// by construction, not by replaying each other's heap order.
type NearestExpander interface {
	ExpandNearestLogged(ctx context.Context, seeds []MedoidSeed, med []int32, dist []float64, log *MedoidLog) (ExpandCounts, error)
}
