package network

import "context"

// RangeQuerier is the reusable ε-range query state the clustering algorithms
// and the serving layer run against: the generic *RangeScratch over any
// Graph, or a graph-native kernel scratch (the compiled CSR snapshot's).
// A querier is bound to one goroutine at a time, like *RangeScratch.
//
// The g argument of the query methods names the graph to traverse; a querier
// obtained from ScratchFor(g) must be used with that same g (a kernel
// scratch is compiled against one snapshot and ignores other graphs).
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

// Reserve returns the log with room for n more entries.
func (l MedoidLog) Reserve(n int) MedoidLog { return grown(l, n) }

// grown returns s with room for n more elements, at least doubling its
// capacity when it has to reallocate. The swap-attempt buffers (MedoidLog,
// AssignUndo) settle at their working size within a few swaps that way; left
// to append, which grows a large slice by a quarter, one search abandons
// several times the final buffer on the way there.
func grown[T any](s []T, n int) []T {
	if need := len(s) + n; need > cap(s) {
		g := make([]T, len(s), max(need, 2*cap(s)))
		copy(g, s)
		return g
	}
	return s
}

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

// MedoidAssigner is implemented by Graphs with a native point-assignment
// scan (Equation 1): given the node assignment produced by a nearest-medoid
// expansion, AssignNearest labels every point with its nearest medoid slot
// (Noise when unreachable) and returns the evaluation function
// R = Σ d(p, m_p) plus the number of point groups scanned. The scan must
// replicate the generic core.AssignPoints arithmetic and comparison order
// expression for expression, so labels and R are bit-identical.
type MedoidAssigner interface {
	AssignNearest(medoids []PointInfo, med []int32, dist []float64, labels []int32) (r float64, groupsRead int)
}

// AssignUndo holds what one DeltaAssigner call overwrote: the previous
// subtotal and labels of every group it rescanned. Restore puts them back, so
// a rejected swap costs the groups it touched and not a copy of the whole
// assignment.
type AssignUndo struct {
	groups []undoGroup
	labels []int32
}

type undoGroup struct {
	gid   GroupID
	first PointID
	count int32
	sub   float64
}

// Reset empties the buffer, keeping its arrays.
func (u *AssignUndo) Reset() { u.groups, u.labels = u.groups[:0], u.labels[:0] }

// Save records group gid's subtotal and the labels of its points (the first
// of which is point first) before a rescan overwrites them.
func (u *AssignUndo) Save(gid GroupID, first PointID, labels []int32, sub float64) {
	u.groups = append(u.groups, undoGroup{gid: gid, first: first, count: int32(len(labels)), sub: sub})
	u.labels = append(grown(u.labels, len(labels)), labels...)
}

// Restore writes every saved group back into labels and sub.
func (u *AssignUndo) Restore(labels []int32, sub []float64) {
	off := 0
	for _, ug := range u.groups {
		n := int(ug.count)
		copy(labels[ug.first:], u.labels[off:off+n])
		sub[ug.gid] = ug.sub
		off += n
	}
}

// DeltaAssigner is implemented by Graphs whose assignment scan can be
// restricted to the part of the network a medoid swap actually touched. A
// group's per-point minimization reads only the (med, dist) entries of its
// two endpoint nodes and the set of medoids on its own edge, so a group
// whose endpoints carry the same (med, dist) as before the swap — and that
// is in neither extraGroups entry (the edges that lost and gained the
// swapped medoid) — would rescan to exactly the labels and subtotal it
// already has.
//
// AssignNearestDelta therefore leaves labels and sub (the per-group partial
// sums of R, in point order within the group) of clean groups alone and
// rescans only the dirty ones, in place, after saving what it overwrites to
// undo. Which nodes moved it reads from changed, the log of the expansion
// that produced med/dist: a node is dirty when its earliest logged value
// differs from its current one. R is returned as the sum of all group
// subtotals in ascending group order — the association core.AssignPoints
// uses — so the value is bit-identical to a full rescan whether a group was
// recomputed or carried over. undo == nil marks every group dirty and saves
// nothing (the initial full assignment, which seeds sub).
type DeltaAssigner interface {
	MedoidAssigner
	AssignNearestDelta(medoids []PointInfo, med []int32, dist []float64,
		changed MedoidLog, extraGroups []GroupID,
		labels []int32, sub []float64, undo *AssignUndo) (r float64, groupsRescanned int)
}
