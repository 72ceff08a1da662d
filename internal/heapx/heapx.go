// Package heapx provides the priority queues of the network traversal and
// clustering algorithms. Every Dijkstra frontier in netclus uses lazy
// insertion, the shape the paper's pseudocode assumes: a relaxation that
// improves a node writes the node's distance at once and pushes a new entry,
// and a popped entry that no longer matches its node's distance is stale and
// skipped, so no queue here supports decrease-key. Heap is a binary min-heap,
// Heap4 a 4-ary one for the CSR kernels, and Buckets the monotone Δ-stepping
// queue of the CSR multi-source expansion.
package heapx

// Heap is a binary min-heap over elements of type T ordered by less.
// The zero value is not usable; construct with New.
type Heap[T any] struct {
	items []T
	less  func(a, b T) bool
}

// New returns an empty min-heap ordered by less.
func New[T any](less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{less: less}
}

// Len reports the number of elements on the heap.
func (h *Heap[T]) Len() int { return len(h.items) }

// Empty reports whether the heap has no elements.
func (h *Heap[T]) Empty() bool { return len(h.items) == 0 }

// Push adds x to the heap.
func (h *Heap[T]) Push(x T) {
	h.items = append(h.items, x)
	h.up(len(h.items) - 1)
}

// Pop removes and returns the minimum element. It panics on an empty heap.
func (h *Heap[T]) Pop() T {
	top := h.items[0]
	n := len(h.items) - 1
	h.items[0] = h.items[n]
	var zero T
	h.items[n] = zero
	h.items = h.items[:n]
	if n > 0 {
		h.down(0)
	}
	return top
}

// Peek returns the minimum element without removing it.
// It panics on an empty heap.
func (h *Heap[T]) Peek() T { return h.items[0] }

// Clear removes all elements but keeps the allocated capacity.
func (h *Heap[T]) Clear() {
	var zero T
	for i := range h.items {
		h.items[i] = zero
	}
	h.items = h.items[:0]
}

func (h *Heap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.items[i], h.items[parent]) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *Heap[T]) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			return
		}
		min := l
		if r < n && h.less(h.items[r], h.items[l]) {
			min = r
		}
		if !h.less(h.items[min], h.items[i]) {
			return
		}
		h.items[i], h.items[min] = h.items[min], h.items[i]
		i = min
	}
}

// Heap4 is a 4-ary min-heap over elements of type T ordered by less, with
// the same lazy-deletion usage pattern as Heap. The wider fan-out halves the
// tree depth: sift-down does more comparisons per level but touches half as
// many cache lines, which wins on the flat-array Dijkstra frontiers of the
// CSR traversal kernel where pops dominate. The zero value is not usable;
// construct with New4.
//
// Heap4 and Heap pop equal-ordered elements in different sequences, so a
// caller whose output depends on pop order breaks ties in less (OPTICS orders
// its seeds by reachability, then point ID). Heap stays the generic backends'
// queue on measurement, not on tie order. With Heap made 4-ary every test and
// golden still passed, but on a 2-vCPU Xeon the benchmark's batch-disk
// medians moved from 120 to 138 ms for k-medoids, 18.5 to 22.1 ms for
// Single-Link and 12.8 to 13.6 ms for DBSCAN, slower in 5 of 6 alternating
// pairs, while batch-mem, which runs Heap4 only, drifted 6–10 % in the same
// runs. So neither "one heap is enough" nor "the 4-ary heap is slower there"
// was shown; merge the two only on new numbers.
type Heap4[T any] struct {
	items []T
	less  func(a, b T) bool
}

// New4 returns an empty 4-ary min-heap ordered by less.
func New4[T any](less func(a, b T) bool) *Heap4[T] {
	return &Heap4[T]{less: less}
}

// Len reports the number of elements on the heap.
func (h *Heap4[T]) Len() int { return len(h.items) }

// Empty reports whether the heap has no elements.
func (h *Heap4[T]) Empty() bool { return len(h.items) == 0 }

// Push adds x to the heap.
func (h *Heap4[T]) Push(x T) {
	h.items = append(h.items, x)
	h.up(len(h.items) - 1)
}

// Pop removes and returns the minimum element. It panics on an empty heap.
func (h *Heap4[T]) Pop() T {
	top := h.items[0]
	n := len(h.items) - 1
	h.items[0] = h.items[n]
	var zero T
	h.items[n] = zero
	h.items = h.items[:n]
	if n > 0 {
		h.down(0)
	}
	return top
}

// Peek returns the minimum element without removing it.
// It panics on an empty heap.
func (h *Heap4[T]) Peek() T { return h.items[0] }

// Clear removes all elements but keeps the allocated capacity.
func (h *Heap4[T]) Clear() {
	var zero T
	for i := range h.items {
		h.items[i] = zero
	}
	h.items = h.items[:0]
}

func (h *Heap4[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 4
		if !h.less(h.items[i], h.items[parent]) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *Heap4[T]) down(i int) {
	n := len(h.items)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h.less(h.items[c], h.items[min]) {
				min = c
			}
		}
		if !h.less(h.items[min], h.items[i]) {
			return
		}
		h.items[i], h.items[min] = h.items[min], h.items[i]
		i = min
	}
}

// Buckets is a monotone bucket priority queue — the Δ-stepping frontier of
// the CSR multi-source expansion kernel. Elements are filed under an integer
// bucket index (typically floor(dist/Δ)); the consumer drains buckets in
// ascending index order and may push into the current or any later bucket
// while draining (pushing below the cursor files into the current bucket, so
// no element is ever lost to a rounding edge case). Unlike a comparison heap
// it imposes NO order within a bucket: it is only usable by algorithms whose
// result is independent of the processing order — label-correcting
// expansions that converge to an order-free fixpoint, like the lexicographic
// (dist, sourceRank, nodeID) nearest-medoid expansion (see DESIGN.md §10).
// Such a consumer writes a node's entry when it pushes and settles a popped
// entry only while it still equals that entry, so an entry superseded before
// its pop costs nothing but the skip, and a node is settled again only when
// a better entry reaches it after its pop.
//
// Bucket indices are clamped to maxBuckets; everything at or beyond the cap
// lands in the last bucket, which then holds mixed priorities. That degrades
// the processing order, never correctness, and only triggers on pathological
// weight distributions (max distance / Δ beyond a million).
//
// The zero value is not usable; construct with NewBuckets. Drained backing
// arrays are recycled internally, so a reused Buckets reaches zero
// steady-state allocation.
type Buckets[T any] struct {
	b    [][]T
	free [][]T
	cur  int
	n    int
}

// maxBuckets caps the bucket span; see the type comment.
const maxBuckets = 1 << 20

// NewBuckets returns an empty monotone bucket queue.
func NewBuckets[T any]() *Buckets[T] {
	return &Buckets[T]{}
}

// Len reports the number of queued elements.
func (q *Buckets[T]) Len() int { return q.n }

// Empty reports whether no elements are queued.
func (q *Buckets[T]) Empty() bool { return q.n == 0 }

// Reset empties the queue and rewinds the cursor, keeping every backing
// array for reuse.
func (q *Buckets[T]) Reset() {
	for i := range q.b {
		if q.b[i] != nil {
			q.free = append(q.free, q.b[i][:0])
			q.b[i] = nil
		}
	}
	q.cur, q.n = 0, 0
}

// Push files x under bucket i. Indices below the cursor are clamped up to it
// and indices at or beyond maxBuckets down to the last bucket.
func (q *Buckets[T]) Push(i int, x T) {
	if i < q.cur {
		i = q.cur
	}
	if i >= maxBuckets {
		i = maxBuckets - 1
	}
	for i >= len(q.b) {
		q.b = append(q.b, nil)
	}
	if q.b[i] == nil {
		if n := len(q.free); n > 0 {
			q.b[i] = q.free[n-1]
			q.free = q.free[:n-1]
		}
	}
	q.b[i] = append(q.b[i], x)
	q.n++
}

// Skip advances the cursor to the next non-empty bucket and returns its
// index. It panics on an empty queue.
func (q *Buckets[T]) Skip() int {
	if q.n == 0 {
		panic("heapx: Skip on empty Buckets")
	}
	for len(q.b[q.cur]) == 0 {
		q.cur++
	}
	return q.cur
}

// Drain detaches and returns the contents of bucket i, nil when the bucket
// is empty. The caller owns the slice until handing it back via Recycle;
// meanwhile Push may file new elements into the same bucket.
func (q *Buckets[T]) Drain(i int) []T {
	if i >= len(q.b) || len(q.b[i]) == 0 {
		return nil
	}
	out := q.b[i]
	q.b[i] = nil
	q.n -= len(out)
	return out
}

// Recycle hands a drained slice's backing array back for reuse.
func (q *Buckets[T]) Recycle(s []T) {
	var zero T
	for i := range s {
		s[i] = zero
	}
	q.free = append(q.free, s[:0])
}
