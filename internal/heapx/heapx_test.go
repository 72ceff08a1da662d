package heapx

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHeapSortsArbitraryInput(t *testing.T) {
	prop := func(xs []float64) bool {
		h := New(func(a, b float64) bool { return a < b })
		for _, x := range xs {
			h.Push(x)
		}
		want := append([]float64(nil), xs...)
		sort.Float64s(want)
		for _, w := range want {
			if h.Empty() || h.Pop() != w {
				return false
			}
		}
		return h.Empty()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHeapPeekAndClear(t *testing.T) {
	h := New(func(a, b int) bool { return a < b })
	h.Push(3)
	h.Push(1)
	h.Push(2)
	if h.Peek() != 1 {
		t.Fatalf("peek %d", h.Peek())
	}
	if h.Len() != 3 {
		t.Fatal("peek consumed")
	}
	h.Clear()
	if !h.Empty() {
		t.Fatal("clear failed")
	}
	h.Push(9)
	if h.Pop() != 9 {
		t.Fatal("heap broken after clear")
	}
}

func TestHeapPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on empty pop")
		}
	}()
	New(func(a, b int) bool { return a < b }).Pop()
}

func TestHeap4SortsArbitraryInput(t *testing.T) {
	prop := func(xs []float64) bool {
		h := New4(func(a, b float64) bool { return a < b })
		for _, x := range xs {
			h.Push(x)
		}
		want := append([]float64(nil), xs...)
		sort.Float64s(want)
		for _, w := range want {
			if h.Empty() || h.Pop() != w {
				return false
			}
		}
		return h.Empty()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHeap4InterleavedMatchesBinary(t *testing.T) {
	// Interleaved push/pop streams must drain the same value multiset in the
	// same non-decreasing order as the binary heap (tie sequences may differ,
	// but values popped at each step agree because both are exact min-heaps).
	rnd := rand.New(rand.NewSource(7))
	b := New(func(a, x int) bool { return a < x })
	q := New4(func(a, x int) bool { return a < x })
	for i := 0; i < 5000; i++ {
		if q.Len() == 0 || rnd.Intn(3) > 0 {
			v := rnd.Intn(500)
			b.Push(v)
			q.Push(v)
			continue
		}
		if bv, qv := b.Pop(), q.Pop(); bv != qv {
			t.Fatalf("step %d: binary popped %d, 4-ary popped %d", i, bv, qv)
		}
	}
	for !b.Empty() {
		if bv, qv := b.Pop(), q.Pop(); bv != qv {
			t.Fatalf("drain: binary popped %d, 4-ary popped %d", bv, qv)
		}
	}
	if !q.Empty() {
		t.Fatal("4-ary heap retained elements after drain")
	}
	q.Clear()
	q.Push(1)
	if q.Peek() != 1 || q.Len() != 1 {
		t.Fatal("Clear/Push/Peek broken")
	}
}

// TestBucketsDrainsAscending checks the Δ-stepping contract: elements come
// out grouped by non-decreasing bucket index, every pushed element exactly
// once, including same-bucket pushes made while draining.
func TestBucketsDrainsAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := NewBuckets[int]()
	for trial := 0; trial < 50; trial++ {
		q.Reset()
		n := rng.Intn(200)
		pushed := make(map[int]int) // value -> bucket
		for v := 0; v < n; v++ {
			bkt := rng.Intn(20)
			pushed[v] = bkt
			q.Push(bkt, v)
		}
		seen := make(map[int]bool)
		last := -1
		for !q.Empty() {
			i := q.Skip()
			if i < last {
				t.Fatalf("cursor went backwards: %d after %d", i, last)
			}
			last = i
			for {
				batch := q.Drain(i)
				if batch == nil {
					break
				}
				for _, v := range batch {
					if seen[v] {
						t.Fatalf("value %d drained twice", v)
					}
					seen[v] = true
					if want := pushed[v]; want != i && !(want < i) {
						t.Fatalf("value %d pushed to %d, drained from %d", v, want, i)
					}
					// Same-bucket re-push while draining must surface in a
					// later drain of the same bucket, not vanish.
					if v < n && rng.Intn(8) == 0 {
						nv := n + v
						if !seen[nv] && pushed[nv] == 0 {
							pushed[nv] = i
							q.Push(i, nv)
						}
					}
				}
				q.Recycle(batch)
			}
		}
		for v, bkt := range pushed {
			if bkt != 0 && !seen[v] {
				t.Fatalf("value %d (bucket %d) never drained", v, bkt)
			}
		}
		if q.Len() != 0 {
			t.Fatalf("Len = %d after full drain", q.Len())
		}
	}
}

// TestBucketsClampsBelowCursor verifies that pushing under the cursor files
// into the current bucket instead of losing the element.
func TestBucketsClampsBelowCursor(t *testing.T) {
	q := NewBuckets[string]()
	q.Push(5, "a")
	if got := q.Skip(); got != 5 {
		t.Fatalf("Skip = %d, want 5", got)
	}
	q.Recycle(q.Drain(5))
	q.Push(2, "late") // below the cursor: must land at 5, not 2
	if q.Empty() {
		t.Fatal("element lost")
	}
	if got := q.Skip(); got != 5 {
		t.Fatalf("clamped Skip = %d, want 5", got)
	}
	batch := q.Drain(5)
	if len(batch) != 1 || batch[0] != "late" {
		t.Fatalf("Drain = %v", batch)
	}
}
