package storage

import "testing"

// TestRecCacheDirectMapped pins the record cache's sizing and eviction
// accounting: the slot count is the bound rounded down to a power of two, a
// put that displaces another key counts one eviction, and a re-put of the
// same key counts none.
func TestRecCacheDirectMapped(t *testing.T) {
	for entries, slots := range map[int]int{1: 1, 2: 2, 1000: 512, 1024: 1024, 4096: 4096} {
		if got := len(newRecCache[int](entries).slots); got != slots {
			t.Errorf("%d entries: %d slots, want %d", entries, got, slots)
		}
	}
	for _, entries := range []int{0, -1} {
		if c := newRecCache[int](entries); c != nil {
			t.Errorf("%d entries: want no cache", entries)
		}
	}

	c := newRecCache[int](1000)
	c.put(7, 70)
	c.put(7, 71) // same key: replaced, not evicted
	if v, ok := c.get(7); !ok || v != 71 {
		t.Fatalf("get(7) = %d, %v; want 71", v, ok)
	}
	if e := c.cnt.evictions.Load(); e != 0 {
		t.Fatalf("re-put of the same key counted %d evictions", e)
	}
	c.put(7+512, 5) // same slot, other key
	if e := c.cnt.evictions.Load(); e != 1 {
		t.Fatalf("displacing key 7 counted %d evictions, want 1", e)
	}
	if _, ok := c.get(7); ok {
		t.Fatal("key 7 still answers after its slot was taken")
	}
	if v, ok := c.get(7 + 512); !ok || v != 5 {
		t.Fatalf("get(519) = %d, %v; want 5", v, ok)
	}
	if h, m := c.cnt.hits.Load(), c.cnt.misses.Load(); h != 2 || m != 1 {
		t.Fatalf("%d hits, %d misses; want 2, 1", h, m)
	}
}
