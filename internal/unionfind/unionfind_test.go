package unionfind

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasics(t *testing.T) {
	u := New(5)
	if u.Len() != 5 || u.Sets() != 5 {
		t.Fatalf("fresh forest: len %d, sets %d", u.Len(), u.Sets())
	}
	if _, merged := u.Union(0, 1); !merged {
		t.Fatal("first union must merge")
	}
	if _, merged := u.Union(1, 0); merged {
		t.Fatal("repeated union must not merge")
	}
	if !u.SameSet(0, 1) || u.SameSet(0, 2) {
		t.Fatal("SameSet wrong")
	}
	if u.Sets() != 4 {
		t.Fatalf("sets %d, want 4", u.Sets())
	}
	if u.Size(0) != 2 || u.Size(2) != 1 {
		t.Fatalf("sizes %d, %d", u.Size(0), u.Size(2))
	}
	if i := u.Grow(); i != 5 || u.Sets() != 5 {
		t.Fatalf("grow gave %d, sets %d", i, u.Sets())
	}
}

// TestAgainstNaiveModel drives random unions against a quadratic label
// model.
func TestAgainstNaiveModel(t *testing.T) {
	const n = 120
	rnd := rand.New(rand.NewSource(2))
	prop := func(ops []uint16) bool {
		u := New(n)
		label := make([]int, n)
		for i := range label {
			label[i] = i
		}
		for _, op := range ops {
			a, b := int(op)%n, int(op>>8)%n
			u.Union(a, b)
			la, lb := label[a], label[b]
			if la != lb {
				for i := range label {
					if label[i] == lb {
						label[i] = la
					}
				}
			}
		}
		sets := map[int]bool{}
		for i := 0; i < n; i++ {
			sets[label[i]] = true
			for j := i + 1; j < n; j++ {
				if (label[i] == label[j]) != u.SameSet(i, j) {
					return false
				}
			}
			if sz := u.Size(i); sz != count(label, label[i]) {
				return false
			}
		}
		return len(sets) == u.Sets()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60, Rand: rnd}); err != nil {
		t.Fatal(err)
	}
}

func count(xs []int, v int) int {
	n := 0
	for _, x := range xs {
		if x == v {
			n++
		}
	}
	return n
}

func TestUnionReturnsRoot(t *testing.T) {
	u := New(10)
	root, _ := u.Union(3, 7)
	if u.Find(3) != root || u.Find(7) != root {
		t.Fatal("returned root is not the set representative")
	}
}

// TestLabelMergeSingletonCheap pins MergeInto's contract: merging a shard
// that never recorded a union must leave the destination untouched.
func TestLabelMergeSingletonCheap(t *testing.T) {
	n := 64
	dst := New(n)
	dst.Union(1, 2)
	dst.Union(3, 4)
	before := dst.Sets()
	empty := New(n)
	empty.MergeInto(dst)
	if dst.Sets() != before {
		t.Fatalf("merging an empty shard changed the set count: %d -> %d", before, dst.Sets())
	}
	if !dst.SameSet(1, 2) || !dst.SameSet(3, 4) || dst.SameSet(1, 3) {
		t.Fatal("merging an empty shard corrupted existing components")
	}
}

// TestResetReusesStorage pins Reset's contract: whatever the forest held, it
// comes back as n singletons, grown or shrunk, and Grow continues from n.
func TestResetReusesStorage(t *testing.T) {
	u := New(8)
	u.Union(1, 2)
	u.Union(2, 7)
	for _, n := range []int{5, 12, 0, 3} {
		u.Reset(n)
		if u.Len() != n || u.Sets() != n {
			t.Fatalf("Reset(%d): %d elements in %d sets", n, u.Len(), u.Sets())
		}
		for i := 0; i < n; i++ {
			if u.Find(i) != i || u.Size(i) != 1 {
				t.Fatalf("Reset(%d): element %d is not a singleton", n, i)
			}
		}
		if got := u.Grow(); got != n {
			t.Fatalf("Reset(%d): Grow returned %d", n, got)
		}
		u.Union(0, n)
	}
}
