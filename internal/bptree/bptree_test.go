package bptree

import (
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"netclus/internal/pagebuf"
)

// smallPage forces deep trees with few keys so splits and multi-level
// descents are exercised heavily.
const smallPage = 128

func newTestTree(t *testing.T, pageSize int) *Tree {
	t.Helper()
	pool, err := pagebuf.NewPool(64*pageSize, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	f, err := pool.Open(filepath.Join(t.TempDir(), "t.idx"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	tr, err := Create(f, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestInsertSearchAgainstMap(t *testing.T) {
	tr := newTestTree(t, smallPage)
	model := map[uint64]uint64{}
	rnd := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		k := uint64(rnd.Intn(20000))
		v := rnd.Uint64()
		if _, dup := model[k]; dup {
			if err := tr.Insert(k, v); err == nil {
				t.Fatalf("insert %d: want ErrDuplicate", k)
			}
			continue
		}
		model[k] = v
		if err := tr.Insert(k, v); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	if tr.Count() != int64(len(model)) {
		t.Fatalf("count %d, model has %d", tr.Count(), len(model))
	}
	for k, v := range model {
		got, ok, err := tr.Search(k)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || got != v {
			t.Fatalf("search %d: got (%d,%v), want %d", k, got, ok, v)
		}
	}
	for i := 0; i < 1000; i++ {
		k := uint64(rnd.Intn(40000))
		_, ok, err := tr.Search(k)
		if err != nil {
			t.Fatal(err)
		}
		if _, want := model[k]; ok != want {
			t.Fatalf("search %d: presence %v, want %v", k, ok, want)
		}
	}
	if tr.Height() < 3 {
		t.Fatalf("height %d: page size too big for this test to exercise splits", tr.Height())
	}
}

func sortedKeys(m map[uint64]uint64) []uint64 {
	ks := make([]uint64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

func TestFloor(t *testing.T) {
	tr := newTestTree(t, smallPage)
	model := map[uint64]uint64{}
	rnd := rand.New(rand.NewSource(3))
	for i := 0; i < 1500; i++ {
		k := uint64(rnd.Intn(9000))*2 + 10 // even keys >= 10
		if _, dup := model[k]; dup {
			continue
		}
		model[k] = k * 3
		if err := tr.Insert(k, k*3); err != nil {
			t.Fatal(err)
		}
	}
	ks := sortedKeys(model)
	for i := 0; i < 3000; i++ {
		q := uint64(rnd.Intn(20000))
		fk, fv, ok, err := tr.Floor(q)
		if err != nil {
			t.Fatal(err)
		}
		j := sort.Search(len(ks), func(i int) bool { return ks[i] > q }) - 1
		if j < 0 {
			if ok {
				t.Fatalf("floor(%d) = %d, want none", q, fk)
			}
			continue
		}
		if !ok || fk != ks[j] || fv != model[ks[j]] {
			t.Fatalf("floor(%d) = (%d,%d,%v), want (%d,%d)", q, fk, fv, ok, ks[j], model[ks[j]])
		}
	}
}

func TestScan(t *testing.T) {
	tr := newTestTree(t, smallPage)
	var keys []uint64
	for i := 0; i < 800; i++ {
		k := uint64(i*7 + 3)
		keys = append(keys, k)
		if err := tr.Insert(k, k+1); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	err := tr.Scan(0, func(k, v uint64) (bool, error) {
		if v != k+1 {
			t.Fatalf("scan: key %d carries %d", k, v)
		}
		got = append(got, k)
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(keys) {
		t.Fatalf("scanned %d keys, want %d", len(got), len(keys))
	}
	for i := range got {
		if got[i] != keys[i] {
			t.Fatalf("scan order broken at %d: %d vs %d", i, got[i], keys[i])
		}
	}
	// Partial scan from the middle with early stop.
	var mid []uint64
	err = tr.Scan(keys[400], func(k, v uint64) (bool, error) {
		mid = append(mid, k)
		return len(mid) < 10, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mid) != 10 || mid[0] != keys[400] {
		t.Fatalf("partial scan: %v", mid)
	}
}

func TestBulkLoadMatchesInsert(t *testing.T) {
	for _, n := range []int{0, 1, 5, 100, 3000} {
		keys := make([]uint64, n)
		vals := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(i)*3 + 1
			vals[i] = uint64(i) * 11
		}
		tr := newTestTree(t, smallPage)
		if err := tr.BulkLoad(keys, vals); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.Count() != int64(n) {
			t.Fatalf("n=%d: count %d", n, tr.Count())
		}
		for i, k := range keys {
			v, ok, err := tr.Search(k)
			if err != nil {
				t.Fatal(err)
			}
			if !ok || v != vals[i] {
				t.Fatalf("n=%d search %d: (%d,%v)", n, k, v, ok)
			}
		}
		// Keys between bulk keys must miss, and Floor must find the left
		// neighbour.
		for i, k := range keys {
			if _, ok, _ := tr.Search(k + 1); ok && i < len(keys)-1 {
				t.Fatalf("n=%d: phantom key %d", n, k+1)
			}
			fk, _, ok, err := tr.Floor(k + 1)
			if err != nil {
				t.Fatal(err)
			}
			if !ok || fk != k {
				t.Fatalf("n=%d: floor(%d) = (%d,%v)", n, k+1, fk, ok)
			}
		}
	}
}

func TestBulkLoadThenInsert(t *testing.T) {
	tr := newTestTree(t, smallPage)
	keys := make([]uint64, 500)
	vals := make([]uint64, 500)
	for i := range keys {
		keys[i] = uint64(i) * 4
		vals[i] = uint64(i)
	}
	if err := tr.BulkLoad(keys, vals); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := tr.Insert(uint64(i)*4+2, uint64(i)+1000); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		v, ok, err := tr.Search(uint64(i)*4 + 2)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || v != uint64(i)+1000 {
			t.Fatalf("post-bulk insert %d lost", i)
		}
	}
}

func TestBulkLoadValidation(t *testing.T) {
	tr := newTestTree(t, smallPage)
	if err := tr.BulkLoad([]uint64{1, 2}, []uint64{1}); err == nil {
		t.Fatal("want error for mismatched lengths")
	}
	if err := tr.BulkLoad([]uint64{2, 1}, []uint64{0, 0}); err == nil {
		t.Fatal("want error for unsorted keys")
	}
	if err := tr.BulkLoad([]uint64{1, 1}, []uint64{0, 0}); err == nil {
		t.Fatal("want error for duplicate keys")
	}
	if err := tr.Insert(5, 5); err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad([]uint64{1}, []uint64{1}); err == nil {
		t.Fatal("want error bulk-loading non-empty tree")
	}
}

func TestOpenPersistedTree(t *testing.T) {
	pool, err := pagebuf.NewPool(64*smallPage, smallPage)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.idx")
	f, err := pool.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Create(f, smallPage)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 2000; i++ {
		if err := tr.Insert(i*2, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	pool2, err := pagebuf.NewPool(8*smallPage, smallPage)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := pool2.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	tr2, err := Open(f2, smallPage)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Count() != 2000 {
		t.Fatalf("count %d after reopen", tr2.Count())
	}
	for i := uint64(0); i < 2000; i += 37 {
		v, ok, err := tr2.Search(i * 2)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || v != i {
			t.Fatalf("reopened search %d: (%d,%v)", i*2, v, ok)
		}
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	pool, err := pagebuf.NewPool(64*smallPage, smallPage)
	if err != nil {
		t.Fatal(err)
	}
	f, err := pool.Open(filepath.Join(t.TempDir(), "junk.idx"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.WriteAt(make([]byte, 4*smallPage), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(f, smallPage); err == nil {
		t.Fatal("want error opening zeroed file as a tree")
	}
	if _, err := Create(f, smallPage); err == nil {
		t.Fatal("want error creating over non-empty file")
	}
}

// TestOversizedKeyCountIsAnError: a node whose key count exceeds what a page
// holds (one flipped word in the file) is refused by every lookup with an
// error naming the file and page, instead of indexing past the page buffer.
func TestOversizedKeyCountIsAnError(t *testing.T) {
	for _, level := range []string{"root", "leaf"} {
		t.Run(level, func(t *testing.T) {
			tr := newTestTree(t, smallPage)
			keys := make([]uint64, 500)
			for i := range keys {
				keys[i] = uint64(2 * i)
			}
			if err := tr.BulkLoad(keys, keys); err != nil {
				t.Fatal(err)
			}
			if tr.Height() < 3 {
				t.Fatalf("height %d, want a multi-level tree", tr.Height())
			}
			page := tr.root
			if level == "leaf" {
				buf := make([]byte, smallPage)
				var err error
				if page, err = tr.findLeaf(400, buf); err != nil {
					t.Fatal(err)
				}
			}
			if err := tr.f.WriteAt([]byte{0xFF, 0xFF}, page*smallPage+1); err != nil {
				t.Fatal(err)
			}
			var h LeafHint
			_, _, errSearch := tr.Search(400)
			_, _, _, errFloor := tr.Floor(401)
			_, _, errSearchHint := tr.SearchHint(400, &h)
			_, _, _, errFloorHint := tr.FloorHint(401, &h)
			errScan := tr.Scan(0, func(k, v uint64) (bool, error) { return true, nil })
			for name, err := range map[string]error{
				"Search": errSearch, "Floor": errFloor, "SearchHint": errSearchHint, "FloorHint": errFloorHint, "Scan": errScan,
			} {
				if err == nil {
					t.Errorf("%s: want an error", name)
				} else if !strings.Contains(err.Error(), "t.idx") || !strings.Contains(err.Error(), "65535 keys") {
					t.Errorf("%s: error names neither file nor value: %v", name, err)
				}
			}
		})
	}
}

func TestDescendingAndAscendingInsertOrders(t *testing.T) {
	for name, gen := range map[string]func(i int) uint64{
		"ascending":  func(i int) uint64 { return uint64(i) },
		"descending": func(i int) uint64 { return uint64(5000 - i) },
		"striped":    func(i int) uint64 { return uint64((i%10)*1000 + i/10) },
	} {
		tr := newTestTree(t, smallPage)
		for i := 0; i < 5000; i++ {
			if err := tr.Insert(gen(i), uint64(i)); err != nil {
				t.Fatalf("%s insert %d: %v", name, i, err)
			}
		}
		count := 0
		prev := uint64(0)
		err := tr.Scan(0, func(k, v uint64) (bool, error) {
			if count > 0 && k <= prev {
				t.Fatalf("%s: scan out of order at %d", name, k)
			}
			prev = k
			count++
			return true, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if count != 5000 {
			t.Fatalf("%s: scan saw %d keys", name, count)
		}
	}
}

// TestLeafChainCycleIsAnError: a leaf whose next pointer leads back into the
// chain (one damaged word) must make Floor, FloorHint and Scan fail naming
// the file, not walk the cycle forever. The second leaf's first key is bumped
// so a floor just above its old value sorts before its leaf and takes the
// left-to-right walk from the leftmost leaf, which points at itself.
func TestLeafChainCycleIsAnError(t *testing.T) {
	const pageSize = 256
	tr := newTestTree(t, pageSize)
	keys := make([]uint64, 100)
	for i := range keys {
		keys[i] = uint64(10 * i)
	}
	if err := tr.BulkLoad(keys, keys); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, pageSize)
	left, err := tr.leftmostLeaf(buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.readNode(left, buf, typeLeaf); err != nil {
		t.Fatal(err)
	}
	second := leafNext(buf, pageSize)
	putLeafNext(buf, left)
	if err := tr.writePage(left, buf); err != nil {
		t.Fatal(err)
	}
	if err := tr.readNode(second, buf, typeLeaf); err != nil {
		t.Fatal(err)
	}
	first := leafKey(buf, 0)
	putLeafKV(buf, 0, first+5, leafVal(buf, 0))
	if err := tr.writePage(second, buf); err != nil {
		t.Fatal(err)
	}

	done := make(chan map[string]error, 1)
	go func() {
		var h LeafHint
		_, _, _, errFloor := tr.Floor(first + 1)
		_, _, _, errFloorHint := tr.FloorHint(first+1, &h)
		errScan := tr.Scan(0, func(k, v uint64) (bool, error) { return true, nil })
		done <- map[string]error{"Floor": errFloor, "FloorHint": errFloorHint, "Scan": errScan}
	}()
	select {
	case errs := <-done:
		for name, err := range errs {
			if err == nil {
				t.Errorf("%s: want an error on a cyclic leaf chain", name)
			} else if !strings.Contains(err.Error(), "t.idx") || !strings.Contains(err.Error(), "cycle") {
				t.Errorf("%s: error names neither file nor cycle: %v", name, err)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a lookup on a cyclic leaf chain did not return")
	}
}

// TestOpenRefusesImpossibleHeight: a meta page claiming more levels than the
// file has pages is refused at Open, so no descent follows the damaged word.
func TestOpenRefusesImpossibleHeight(t *testing.T) {
	tr := newTestTree(t, smallPage)
	if err := tr.BulkLoad([]uint64{1, 2, 3}, []uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(tr.f, smallPage); err != nil {
		t.Fatalf("intact tree: %v", err)
	}
	tr.height = 1 << 30
	if err := tr.writeMeta(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(tr.f, smallPage); err == nil || !strings.Contains(err.Error(), "height 1073741824") {
		t.Fatalf("height 2^30 in a %d-byte file: got %v", tr.f.Size(), err)
	}
}

// TestLookupsAllocateNothing pins the pooled page scratch: a Search or Floor
// on a warm tree draws its page buffer from the pool and returns it without
// allocating (the store's uncached lookups run one per point or group).
func TestLookupsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items")
	}
	tr := newTestTree(t, smallPage)
	for k := uint64(10); k < 1010; k += 2 {
		if err := tr.Insert(k, k*3); err != nil {
			t.Fatal(err)
		}
	}
	k := uint64(0)
	lookups := map[string]func(){
		"Search": func() { k = (k + 7) % 1100; _, _, _ = tr.Search(k) },
		"Floor":  func() { k = (k + 7) % 1100; _, _, _, _ = tr.Floor(k) },
	}
	for name, run := range lookups {
		if avg := testing.AllocsPerRun(500, run); avg != 0 {
			t.Errorf("%s allocates %v per lookup, want 0", name, avg)
		}
	}
}
