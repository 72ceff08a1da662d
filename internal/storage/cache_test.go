package storage_test

import (
	"math/rand"
	"sync"
	"testing"

	"netclus/internal/core"
	"netclus/internal/network"
	"netclus/internal/storage"
	"netclus/internal/testnet"
)

// TestCacheInvariantRandomWorkload drives an identical random read workload
// through a cached store (caches small enough to evict constantly) and a
// cache-disabled store and requires every answer to be deep-equal. This is
// the correctness bar of the record-cache layer: cached reads must be
// byte-identical to uncached ones.
func TestCacheInvariantRandomWorkload(t *testing.T) {
	n, err := testnet.Random(7, 120, 400)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := storage.Build(dir, n, storage.Options{}); err != nil {
		t.Fatal(err)
	}
	cached, err := storage.Open(dir, storage.Options{AdjCacheEntries: 16, GroupCacheEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer cached.Close()
	plain, err := storage.Open(dir, storage.Options{DisableRecordCaches: true})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()

	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20000; i++ {
		switch rng.Intn(5) {
		case 0:
			id := network.NodeID(rng.Intn(cached.NumNodes()))
			got, err1 := cached.Neighbors(id)
			want, err2 := plain.Neighbors(id)
			if err1 != nil || err2 != nil {
				t.Fatalf("neighbors %d: %v / %v", id, err1, err2)
			}
			if len(got) != len(want) {
				t.Fatalf("node %d: %d neighbours cached vs %d plain", id, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("node %d neighbour %d: %+v vs %+v", id, j, got[j], want[j])
				}
			}
		case 1:
			g := network.GroupID(rng.Intn(cached.NumGroups()))
			got, err1 := cached.Group(g)
			want, err2 := plain.Group(g)
			if err1 != nil || err2 != nil || got != want {
				t.Fatalf("group %d: %+v (%v) vs %+v (%v)", g, got, err1, want, err2)
			}
		case 2:
			g := network.GroupID(rng.Intn(cached.NumGroups()))
			got, err1 := cached.GroupOffsets(g)
			want, err2 := plain.GroupOffsets(g)
			if err1 != nil || err2 != nil {
				t.Fatalf("offsets %d: %v / %v", g, err1, err2)
			}
			if len(got) != len(want) {
				t.Fatalf("group %d: %d offsets cached vs %d plain", g, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("group %d offset %d: %v vs %v", g, j, got[j], want[j])
				}
			}
		case 3:
			p := network.PointID(rng.Intn(cached.NumPoints()))
			got, err1 := cached.PointInfo(p)
			want, err2 := plain.PointInfo(p)
			if err1 != nil || err2 != nil || got != want {
				t.Fatalf("point %d: %+v (%v) vs %+v (%v)", p, got, err1, want, err2)
			}
		case 4:
			p := network.PointID(rng.Intn(cached.NumPoints()))
			if got, want := cached.Tag(p), plain.Tag(p); got != want {
				t.Fatalf("tag %d: %d vs %d", p, got, want)
			}
		}
	}

	cs := cached.CacheStats()
	if cs.AdjHits == 0 || cs.GroupHits == 0 {
		t.Fatalf("caches never hit: %+v", cs)
	}
	if cs.AdjEvictions == 0 || cs.GroupEvictions == 0 {
		t.Fatalf("caches sized to evict did not evict: %+v", cs)
	}
	if ps := plain.CacheStats(); ps != (storage.CacheStats{}) {
		t.Fatalf("disabled caches reported traffic: %+v", ps)
	}
}

// TestCacheConcurrentHammer has many goroutines read the same hot keys and
// random cold keys through views of one cached store, with caches and pool
// small enough to evict, checking every record against the in-memory
// network. Run under -race in CI: it exercises concurrent get/put on both
// record caches, the latched pool and the per-view leaf hints.
func TestCacheConcurrentHammer(t *testing.T) {
	n, err := testnet.Random(13, 150, 500)
	if err != nil {
		t.Fatal(err)
	}
	s := buildStore(t, n, storage.Options{
		PageSize: 512, BufferBytes: 8 * 512,
		AdjCacheEntries: 32, GroupCacheEntries: 16,
	})

	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			view := s.Reader()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 3000; i++ {
				var id network.NodeID
				if i%2 == 0 {
					id = network.NodeID(i % 10) // hot set: contended cache keys
				} else {
					id = network.NodeID(rng.Intn(n.NumNodes()))
				}
				got, err := view.Neighbors(id)
				if err != nil {
					errs[w] = err
					return
				}
				want, _ := n.Neighbors(id)
				for j := range want {
					if got[j] != want[j] {
						errs[w] = errMismatch(int(id), j)
						return
					}
				}
				g := network.GroupID(rng.Intn(n.NumGroups()))
				gotOff, err := view.GroupOffsets(g)
				if err != nil {
					errs[w] = err
					return
				}
				wantOff, _ := n.GroupOffsets(g)
				for j := range wantOff {
					if gotOff[j] != wantOff[j] {
						errs[w] = errMismatch(int(g), j)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	cs := s.CacheStats()
	if cs.AdjHits == 0 || cs.AdjEvictions == 0 {
		t.Fatalf("hammer did not exercise the adjacency cache: %+v", cs)
	}
	if cs.LeafHits+cs.LeafMisses == 0 {
		t.Fatalf("leaf hints never consulted: %+v", cs)
	}
}

type mismatchError struct{ id, idx int }

func errMismatch(id, idx int) error { return mismatchError{id, idx} }
func (e mismatchError) Error() string {
	return "record mismatch"
}

// TestInterleavedScratch is the regression test for the decode-scratch
// aliasing: a Neighbors result must survive interleaved GroupOffsets,
// PointInfo and ScanGroups calls on the same view, because the view's raw
// scratch is split per file (adjPayload vs ptsPayload). Caches are disabled
// so the test pins the scratch path, not the cache.
func TestInterleavedScratch(t *testing.T) {
	n, err := testnet.Random(3, 80, 300)
	if err != nil {
		t.Fatal(err)
	}
	s := buildStore(t, n, storage.Options{DisableRecordCaches: true})

	for u := 0; u < n.NumNodes(); u += 7 {
		id := network.NodeID(u)
		got, err := s.Neighbors(id)
		if err != nil {
			t.Fatal(err)
		}
		want, err := n.Neighbors(id)
		if err != nil {
			t.Fatal(err)
		}
		// Interleave reads of the points file between obtaining the
		// adjacency slice and using it.
		if _, err := s.GroupOffsets(network.GroupID(u % n.NumGroups())); err != nil {
			t.Fatal(err)
		}
		if _, err := s.PointInfo(network.PointID(u % n.NumPoints())); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("node %d: %d neighbours, want %d", id, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("node %d neighbour %d clobbered by interleaved points read: %+v != %+v", id, j, got[j], want[j])
			}
		}
	}
}

// TestCachedClusteringMatchesUncached runs DBSCAN and k-medoids over a
// cached and an uncached store and requires byte-identical labels — the
// end-to-end form of the cache invariant.
func TestCachedClusteringMatchesUncached(t *testing.T) {
	n, gen, err := testnet.RandomClustered(5, 400, 1200, 4)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := storage.Build(dir, n, storage.Options{}); err != nil {
		t.Fatal(err)
	}
	cached, err := storage.Open(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cached.Close()
	plain, err := storage.Open(dir, storage.Options{DisableRecordCaches: true})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()

	rc, err := core.DBSCAN(cached, core.DBSCANOptions{Eps: gen.Eps(), MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := core.DBSCAN(plain, core.DBSCANOptions{Eps: gen.Eps(), MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rc.Labels) != len(rp.Labels) {
		t.Fatalf("label lengths differ: %d vs %d", len(rc.Labels), len(rp.Labels))
	}
	for i := range rp.Labels {
		if rc.Labels[i] != rp.Labels[i] {
			t.Fatalf("dbscan label %d: cached %d vs plain %d", i, rc.Labels[i], rp.Labels[i])
		}
	}

	kc, err := core.KMedoids(cached, core.KMedoidsOptions{K: 4, Rand: rand.New(rand.NewSource(2))})
	if err != nil {
		t.Fatal(err)
	}
	kp, err := core.KMedoids(plain, core.KMedoidsOptions{K: 4, Rand: rand.New(rand.NewSource(2))})
	if err != nil {
		t.Fatal(err)
	}
	for i := range kp.Labels {
		if kc.Labels[i] != kp.Labels[i] {
			t.Fatalf("k-medoids label %d: cached %d vs plain %d", i, kc.Labels[i], kp.Labels[i])
		}
	}
}
