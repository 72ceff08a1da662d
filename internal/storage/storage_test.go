package storage_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"netclus/internal/bptree"
	"netclus/internal/core"
	"netclus/internal/evalx"
	"netclus/internal/network"
	"netclus/internal/pagebuf"
	"netclus/internal/storage"
	"netclus/internal/testnet"
)

func buildStore(t testing.TB, n *network.Network, opts storage.Options) *storage.Store {
	t.Helper()
	dir := t.TempDir()
	if err := storage.Build(dir, n, opts); err != nil {
		t.Fatal(err)
	}
	s, err := storage.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestStoreMirrorsNetwork checks every Graph method against the in-memory
// implementation, record by record.
func TestStoreMirrorsNetwork(t *testing.T) {
	for _, opts := range []storage.Options{
		{},                                    // paper defaults
		{PageSize: 256, BufferBytes: 4 * 256}, // tiny pool: constant eviction
		{Layout: storage.LayoutNodeID},
		{Layout: storage.LayoutRandom},
	} {
		opts := opts
		reorder := opts.Layout != storage.LayoutNodeID
		t.Run(fmt.Sprintf("page=%d layout=%s reorder=%v", opts.PageSize, opts.Layout, reorder), func(t *testing.T) {
			n, err := testnet.Random(4, 60, 150)
			if err != nil {
				t.Fatal(err)
			}
			s := buildStore(t, n, opts)

			if s.NumNodes() != n.NumNodes() || s.NumEdges() != n.NumEdges() ||
				s.NumPoints() != n.NumPoints() || s.NumGroups() != n.NumGroups() {
				t.Fatalf("counts: store (%d,%d,%d,%d) vs net (%d,%d,%d,%d)",
					s.NumNodes(), s.NumEdges(), s.NumPoints(), s.NumGroups(),
					n.NumNodes(), n.NumEdges(), n.NumPoints(), n.NumGroups())
			}
			for u := 0; u < n.NumNodes(); u++ {
				want, err := n.Neighbors(network.NodeID(u))
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.Neighbors(network.NodeID(u))
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("node %d: %d neighbors, want %d", u, len(got), len(want))
				}
				seen := map[network.NodeID]network.Neighbor{}
				for _, nb := range got {
					seen[nb.Node] = nb
				}
				for _, nb := range want {
					g, ok := seen[nb.Node]
					if !ok || g.Weight != nb.Weight || g.Group != nb.Group {
						t.Fatalf("node %d neighbor %d: got %+v want %+v", u, nb.Node, g, nb)
					}
				}
			}
			for g := 0; g < n.NumGroups(); g++ {
				want, err := n.Group(network.GroupID(g))
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.Group(network.GroupID(g))
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("group %d: %+v want %+v", g, got, want)
				}
				wo, _ := n.GroupOffsets(network.GroupID(g))
				go_, err := s.GroupOffsets(network.GroupID(g))
				if err != nil {
					t.Fatal(err)
				}
				if len(go_) != len(wo) {
					t.Fatalf("group %d: %d offsets, want %d", g, len(go_), len(wo))
				}
				for i := range wo {
					if go_[i] != wo[i] {
						t.Fatalf("group %d offset %d: %v want %v", g, i, go_[i], wo[i])
					}
				}
			}
			for p := 0; p < n.NumPoints(); p++ {
				want, err := n.PointInfo(network.PointID(p))
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.PointInfo(network.PointID(p))
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("point %d: %+v want %+v", p, got, want)
				}
				if s.Tag(network.PointID(p)) != n.Tag(network.PointID(p)) {
					t.Fatalf("point %d tag mismatch", p)
				}
			}
			// ScanGroups parity.
			var gotG []network.PointGroup
			err = s.ScanGroups(func(g network.GroupID, pg network.PointGroup, offsets []float64) error {
				if int(g) != len(gotG) {
					t.Fatalf("scan group IDs out of order: %d", g)
				}
				gotG = append(gotG, pg)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(gotG) != n.NumGroups() {
				t.Fatalf("scan saw %d groups, want %d", len(gotG), n.NumGroups())
			}
		})
	}
}

// TestClusteringOverStoreMatchesMemory is the integration test: the three
// algorithms must produce identical output over the disk store and the
// in-memory network.
func TestClusteringOverStoreMatchesMemory(t *testing.T) {
	n, cfg, err := testnet.RandomClustered(17, 300, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := buildStore(t, n, storage.Options{PageSize: 512, BufferBytes: 16 * 512})

	el1, err := core.EpsLink(n, core.EpsLinkOptions{Eps: cfg.Eps(), MinSup: 3})
	if err != nil {
		t.Fatal(err)
	}
	el2, err := core.EpsLink(s, core.EpsLinkOptions{Eps: cfg.Eps(), MinSup: 3})
	if err != nil {
		t.Fatal(err)
	}
	if ari := mustARI(t, el1.Labels, el2.Labels); ari != 1 {
		t.Fatalf("EpsLink over store diverged: ARI %v", ari)
	}

	sl1, err := core.SingleLink(n, core.SingleLinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sl2, err := core.SingleLink(s, core.SingleLinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d1, d2 := sl1.Dendrogram.MergeDistances(), sl2.Dendrogram.MergeDistances()
	if len(d1) != len(d2) {
		t.Fatalf("SingleLink merges: %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if math.Abs(d1[i]-d2[i]) > 1e-9 {
			t.Fatalf("merge %d: %v vs %v", i, d1[i], d2[i])
		}
	}

	db1, err := core.DBSCAN(n, core.DBSCANOptions{Eps: cfg.Eps(), MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}
	db2, err := core.DBSCAN(s, core.DBSCANOptions{Eps: cfg.Eps(), MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if ari := mustARI(t, db1.Labels, db2.Labels); ari != 1 {
		t.Fatalf("DBSCAN over store diverged: ARI %v", ari)
	}
	// k-medoids, incremental and recompute: same start, same swaps, so the
	// labels are equal slot for slot, not only up to renumbering.
	for _, recompute := range []bool{false, true} {
		km1, err := core.KMedoids(n, core.KMedoidsOptions{K: 4, Recompute: recompute})
		if err != nil {
			t.Fatal(err)
		}
		km2, err := core.KMedoids(s, core.KMedoidsOptions{K: 4, Recompute: recompute})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(km1.Labels, km2.Labels) || km1.R != km2.R {
			t.Fatalf("k-medoids (recompute=%v) over store diverged: R %v vs %v", recompute, km1.R, km2.R)
		}
	}
	if st := s.Stats(); st.LogicalReads == 0 {
		t.Fatal("store reported no I/O despite three full clusterings")
	}
}

func mustARI(t *testing.T, a, b []int32) float64 {
	t.Helper()
	ari, err := evalx.ARI(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return ari
}

func TestStoreStatsAndReset(t *testing.T) {
	n, err := testnet.Random(6, 40, 80)
	if err != nil {
		t.Fatal(err)
	}
	s := buildStore(t, n, storage.Options{PageSize: 256, BufferBytes: 2 * 256})
	if _, err := s.Neighbors(0); err != nil {
		t.Fatal(err)
	}
	if s.Stats().LogicalReads == 0 {
		t.Fatal("no logical reads counted")
	}
	s.ResetStats()
	if s.Stats().LogicalReads != 0 {
		t.Fatal("ResetStats did not reset")
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := storage.Open(t.TempDir(), storage.Options{}); err == nil {
		t.Fatal("want error opening empty dir")
	}
	// Corrupt meta.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "meta.bin"), make([]byte, 64), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := storage.Open(dir, storage.Options{}); err == nil {
		t.Fatal("want error for zeroed meta")
	}
	// Page size mismatch.
	n, err := testnet.Random(9, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	dir2 := t.TempDir()
	if err := storage.Build(dir2, n, storage.Options{PageSize: 512}); err != nil {
		t.Fatal(err)
	}
	if _, err := storage.Open(dir2, storage.Options{PageSize: 1024}); err == nil {
		t.Fatal("want error for page size mismatch")
	}
	// A format-1 store (no format word: bytes 24-27 of meta.bin are zero) kept
	// record offsets in pts.idx; it is refused, not misread.
	poke(0, 24)(t, filepath.Join(dir2, "meta.bin"))
	_, err = storage.Open(dir2, storage.Options{PageSize: 512})
	if err == nil {
		t.Fatal("want error for a format-1 store")
	}
	for _, want := range []string{"format-1", "format 2", "rebuild", "netclus store", "BuildStore"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("format error lacks %q: %v", want, err)
		}
	}
}

// poke returns a damage that overwrites the little-endian word at off.
func poke(word uint32, off int64) func(*testing.T, string) {
	return func(t *testing.T, path string) {
		t.Helper()
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteAt(binary.LittleEndian.AppendUint32(nil, word), off); err != nil {
			t.Fatal(err)
		}
	}
}

// indexHeight opens one index file of a store on its own and returns the
// tree's height.
func indexHeight(t *testing.T, dir, name string, pageSize int) int {
	t.Helper()
	pool, err := pagebuf.NewPool(4*pageSize, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	f, err := pool.Open(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tree, err := bptree.Open(f, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	return tree.Height()
}

// TestPointInfoWorkBound pins what resolving a point costs, in counted work
// rather than time, and that it resolves to what the network says on every
// layout. Uncached: one descent of pts.idx, one of grp.idx, the group header
// and the point entry (each may straddle a page) — not a descent and a header
// per step of a binary search over the groups. Cached: one group-cache probe.
func TestPointInfoWorkBound(t *testing.T) {
	n, err := testnet.Random(21, 900, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if n.NumGroups() < 1000 {
		t.Fatalf("only %d groups, the bound needs a deep index", n.NumGroups())
	}
	const pageSize = 256 // 15 keys a leaf: both indexes are several levels deep
	for _, layout := range []storage.Layout{storage.LayoutBFS, storage.LayoutNodeID, storage.LayoutRandom} {
		t.Run(string(layout), func(t *testing.T) {
			dir := t.TempDir()
			opts := storage.Options{PageSize: pageSize, BufferBytes: 64 * pageSize, Layout: layout}
			if err := storage.Build(dir, n, opts); err != nil {
				t.Fatal(err)
			}
			bound := int64(indexHeight(t, dir, "pts.idx", pageSize) + indexHeight(t, dir, "grp.idx", pageSize) + 4)

			opts.DisableRecordCaches = true
			uncached, err := storage.Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer uncached.Close()
			opts.DisableRecordCaches = false
			cached, err := storage.Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer cached.Close()

			for p := 0; p < n.NumPoints(); p++ {
				want, err := n.PointInfo(network.PointID(p))
				if err != nil {
					t.Fatal(err)
				}
				reads := uncached.Stats().LogicalReads
				got, err := uncached.PointInfo(network.PointID(p))
				if err != nil {
					t.Fatal(err)
				}
				if reads = uncached.Stats().LogicalReads - reads; reads > bound {
					t.Fatalf("point %d: %d logical page reads uncached, bound %d", p, reads, bound)
				}
				before := cached.CacheStats()
				got2, err := cached.PointInfo(network.PointID(p))
				if err != nil {
					t.Fatal(err)
				}
				if d := cached.CacheStats().Sub(before); d.GroupHits+d.GroupMisses > 2 {
					t.Fatalf("point %d: %d group-cache look-ups, want at most 2", p, d.GroupHits+d.GroupMisses)
				}
				if got != want || got2 != want {
					t.Fatalf("point %d: uncached %+v, cached %+v, network %+v", p, got, got2, want)
				}
			}
		})
	}
}

func TestStoreRangeErrors(t *testing.T) {
	n, err := testnet.Random(10, 20, 12)
	if err != nil {
		t.Fatal(err)
	}
	s := buildStore(t, n, storage.Options{})
	if _, err := s.Neighbors(-1); err == nil {
		t.Fatal("want node range error")
	}
	if _, err := s.Neighbors(network.NodeID(s.NumNodes())); err == nil {
		t.Fatal("want node range error")
	}
	if _, err := s.Group(-1); err == nil {
		t.Fatal("want group range error")
	}
	if _, err := s.Group(network.GroupID(s.NumGroups())); err == nil {
		t.Fatal("want group range error")
	}
	if _, err := s.PointInfo(-1); err == nil {
		t.Fatal("want point range error")
	}
	if _, err := s.PointInfo(network.PointID(s.NumPoints())); err == nil {
		t.Fatal("want point range error")
	}
}

func TestBuildErrors(t *testing.T) {
	n, err := testnet.Random(12, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.Build(filepath.Join(t.TempDir(), "missing", "deep"), n, storage.Options{}); err == nil {
		t.Fatal("want error building into a missing directory")
	}
	if err := storage.Build(t.TempDir(), n, storage.Options{Layout: "bogus"}); err == nil {
		t.Fatal("want error for unknown layout")
	}
	if err := storage.Build(t.TempDir(), n, storage.Options{PageSize: 7}); err == nil {
		t.Fatal("want error for absurd page size")
	}
}

func TestOpenMissingIndexFiles(t *testing.T) {
	n, err := testnet.Random(13, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := storage.Build(dir, n, storage.Options{}); err != nil {
		t.Fatal(err)
	}
	// Zero out adj.idx: Open must reject the corrupt index.
	if err := os.Truncate(filepath.Join(dir, "adj.idx"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := storage.Open(dir, storage.Options{}); err == nil {
		t.Fatal("want error for truncated adj.idx")
	}
}

func TestStorePointFreeNetwork(t *testing.T) {
	n, err := testnet.Random(14, 25, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := buildStore(t, n, storage.Options{})
	if s.NumPoints() != 0 || s.NumGroups() != 0 {
		t.Fatalf("point-free store: %d points, %d groups", s.NumPoints(), s.NumGroups())
	}
	if err := s.ScanGroups(func(network.GroupID, network.PointGroup, []float64) error {
		t.Fatal("scan callback on empty store")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Neighbors(0); err != nil {
		t.Fatal(err)
	}
}

// TestTruncatedPointsFileSurfaces damages one file of a freshly built store
// per row — a truncation, or one flipped length word — and sweeps every query
// over it. Each damage must surface as an error: no panic, and no allocation
// sized by the damaged word (a degree of 0xFFFFFFF0 used to ask the runtime
// for 68 GB, which no recover() survives). A damage to an index, or a data
// file truncated below the offsets an index holds, is refused by the cached
// Open, which reads every index's leaf level.
func TestTruncatedPointsFileSurfaces(t *testing.T) {
	// Enough points that pts.dat spans several pages, so halving the file
	// destroys real records rather than page padding.
	n, err := testnet.Random(11, 60, 1500)
	if err != nil {
		t.Fatal(err)
	}
	halve := func(t *testing.T, path string) {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, fi.Size()/2); err != nil {
			t.Fatal(err)
		}
	}
	// Key count 0xFFFF in every node page of an index (page 0 is its meta).
	keyCounts := func(t *testing.T, path string) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for at := pagebuf.DefaultPageSize; at < len(b); at += pagebuf.DefaultPageSize {
			b[at+1], b[at+2] = 0xFF, 0xFF
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, row := range []struct {
		name, file string
		damage     func(*testing.T, string)
		fail       []string // the calls that must return an error naming file
		atOpen     bool     // the cached Open refuses the store
	}{
		{"truncated pts.dat", "pts.dat", halve, []string{"GroupOffsets", "PointInfo", "ScanGroups"}, true},
		{"truncated adj.dat", "adj.dat", halve, []string{"Neighbors"}, true},
		{"degree", "adj.dat", poke(0xFFFFFFF0, 0), []string{"Neighbors"}, false},
		{"group count", "pts.dat", poke(0x7FFFFFF0, 8), []string{"GroupOffsets", "ScanGroups"}, false},
		{"negative group count", "pts.dat", poke(0xFFFFFFF0, 8), []string{"GroupOffsets", "PointInfo", "ScanGroups"}, false},
		{"First disagrees with pts.idx", "pts.dat", poke(1, 12), []string{"PointInfo"}, false},
		{"adj.idx key count", "adj.idx", keyCounts, []string{"Neighbors"}, true},
		{"grp.idx key count", "grp.idx", keyCounts, []string{"GroupOffsets", "PointInfo"}, true},
		{"pts.idx key count", "pts.idx", keyCounts, []string{"PointInfo"}, true},
	} {
		checkDamage(t, n, row.name, row.file, row.damage, row.fail, false, row.atOpen)
	}
}

// checkDamage builds n into a store, applies damage to file, opens the store
// with and without its record caches and sweeps every record: exactly the
// calls named in fail must return an error, each naming file and, when
// corrupt is set, wrapping storage.ErrCorrupt. With atOpen set, the cached
// Open must instead refuse the store with such an error.
func checkDamage(t *testing.T, n *network.Network, name, file string, damage func(*testing.T, string), fail []string, corrupt, atOpen bool) {
	t.Helper()
	for _, uncached := range []bool{false, true} {
		t.Run(fmt.Sprintf("%s uncached=%v", name, uncached), func(t *testing.T) {
			dir := t.TempDir()
			if err := storage.Build(dir, n, storage.Options{}); err != nil {
				t.Fatal(err)
			}
			damage(t, filepath.Join(dir, file))
			s, err := storage.Open(dir, storage.Options{DisableRecordCaches: uncached})
			if atOpen && !uncached {
				wantCorruptAtOpen(t, s, err, file)
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			// First error of each call, kept apart: an earlier call that
			// fails must not stand in for a later one that should.
			first := map[string]error{}
			note := func(call string, err error) {
				if err != nil && first[call] == nil {
					first[call] = err
				}
			}
			for u := 0; u < s.NumNodes(); u++ {
				_, err := s.Neighbors(network.NodeID(u))
				note("Neighbors", err)
			}
			for g := 0; g < s.NumGroups(); g++ {
				_, err := s.GroupOffsets(network.GroupID(g))
				note("GroupOffsets", err)
			}
			for p := 0; p < s.NumPoints(); p++ {
				_, err := s.PointInfo(network.PointID(p))
				note("PointInfo", err)
			}
			note("ScanGroups", s.ScanGroups(func(network.GroupID, network.PointGroup, []float64) error { return nil }))
			runtime.ReadMemStats(&after)
			for _, call := range fail {
				if err := first[call]; err == nil {
					t.Errorf("%s returned no error on the damaged store", call)
				} else if !strings.Contains(err.Error(), file) {
					t.Errorf("%s error does not name %s: %v", call, file, err)
				} else if corrupt && !errors.Is(err, storage.ErrCorrupt) {
					t.Errorf("%s error does not wrap ErrCorrupt: %v", call, err)
				}
			}
			for call, err := range first {
				if !slices.Contains(fail, call) {
					t.Errorf("%s is not expected to fail on this damage: %v", call, err)
				}
			}
			// The whole store is under 100 KB; frames, decoded records and
			// an error string per failed call stay within a few MB even
			// under -race. A length taken on trust asks for gigabytes.
			if got := after.TotalAlloc - before.TotalAlloc; got > 64<<20 {
				t.Fatalf("sweep over the damaged store allocated %d bytes", got)
			}
		})
	}
}

// pokeFloat returns a damage that overwrites the little-endian float64 at
// off with f(old).
func pokeFloat(off int64, f func(old float64) float64) func(*testing.T, string) {
	return func(t *testing.T, path string) {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		old := math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
		binary.LittleEndian.PutUint64(b[off:], math.Float64bits(f(old)))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCorruptValuesSurface patches one decoded value to something no Build
// writes — an edge weight of NaN, +Inf or -1 in an adjacency row or a group
// header, a point offset past its edge's weight — and demands that every
// call decoding it fail with ErrCorrupt instead of answering from it.
func TestCorruptValuesSurface(t *testing.T) {
	n, err := testnet.Random(11, 60, 1500)
	if err != nil {
		t.Fatal(err)
	}
	const (
		adjWeight = 4 + 8   // first record's first row: header, node, group
		grpWeight = 4 * 4   // first group header: N1, N2, Count, First
		firstPos  = 4*4 + 8 // first point entry, after the group header
	)
	bad := map[string]func(float64) float64{
		"NaN":  func(float64) float64 { return math.NaN() },
		"+Inf": func(float64) float64 { return math.Inf(1) },
		"-1":   func(float64) float64 { return -1 },
	}
	rowWeight := func(f func(float64) float64) func(*testing.T, string) {
		return func(t *testing.T, path string) {
			if b, err := os.ReadFile(path); err != nil || binary.LittleEndian.Uint32(b) == 0 {
				t.Fatalf("fixture: the first adjacency record has no row to damage (%v)", err)
			}
			pokeFloat(adjWeight, f)(t, path)
		}
	}
	for name, f := range bad {
		checkDamage(t, n, "adjacency weight "+name, "adj.dat", rowWeight(f), []string{"Neighbors"}, true, false)
		checkDamage(t, n, "group weight "+name, "pts.dat", pokeFloat(grpWeight, f), []string{"GroupOffsets", "PointInfo", "ScanGroups"}, true, false)
	}
	// The first point's offset becomes the next float above its group's weight.
	pastW := func(t *testing.T, path string) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		w := math.Float64frombits(binary.LittleEndian.Uint64(b[grpWeight:]))
		pokeFloat(firstPos, func(float64) float64 { return math.Nextafter(w, math.Inf(1)) })(t, path)
	}
	checkDamage(t, n, "offset past W", "pts.dat", pastW, []string{"GroupOffsets", "PointInfo", "ScanGroups"}, true, false)
}

// TestPageCountsIndependentOfProcs runs the same DBSCAN over the same store,
// opened uncached with a buffer far smaller than its files, at several
// GOMAXPROCS values: the pool is one LRU buffer, so its page counts must not
// depend on the processor count.
func TestPageCountsIndependentOfProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	n, gen, err := testnet.RandomClustered(5, 400, 1200, 4)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := storage.Options{PageSize: 1024, BufferBytes: 8 * 1024, DisableRecordCaches: true}
	if err := storage.Build(dir, n, opts); err != nil {
		t.Fatal(err)
	}
	var want pagebuf.Stats
	for i, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		s, err := storage.Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.DBSCAN(s, core.DBSCANOptions{Eps: gen.Eps(), MinPts: 3}); err != nil {
			t.Fatal(err)
		}
		got := s.Stats()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if got.Evictions == 0 {
			t.Fatalf("GOMAXPROCS %d: no evictions (%+v); the buffer must be smaller than the store", procs, got)
		}
		if i == 0 {
			want = got
		} else if got != want {
			t.Errorf("GOMAXPROCS %d: %+v, want %+v as at GOMAXPROCS 1", procs, got, want)
		}
	}
}
