package storage_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"netclus/internal/core"
	"netclus/internal/evalx"
	"netclus/internal/network"
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
		{NoReorder: true},
		{Layout: storage.LayoutRandom},
	} {
		opts := opts
		t.Run(fmt.Sprintf("page=%d layout=%s reorder=%v", opts.PageSize, opts.Layout, !opts.NoReorder), func(t *testing.T) {
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

func TestTruncatedPointsFileSurfaces(t *testing.T) {
	// Enough points that pts.dat spans several pages, so halving the file
	// destroys real records rather than page padding.
	n, err := testnet.Random(11, 60, 1500)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := storage.Build(dir, n, storage.Options{}); err != nil {
		t.Fatal(err)
	}
	// Truncate pts.dat to half its records.
	path := filepath.Join(dir, "pts.dat")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	s, err := storage.Open(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.ScanGroups(func(network.GroupID, network.PointGroup, []float64) error { return nil }); err == nil {
		t.Fatal("want error scanning truncated points file")
	}
}
