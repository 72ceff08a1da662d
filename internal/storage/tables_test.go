package storage_test

import (
	"slices"
	"testing"

	"netclus/internal/datagen"
	"netclus/internal/network"
	"netclus/internal/pagebuf"
	"netclus/internal/storage"
	"netclus/internal/testnet"
)

// TestOffsetTablesChangeNoAnswer: a store reading its records through the
// offset tables Open loads, the same store opened with DisableRecordCaches
// (every lookup descends a B+-tree) and the pointer network agree exactly on
// every node, group and point. The uncached store's page traffic over a
// fixed query mix is pinned to the counts it had while the cached path still
// descended the indexes, so the paper's access path keeps them.
func TestOffsetTablesChangeNoAnswer(t *testing.T) {
	sf, _, err := datagen.RoadDataset("SF", 0.0625, 10)
	if err != nil {
		t.Fatal(err)
	}
	small, err := testnet.Random(17, 300, 900)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name              string
		n                 *network.Network
		logical, physical int64 // the uncached mix's pool traffic
	}{
		{"SF x0.0625", sf, 23153, 427},
		{"testnet", small, 990, 24},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := storage.Options{BufferBytes: 256 << 10}
			if err := storage.Build(dir, c.n, opts); err != nil {
				t.Fatal(err)
			}
			cached, err := storage.Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer cached.Close()
			// Loading the tables reads the indexes outside the store's
			// pool: Open's only page there is meta.bin's.
			if st := cached.Stats(); st != (pagebuf.Stats{LogicalReads: 1, PhysicalReads: 1}) {
				t.Fatalf("pool traffic of a fresh Open: %+v, want meta.bin's one read", st)
			}
			opts.DisableRecordCaches = true
			uncached, err := storage.Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer uncached.Close()

			for u := 0; u < c.n.NumNodes(); u++ {
				id := network.NodeID(u)
				want, _ := c.n.Neighbors(id)
				for _, s := range []*storage.Store{cached, uncached} {
					if got, err := s.Neighbors(id); err != nil || !slices.Equal(got, want) {
						t.Fatalf("Neighbors(%d): %v, %v, want %v", u, got, err, want)
					}
				}
			}
			for g := 0; g < c.n.NumGroups(); g++ {
				id := network.GroupID(g)
				want, _ := c.n.Group(id)
				wantOff, _ := c.n.GroupOffsets(id)
				for _, s := range []*storage.Store{cached, uncached} {
					if got, err := s.Group(id); err != nil || got != want {
						t.Fatalf("Group(%d): %+v, %v, want %+v", g, got, err, want)
					}
					if got, err := s.GroupOffsets(id); err != nil || !slices.Equal(got, wantOff) {
						t.Fatalf("GroupOffsets(%d): %v, %v, want %v", g, got, err, wantOff)
					}
				}
			}
			for p := 0; p < c.n.NumPoints(); p++ {
				id := network.PointID(p)
				want, _ := c.n.PointInfo(id)
				for _, s := range []*storage.Store{cached, uncached} {
					if got, err := s.PointInfo(id); err != nil || got != want {
						t.Fatalf("PointInfo(%d): %+v, %v, want %+v", p, got, err, want)
					}
				}
			}

			// The mix: a strided sweep of each lookup on a freshly opened
			// uncached store.
			fresh, err := storage.Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			for u := 0; u < c.n.NumNodes(); u += 7 {
				if _, err := fresh.Neighbors(network.NodeID(u)); err != nil {
					t.Fatal(err)
				}
			}
			for g := 0; g < c.n.NumGroups(); g += 5 {
				if _, err := fresh.GroupOffsets(network.GroupID(g)); err != nil {
					t.Fatal(err)
				}
			}
			for p := 0; p < c.n.NumPoints(); p += 11 {
				if _, err := fresh.PointInfo(network.PointID(p)); err != nil {
					t.Fatal(err)
				}
			}
			if got := fresh.Stats(); got.LogicalReads != c.logical || got.PhysicalReads != c.physical {
				t.Errorf("uncached mix: %d logical and %d physical reads, want %d and %d", got.LogicalReads, got.PhysicalReads, c.logical, c.physical)
			}
		})
	}
}
