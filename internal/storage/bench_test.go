package storage_test

import (
	"math/rand"
	"testing"

	"netclus/internal/core"
	"netclus/internal/network"
	"netclus/internal/storage"
	"netclus/internal/testnet"
)

func benchStoreOpts(b *testing.B, opts storage.Options) *storage.Store {
	b.Helper()
	n, _, err := testnet.RandomClustered(1, 3000, 9000, 5)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if err := storage.Build(dir, n, storage.Options{}); err != nil {
		b.Fatal(err)
	}
	s, err := storage.Open(dir, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s
}

func benchStore(b *testing.B, bufferBytes int) *storage.Store {
	return benchStoreOpts(b, storage.Options{BufferBytes: bufferBytes})
}

// BenchmarkStoreNeighbors measures the warm traversal read path with the
// decoded-record caches on (the default) and off (the paper's original
// descend-and-decode path). The cached/uncached ratio is the record-cache
// payoff the PR's acceptance criterion tracks.
func BenchmarkStoreNeighbors(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts storage.Options
	}{
		{"cached", storage.Options{}},
		{"uncached", storage.Options{DisableRecordCaches: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			s := benchStoreOpts(b, mode.opts)
			// Warm the pool and caches with one full pass.
			for u := 0; u < s.NumNodes(); u++ {
				if _, err := s.Neighbors(network.NodeID(u)); err != nil {
					b.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Neighbors(network.NodeID(rng.Intn(s.NumNodes()))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkStorePointInfo(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts storage.Options
	}{
		{"cached", storage.Options{}},
		{"uncached", storage.Options{DisableRecordCaches: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			s := benchStoreOpts(b, mode.opts)
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.PointInfo(network.PointID(rng.Intn(s.NumPoints()))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreNeighborsParallel measures the latched pool + record caches
// under concurrent load: every goroutine random-reads through its own view.
func BenchmarkStoreNeighborsParallel(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts storage.Options
	}{
		{"cached", storage.Options{}},
		{"uncached", storage.Options{DisableRecordCaches: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			s := benchStoreOpts(b, mode.opts)
			for u := 0; u < s.NumNodes(); u++ {
				if _, err := s.Neighbors(network.NodeID(u)); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				view := s.Reader()
				rng := rand.New(rand.NewSource(2))
				for pb.Next() {
					if _, err := view.Neighbors(network.NodeID(rng.Intn(s.NumNodes()))); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkStoreOpen measures opening a store with the record caches on
// (Open reads every index's leaf level into the offset tables) and off (it
// reads only the meta pages).
func BenchmarkStoreOpen(b *testing.B) {
	n, _, err := testnet.RandomClustered(1, 3000, 9000, 5)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if err := storage.Build(dir, n, storage.Options{}); err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		opts storage.Options
	}{
		{"cached", storage.Options{}},
		{"uncached", storage.Options{DisableRecordCaches: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := storage.Open(dir, mode.opts)
				if err != nil {
					b.Fatal(err)
				}
				s.Close()
			}
		})
	}
}

func BenchmarkStoreScanGroups(b *testing.B) {
	s := benchStore(b, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := s.ScanGroups(func(network.GroupID, network.PointGroup, []float64) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEpsLinkOverStore measures the full density clustering through the
// disk path, at the paper's buffer size and at a starved one.
func BenchmarkEpsLinkOverStore(b *testing.B) {
	for _, buf := range []int{64 << 10, 1 << 20} {
		buf := buf
		name := "buffer=64K"
		if buf == 1<<20 {
			name = "buffer=1M"
		}
		b.Run(name, func(b *testing.B) {
			s := benchStore(b, buf)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.EpsLink(s, core.EpsLinkOptions{Eps: 0.4, MinSup: 3}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := s.Stats()
			b.ReportMetric(float64(st.PhysicalReads)/float64(b.N), "faults/op")
		})
	}
}
