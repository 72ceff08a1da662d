package storage_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"netclus/internal/bptree"
	"netclus/internal/network"
	"netclus/internal/pagebuf"
	"netclus/internal/storage"
	"netclus/internal/testnet"
)

// adjOffsets opens adj.idx of the store in dir on its own pool and returns
// every node's record offset in adj.dat.
func adjOffsets(t *testing.T, dir string, nodes, pageSize int) []int64 {
	t.Helper()
	pool, err := pagebuf.NewPool(4*pageSize, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	f, err := pool.Open(filepath.Join(dir, "adj.idx"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tree, err := bptree.Open(f, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	offs := make([]int64, nodes)
	for u := range offs {
		off, ok, err := tree.Search(uint64(u))
		if err != nil || !ok {
			t.Fatalf("node %d: offset %d, found %v, %v", u, off, ok, err)
		}
		offs[u] = int64(off)
	}
	return offs
}

// TestNeighborsStraddlingRecords: Neighbors decodes a record inside one page
// in that page's frame (one logical read of adj.dat) and copies a record that
// straddles a page boundary out through ReadAt (two or more), and both read
// the network's rows exactly, with the record caches on and off. With them
// on, the record's offset comes from the table Open loaded, so adj.dat's
// pages are all the pool reads; off, one descent of adj.idx precedes them.
func TestNeighborsStraddlingRecords(t *testing.T) {
	n, err := testnet.Random(8, 200, 300)
	if err != nil {
		t.Fatal(err)
	}
	for _, pageSize := range []int{64, 128, 4096} {
		for _, uncached := range []bool{false, true} {
			t.Run(fmt.Sprintf("page=%d uncached=%v", pageSize, uncached), func(t *testing.T) {
				dir := t.TempDir()
				opts := storage.Options{PageSize: pageSize, BufferBytes: 16 * pageSize, DisableRecordCaches: uncached}
				if err := storage.Build(dir, n, opts); err != nil {
					t.Fatal(err)
				}
				offs := adjOffsets(t, dir, n.NumNodes(), pageSize)
				descent := int64(0)
				if uncached {
					descent = int64(indexHeight(t, dir, "adj.idx", pageSize))
				}
				s, err := storage.Open(dir, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				inFrame, straddling := 0, 0
				for u := 0; u < n.NumNodes(); u++ {
					id := network.NodeID(u)
					want, err := n.Neighbors(id)
					if err != nil {
						t.Fatal(err)
					}
					reads := s.Stats().LogicalReads
					got, err := s.Neighbors(id)
					if err != nil {
						t.Fatal(err)
					}
					reads = s.Stats().LogicalReads - reads - descent
					end := offs[u] + 4 + 16*int64(len(want)) - 1
					if offs[u]/int64(pageSize) == end/int64(pageSize) {
						inFrame++
						if reads != 1 {
							t.Errorf("node %d inside page %d: %d logical reads of adj.dat, want 1", u, offs[u]/int64(pageSize), reads)
						}
					} else {
						straddling++
						if reads < 2 {
							t.Errorf("node %d across pages %d-%d: %d logical reads of adj.dat, want at least 2", u, offs[u]/int64(pageSize), end/int64(pageSize), reads)
						}
					}
					if len(got) != len(want) {
						t.Fatalf("node %d: %d neighbours, want %d", u, len(got), len(want))
					}
					for j := range want {
						if got[j] != want[j] {
							t.Fatalf("node %d row %d: %+v, want %+v", u, j, got[j], want[j])
						}
					}
				}
				if pageSize < 4096 && (inFrame == 0 || straddling == 0) {
					t.Fatalf("%d records inside a page, %d straddling: the test does not take both branches", inFrame, straddling)
				}
			})
		}
	}
}

// TestNeighborsOnDamagedOffset: an adj.idx value past 2^63 is negative as a
// file offset. Uncached, it must fail Neighbors with an error, not reach the
// page frame as a negative index (a panic on whatever goroutine asked);
// cached, Open refuses it while loading the offset table.
func TestNeighborsOnDamagedOffset(t *testing.T) {
	const pageSize = 128
	n, err := testnet.Random(4, 40, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []uint64{0xFFFFFFFFFFFFFFF0, 1 << 63, math.MaxUint64} {
		for _, uncached := range []bool{false, true} {
			t.Run(fmt.Sprintf("off=%#x uncached=%v", bad, uncached), func(t *testing.T) {
				dir := t.TempDir()
				opts := storage.Options{PageSize: pageSize, DisableRecordCaches: uncached}
				if err := storage.Build(dir, n, opts); err != nil {
					t.Fatal(err)
				}
				// The leftmost leaf is page 2 (see TestPointInfoOnCyclicLeafChain);
				// its first pair is node 0's key and offset.
				path := filepath.Join(dir, "adj.idx")
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if key := binary.LittleEndian.Uint64(b[2*pageSize+3:]); key != 0 {
					t.Fatalf("adj.idx page 2 starts with key %d, want 0: the layout this test pokes has changed", key)
				}
				binary.LittleEndian.PutUint64(b[2*pageSize+11:], bad)
				if err := os.WriteFile(path, b, 0o644); err != nil {
					t.Fatal(err)
				}
				s, err := storage.Open(dir, opts)
				if !uncached {
					wantCorruptAtOpen(t, s, err, "adj.idx")
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				if nbrs, err := s.Neighbors(0); err == nil {
					t.Fatalf("Neighbors(0) at offset %#x: %v, want an error", bad, nbrs)
				}
				// The other nodes still read.
				for u := 1; u < n.NumNodes(); u++ {
					if _, err := s.Neighbors(network.NodeID(u)); err != nil {
						t.Fatalf("Neighbors(%d): %v", u, err)
					}
				}
			})
		}
	}
}

// TestPointInfoOnCyclicLeafChain: a pts.idx whose leftmost leaf points at
// itself, with the second leaf's first key bumped so a floor search walks the
// chain from the left, must fail PointInfo uncached with an error naming the
// file within a deadline (it used to spin forever, uncancellable), and fail
// Open cached, whose leaf-level read walks the same chain.
func TestPointInfoOnCyclicLeafChain(t *testing.T) {
	const pageSize = 128
	n, err := testnet.Random(4, 40, 200)
	if err != nil {
		t.Fatal(err)
	}
	for _, uncached := range []bool{false, true} {
		t.Run(fmt.Sprintf("uncached=%v", uncached), func(t *testing.T) {
			dir := t.TempDir()
			opts := storage.Options{PageSize: pageSize, DisableRecordCaches: uncached}
			if err := storage.Build(dir, n, opts); err != nil {
				t.Fatal(err)
			}
			// Bulk loading writes the leaves in key order from page 2 (page 0
			// is the meta page, page 1 the empty root the tree was created
			// with).
			path := filepath.Join(dir, "pts.idx")
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			next := func(page int) []byte { return b[(page+1)*pageSize-8 : (page+1)*pageSize] }
			if got := binary.LittleEndian.Uint64(next(2)); got != 3 {
				t.Fatalf("pts.idx page 2 links to page %d, want 3: the layout this test pokes has changed", got)
			}
			first := binary.LittleEndian.Uint64(b[3*pageSize+3:])
			binary.LittleEndian.PutUint64(next(2), 2)
			binary.LittleEndian.PutUint64(b[3*pageSize+3:], first+5)
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := storage.Open(dir, opts)
			if !uncached {
				wantCorruptAtOpen(t, s, err, "pts.idx")
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			done := make(chan error, 1)
			go func() { _, err := s.PointInfo(network.PointID(first + 1)); done <- err }()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), "pts.idx") {
					t.Fatalf("PointInfo(%d) on a cyclic leaf chain: got %v, want an error naming pts.idx", first+1, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("PointInfo(%d) on a cyclic leaf chain did not return", first+1)
			}
		})
	}
}

// wantCorruptAtOpen fails the test unless Open refused the store with an
// error naming file and wrapping storage.ErrCorrupt.
func wantCorruptAtOpen(t *testing.T, s *storage.Store, err error, file string) {
	t.Helper()
	if err == nil {
		s.Close()
		t.Fatalf("Open accepted a damaged %s", file)
	}
	if !errors.Is(err, storage.ErrCorrupt) || !strings.Contains(err.Error(), file) {
		t.Fatalf("Open on a damaged %s: %v, want an error naming it and wrapping ErrCorrupt", file, err)
	}
}
