package storage_test

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"netclus/internal/network"
	"netclus/internal/storage"
	"netclus/internal/testnet"
)

// FuzzStoreBytes pokes a few bytes into one file of a small store and runs
// Open plus every query on every ID over it, with the record caches on and
// off. The pages are 128 bytes, so many adjacency and group records straddle
// a page boundary. Each call must return a value or an error within a
// deadline: no panic, no hang. With an empty poke every answer must equal the
// in-memory network's.
func FuzzStoreBytes(f *testing.F) {
	const pageSize = 128
	n, err := testnet.Random(6, 40, 150)
	if err != nil {
		f.Fatal(err)
	}
	opts := storage.Options{PageSize: pageSize, BufferBytes: 8 * pageSize}
	src := f.TempDir()
	if err := storage.Build(src, n, opts); err != nil {
		f.Fatal(err)
	}
	files := []string{"meta.bin", "adj.dat", "adj.idx", "pts.dat", "grp.idx", "pts.idx"}
	orig := make([][]byte, len(files))
	for i, name := range files {
		if orig[i], err = os.ReadFile(filepath.Join(src, name)); err != nil {
			f.Fatal(err)
		}
	}
	le32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	// The damages of TestOpenErrors, TestTruncatedPointsFileSurfaces,
	// TestNeighborsOnDamagedOffset and TestPointInfoOnCyclicLeafChain.
	f.Add(uint8(0), uint32(0), []byte{})
	f.Add(uint8(0), uint32(24), le32(0))
	f.Add(uint8(1), uint32(0), le32(0xFFFFFFF0))
	f.Add(uint8(3), uint32(8), le32(0x7FFFFFF0))
	f.Add(uint8(3), uint32(8), le32(0xFFFFFFF0))
	f.Add(uint8(3), uint32(12), le32(1))
	for _, file := range []uint8{2, 4, 5} { // the indexes' first node page
		f.Add(file, uint32(2*pageSize+1), []byte{0xFF, 0xFF})
	}
	// adj.idx's first value, node 0's offset, past 2^63.
	f.Add(uint8(2), uint32(2*pageSize+11), binary.LittleEndian.AppendUint64(nil, 0xFFFFFFFFFFFFFFF0))
	// One poke spans the end of pts.idx page 2 (the leftmost leaf: its next
	// word, set to 2) and the start of page 3 (its first key, plus 5).
	cycle := slices.Clone(orig[5][3*pageSize-8 : 3*pageSize+3+8])
	binary.LittleEndian.PutUint64(cycle, 2)
	binary.LittleEndian.PutUint64(cycle[11:], binary.LittleEndian.Uint64(cycle[11:])+5)
	f.Add(uint8(5), uint32(3*pageSize-8), cycle)

	f.Fuzz(func(t *testing.T, file uint8, off uint32, poke []byte) {
		poke = poke[:min(len(poke), 64)]
		dir := t.TempDir()
		target := int(file) % len(files)
		for i, name := range files {
			b := orig[i]
			if i == target && len(poke) > 0 {
				// Land anywhere in the file or just past its end.
				at := int(off % uint32(len(b)+pageSize))
				b = slices.Clone(b)
				if end := at + len(poke); end > len(b) {
					b = append(b, make([]byte, end-len(b))...)
				}
				copy(b[at:], poke)
			}
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for _, uncached := range []bool{false, true} {
			o := opts
			o.DisableRecordCaches = uncached
			s, err := storage.Open(dir, o)
			if err != nil {
				if len(poke) == 0 {
					t.Fatalf("intact store refused: %v", err)
				}
				continue
			}
			sweepStore(t, s, n, len(poke) == 0)
			s.Close()
		}
	})
}

// sweepStore calls every read of s on every ID the network has (and a few
// beyond, in case a damaged meta word claims more), each kind under a
// deadline. With exact set every answer must equal the network's.
func sweepStore(t *testing.T, s *storage.Store, n *network.Network, exact bool) {
	t.Helper()
	if exact && (s.NumNodes() != n.NumNodes() || s.NumGroups() != n.NumGroups() || s.NumPoints() != n.NumPoints()) {
		t.Fatalf("counts (%d, %d, %d), want (%d, %d, %d)", s.NumNodes(), s.NumGroups(), s.NumPoints(), n.NumNodes(), n.NumGroups(), n.NumPoints())
	}
	// check turns a failed or differing read into an error when exact, and
	// accepts any error otherwise.
	check := func(what string, err error, same bool) error {
		switch {
		case !exact:
			return nil
		case err != nil:
			return fmt.Errorf("%s: %w", what, err)
		case !same:
			return fmt.Errorf("%s differs from the network", what)
		}
		return nil
	}
	within(t, "Neighbors", func() error {
		for u := 0; u < min(s.NumNodes(), n.NumNodes()+4); u++ {
			got, err := s.Neighbors(network.NodeID(u))
			want, _ := n.Neighbors(network.NodeID(u))
			if err := check(fmt.Sprintf("Neighbors(%d)", u), err, slices.Equal(got, want)); err != nil {
				return err
			}
		}
		return nil
	})
	within(t, "Group/GroupOffsets", func() error {
		for g := 0; g < min(s.NumGroups(), n.NumGroups()+4); g++ {
			got, err := s.Group(network.GroupID(g))
			want, _ := n.Group(network.GroupID(g))
			if err := check(fmt.Sprintf("Group(%d)", g), err, got == want); err != nil {
				return err
			}
			gotOff, err := s.GroupOffsets(network.GroupID(g))
			wantOff, _ := n.GroupOffsets(network.GroupID(g))
			if err := check(fmt.Sprintf("GroupOffsets(%d)", g), err, slices.Equal(gotOff, wantOff)); err != nil {
				return err
			}
		}
		return nil
	})
	within(t, "PointInfo", func() error {
		for p := 0; p < min(s.NumPoints(), n.NumPoints()+4); p++ {
			got, err := s.PointInfo(network.PointID(p))
			want, _ := n.PointInfo(network.PointID(p))
			if err := check(fmt.Sprintf("PointInfo(%d)", p), err, got == want); err != nil {
				return err
			}
		}
		return nil
	})
	within(t, "ScanGroups", func() error {
		g := 0
		err := s.ScanGroups(func(id network.GroupID, pg network.PointGroup, offsets []float64) error {
			want, _ := n.Group(id)
			wantOff, _ := n.GroupOffsets(id)
			if err := check(fmt.Sprintf("ScanGroups group %d", id), nil, int(id) == g && pg == want && slices.Equal(offsets, wantOff)); err != nil {
				return err
			}
			g++
			return nil
		})
		return check("ScanGroups", err, g == n.NumGroups())
	})
}

// within runs fn on its own goroutine and fails the test if it has not
// returned after a generous deadline; an error fn returns fails it too.
func within(t *testing.T, call string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return within 10 s", call)
	}
}
