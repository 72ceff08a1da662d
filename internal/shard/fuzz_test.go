package shard

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"netclus/internal/network"
)

// FuzzShardOpen pokes up to 64 bytes into one file of a saved 2-shard set and
// opens it. Open must return an error, or a set on which every Graph method,
// one kNN and one ε-range per point return within a deadline: no panic, no
// hang. With an empty poke Open must succeed and every answer must equal the
// source network's.
func FuzzShardOpen(f *testing.F) {
	g := testNetwork(f, 20, 40, 100)
	set, err := Partition(g, 2)
	if err != nil {
		f.Fatal(err)
	}
	src := filepath.Join(f.TempDir(), "set")
	if err := Save(set, src); err != nil {
		f.Fatal(err)
	}
	files := []string{planName, ShardFileName(0), ShardFileName(1)}
	orig := make([][]byte, len(files))
	for i, name := range files {
		if orig[i], err = os.ReadFile(filepath.Join(src, name)); err != nil {
			f.Fatal(err)
		}
	}
	// The damages of TestSetOpenRobustness that a poke can express: flipped
	// plan bytes, the plan's version word, a plan that is no plan at all, and
	// damaged shard files.
	f.Add(uint8(0), uint32(0), []byte{})
	for _, at := range []int{3, 8, 64, len(orig[0]) / 2, len(orig[0]) - 1} {
		f.Add(uint8(0), uint32(at), []byte{orig[0][at] ^ 0x10})
	}
	f.Add(uint8(0), uint32(0), bytes.Repeat([]byte{0xAB}, 64))
	for file := uint8(1); file <= 2; file++ {
		b := orig[file]
		f.Add(file, uint32(8), []byte{b[8] + 1})
		f.Add(file, uint32(len(b)/2), []byte{b[len(b)/2] ^ 0x01})
	}

	f.Fuzz(func(t *testing.T, file uint8, off uint32, poke []byte) {
		poke = poke[:min(len(poke), 64)]
		dir := t.TempDir()
		target := int(file) % len(files)
		for i, name := range files {
			b := orig[i]
			if i == target && len(poke) > 0 {
				// Land anywhere in the file or just past its end.
				at := int(off % uint32(len(b)+64))
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
		var loaded *Set
		var openErr error
		within(t, "Open", func() error {
			loaded, openErr = Open(dir)
			return nil
		})
		if openErr != nil {
			if len(poke) == 0 {
				t.Fatalf("intact set refused: %v", openErr)
			}
			return
		}
		sweepSet(t, loaded, g, len(poke) == 0)
	})
}

// sweepSet calls every Graph method of s on every ID it claims, then one kNN
// and one ε-range per point, each kind under a deadline. With exact set every
// answer must equal the source network's.
func sweepSet(t *testing.T, s *Set, g *network.Network, exact bool) {
	t.Helper()
	ctx := context.Background()
	check := func(what string, err error, same func() bool) error {
		switch {
		case !exact:
			return nil
		case err != nil:
			return fmt.Errorf("%s: %w", what, err)
		case !same():
			return fmt.Errorf("%s differs from the network", what)
		}
		return nil
	}
	if exact && (s.NumNodes() != g.NumNodes() || s.NumEdges() != g.NumEdges() || s.NumGroups() != g.NumGroups() || s.NumPoints() != g.NumPoints()) {
		t.Fatalf("counts (%d, %d, %d, %d), want (%d, %d, %d, %d)", s.NumNodes(), s.NumEdges(), s.NumGroups(), s.NumPoints(),
			g.NumNodes(), g.NumEdges(), g.NumGroups(), g.NumPoints())
	}
	within(t, "Neighbors", func() error {
		for u := -1; u <= s.NumNodes(); u++ {
			got, err := s.Neighbors(network.NodeID(u))
			if u < 0 || u == s.NumNodes() {
				continue
			}
			want, _ := g.Neighbors(network.NodeID(u))
			if err := check(fmt.Sprintf("Neighbors(%d)", u), err, func() bool { return slices.Equal(got, want) }); err != nil {
				return err
			}
		}
		return nil
	})
	within(t, "Group/GroupOffsets", func() error {
		for id := -1; id <= s.NumGroups(); id++ {
			got, err := s.Group(network.GroupID(id))
			gotOff, offErr := s.GroupOffsets(network.GroupID(id))
			if id < 0 || id == s.NumGroups() {
				continue
			}
			want, _ := g.Group(network.GroupID(id))
			wantOff, _ := g.GroupOffsets(network.GroupID(id))
			if err := check(fmt.Sprintf("Group(%d)", id), err, func() bool { return got == want }); err != nil {
				return err
			}
			if err := check(fmt.Sprintf("GroupOffsets(%d)", id), offErr, func() bool { return slices.Equal(gotOff, wantOff) }); err != nil {
				return err
			}
		}
		return nil
	})
	within(t, "PointInfo", func() error {
		for p := -1; p <= s.NumPoints(); p++ {
			got, err := s.PointInfo(network.PointID(p))
			if p < 0 || p == s.NumPoints() {
				continue
			}
			want, _ := g.PointInfo(network.PointID(p))
			if err := check(fmt.Sprintf("PointInfo(%d)", p), err, func() bool { return got == want }); err != nil {
				return err
			}
		}
		return nil
	})
	within(t, "ScanGroups", func() error {
		n := 0
		err := s.ScanGroups(func(id network.GroupID, pg network.PointGroup, offsets []float64) error {
			want, _ := g.Group(id)
			wantOff, _ := g.GroupOffsets(id)
			if err := check(fmt.Sprintf("ScanGroups group %d", id), nil, func() bool { return int(id) == n && pg == want && slices.Equal(offsets, wantOff) }); err != nil {
				return err
			}
			n++
			return nil
		})
		return check("ScanGroups", err, func() bool { return n == g.NumGroups() })
	})
	within(t, "kNN and range", func() error {
		sc, ref := network.ScratchFor(s), network.NewRangeScratch(g)
		for p := 0; p < s.NumPoints(); p++ {
			got, err := network.KNearestNeighborsCtx(ctx, s, network.PointID(p), 5)
			want, _ := network.KNearestNeighborsCtx(ctx, g, network.PointID(p), 5)
			if err := check(fmt.Sprintf("kNN(%d)", p), err, func() bool { return slices.Equal(got, want) }); err != nil {
				return err
			}
			gotR, err := sc.RangeQueryDistCtx(ctx, s, network.PointID(p), 0.8)
			wantR, _ := ref.RangeQueryDistCtx(ctx, g, network.PointID(p), 0.8)
			if err := check(fmt.Sprintf("range(%d)", p), err, func() bool { return slices.Equal(gotR, wantR) }); err != nil {
				return err
			}
		}
		return nil
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
