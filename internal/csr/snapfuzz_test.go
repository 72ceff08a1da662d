package csr

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"netclus/internal/network"
	"netclus/internal/snapfile"
	"netclus/internal/testnet"
)

// FuzzSnapshotSections pokes up to 64 bytes into the meta block or one
// section of a small written snapshot, re-seals the file with fresh
// checksums and loads it, so every poke reaches decodeSnapshot's structural
// checks instead of failing the section crc. The load must fail with an
// error wrapping ErrSnapshotCorrupt, or return a snapshot on which every
// Graph method, one ε-range and one kNN per point return within a deadline
// without panicking. With an empty poke the loaded snapshot must answer like
// its source.
func FuzzSnapshotSections(f *testing.F) {
	g, err := testnet.Random(5, 30, 80)
	if err != nil {
		f.Fatal(err)
	}
	src, err := Compile(g)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := src.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	file, err := snapfile.Read(buf.Bytes(), snapMagic, snapVersion)
	if err != nil {
		f.Fatal(err)
	}
	// Block 0 is the meta block, block i > 0 the i-th present section.
	var ids []uint32
	for id := uint32(secRowOff); id <= secCoords; id++ {
		if _, ok := file.Section(id); ok {
			ids = append(ids, id)
		}
	}
	f.Add(uint8(0), uint32(0), []byte{})
	f.Add(uint8(0), uint32(0), []byte{0xff})     // node count
	f.Add(uint8(0), uint32(24), []byte{0})       // group count
	f.Add(uint8(0), uint32(40), []byte{0, 0xf0}) // 1/Δ
	for i := range ids {
		f.Add(uint8(i+1), uint32(0), []byte{0x7f})
		f.Add(uint8(i+1), uint32(13), []byte{0xff, 0xff, 0xff, 0xff})
		f.Add(uint8(i+1), uint32(101), []byte{1})
	}

	f.Fuzz(func(t *testing.T, block uint8, off uint32, poke []byte) {
		poke = poke[:min(len(poke), 64)]
		target := int(block) % (len(ids) + 1)
		meta := slices.Clone(file.Meta)
		sections := make([]snapfile.Section, len(ids))
		for i, id := range ids {
			b, _ := file.Section(id)
			sections[i] = snapfile.Section{ID: id, Data: slices.Clone(b)}
		}
		b := meta
		if target > 0 {
			b = sections[target-1].Data
		}
		if len(b) > 0 {
			copy(b[int(off%uint32(len(b))):], poke)
		}
		var sealed bytes.Buffer
		if _, err := snapfile.Write(&sealed, snapMagic, snapVersion, meta, sections); err != nil {
			t.Fatal(err)
		}
		var sn *Snapshot
		var loadErr error
		within(t, "decodeSnapshot", func() error {
			sn, loadErr = decodeSnapshot(sealed.Bytes())
			return nil
		})
		if loadErr != nil {
			if len(poke) == 0 || !errors.Is(loadErr, ErrSnapshotCorrupt) {
				t.Fatalf("load (poke %d bytes): %v", len(poke), loadErr)
			}
			return
		}
		sweepSnapshot(t, sn, src, len(poke) == 0)
	})
}

// sweepSnapshot calls every Graph method of s on every ID it claims (and one
// past each end), then one kNN and one ε-range per point, each kind under a
// deadline. With exact every answer must equal src's.
func sweepSnapshot(t *testing.T, s, src *Snapshot, exact bool) {
	t.Helper()
	ctx := context.Background()
	check := func(what string, err error, same func() bool) error {
		switch {
		case !exact:
			return nil
		case err != nil:
			return fmt.Errorf("%s: %w", what, err)
		case !same():
			return fmt.Errorf("%s differs from the source", what)
		}
		return nil
	}
	if exact && (s.NumNodes() != src.NumNodes() || s.NumEdges() != src.NumEdges() || s.NumGroups() != src.NumGroups() || s.NumPoints() != src.NumPoints()) {
		t.Fatalf("counts (%d, %d, %d, %d), want (%d, %d, %d, %d)", s.NumNodes(), s.NumEdges(), s.NumGroups(), s.NumPoints(),
			src.NumNodes(), src.NumEdges(), src.NumGroups(), src.NumPoints())
	}
	within(t, "Neighbors", func() error {
		for u := -1; u <= s.NumNodes(); u++ {
			got, err := s.Neighbors(network.NodeID(u))
			if u < 0 || u == s.NumNodes() {
				continue
			}
			want, _ := src.Neighbors(network.NodeID(u))
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
			want, _ := src.Group(network.GroupID(id))
			wantOff, _ := src.GroupOffsets(network.GroupID(id))
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
			want, _ := src.PointInfo(network.PointID(p))
			if err := check(fmt.Sprintf("PointInfo(%d)", p), err, func() bool { return got == want }); err != nil {
				return err
			}
		}
		return nil
	})
	within(t, "ScanGroups", func() error {
		n := 0
		err := s.ScanGroups(func(id network.GroupID, pg network.PointGroup, offsets []float64) error {
			want, _ := src.Group(id)
			wantOff, _ := src.GroupOffsets(id)
			if err := check(fmt.Sprintf("ScanGroups group %d", id), nil, func() bool { return int(id) == n && pg == want && slices.Equal(offsets, wantOff) }); err != nil {
				return err
			}
			n++
			return nil
		})
		return check("ScanGroups", err, func() bool { return n == src.NumGroups() })
	})
	within(t, "kNN and range", func() error {
		sc, ref := s.NewRangeScratch(), src.NewRangeScratch()
		for p := 0; p < s.NumPoints(); p++ {
			got, err := network.KNearestNeighborsCtx(ctx, s, network.PointID(p), 5)
			want, _ := network.KNearestNeighborsCtx(ctx, src, network.PointID(p), 5)
			if err := check(fmt.Sprintf("kNN(%d)", p), err, func() bool { return slices.Equal(got, want) }); err != nil {
				return err
			}
			gotR, err := sc.RangeQueryDistCtx(ctx, s, network.PointID(p), 1.5)
			wantR, _ := ref.RangeQueryDistCtx(ctx, src, network.PointID(p), 1.5)
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
