package csr

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"netclus/internal/network"
	"netclus/internal/snapfile"
	"netclus/internal/testnet"
)

// fileTestGraph builds a small random network with coords and points.
func fileTestGraph(t testing.TB, seed int64) *network.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := network.NewBuilder()
	const n = 40
	nodes := make([]network.NodeID, n)
	for i := range nodes {
		nodes[i] = b.AddNode(network.Coord{X: rng.Float64() * 10, Y: rng.Float64() * 10})
	}
	type edge struct{ u, v network.NodeID }
	weights := map[edge]float64{}
	var edges []edge
	addEdge := func(u, v network.NodeID) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		e := edge{u, v}
		if _, dup := weights[e]; dup {
			return
		}
		w := 0.1 + rng.Float64()
		weights[e] = w
		edges = append(edges, e)
		b.AddEdge(u, v, w)
	}
	for i := 1; i < n; i++ {
		addEdge(nodes[i], nodes[rng.Intn(i)])
	}
	for i := 0; i < n; i++ {
		addEdge(nodes[rng.Intn(n)], nodes[rng.Intn(n)])
	}
	for i := 0; i < 3*n; i++ {
		e := edges[rng.Intn(len(edges))]
		b.AddPoint(e.u, e.v, rng.Float64()*weights[e], int32(i%5))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	ctx := context.Background()
	g := fileTestGraph(t, 1)
	sn, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := sn.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := decodeSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	// The arrays must round-trip bit for bit.
	if !reflect.DeepEqual(got.rowOff, sn.rowOff) || !reflect.DeepEqual(got.adj, sn.adj) ||
		!reflect.DeepEqual(got.groups, sn.groups) ||
		!reflect.DeepEqual(got.ptPos, sn.ptPos) || !reflect.DeepEqual(got.ptGrp, sn.ptGrp) ||
		!reflect.DeepEqual(got.ptTag, sn.ptTag) || !reflect.DeepEqual(got.coords, sn.coords) {
		t.Fatal("arrays differ after round trip")
	}
	if got.invDelta != sn.invDelta || got.NumEdges() != sn.NumEdges() {
		t.Fatal("scalars differ after round trip")
	}
	ws, cs := got.Stats(), sn.Stats()
	ws.CompileTime, cs.CompileTime = 0, 0
	if ws != cs {
		t.Fatalf("stats differ: %+v vs %+v", ws, cs)
	}

	// And the loaded snapshot must serve byte-identical results.
	csc, wsc := sn.newScratch(), got.newScratch()
	for p := 0; p < g.NumPoints(); p += 7 {
		want, err := csc.RangeQueryDistCtx(ctx, sn, network.PointID(p), 1.3)
		if err != nil {
			t.Fatal(err)
		}
		have, err := wsc.RangeQueryDistCtx(ctx, got, network.PointID(p), 1.3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, have) {
			t.Fatalf("range(%d) differs after round trip", p)
		}
		wantK, err := sn.KNNCtx(ctx, network.PointID(p), 8)
		if err != nil {
			t.Fatal(err)
		}
		haveK, err := got.KNNCtx(ctx, network.PointID(p), 8)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantK, haveK) {
			t.Fatalf("knn(%d) differs after round trip", p)
		}
	}
}

// TestSnapshotFileBytesPinned pins the exact bytes WriteTo emits for the
// paper's Figure 1 network (coords, empty and multi-point edges). The digest
// was computed at commit 3744db7, when the snapshot still held its adjacency
// as three column arrays plus an array-of-structs mirror; the single
// []network.Neighbor layout must keep writing the same file.
func TestSnapshotFileBytesPinned(t *testing.T) {
	g, err := testnet.Paper1()
	if err != nil {
		t.Fatal(err)
	}
	sn, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := sn.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	const want = "51bdf21c181d20c4af70d504ab8c862fcf2939bfc9b7791fe578417d390ee0e2"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Fatalf("snapshot file sha256 = %s, want %s: the .ncs format changed", got, want)
	}
}

func TestSnapshotFileWriteOpen(t *testing.T) {
	g := fileTestGraph(t, 2)
	sn, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/g.ncs"
	if err := WriteSnapshotFile(sn, path); err != nil {
		t.Fatal(err)
	}
	if !IsSnapshotFile(path) {
		t.Fatal("IsSnapshotFile = false on a written snapshot")
	}
	if IsSnapshotFile(t.TempDir() + "/none") {
		t.Fatal("IsSnapshotFile = true on a missing file")
	}
	got, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats().Points != sn.Stats().Points {
		t.Fatal("point count differs after OpenSnapshot")
	}
}

// TestSnapshotFileIgnoresStoredBucketWidth patches the 1/Δ word of a written
// file (meta bytes 40–47, re-checksummed) and opens it: whatever finite value
// it holds — the one every earlier build wrote and trusted, 0, or a width no
// weight distribution produces — the loaded snapshot derives its bucket
// widths from its weights and does exactly the work of a fresh Compile; a
// word no writer can have produced is refused.
func TestSnapshotFileIgnoresStoredBucketWidth(t *testing.T) {
	ctx := context.Background()
	g := fileTestGraph(t, 4)
	sn, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := sn.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	withWord := func(word float64) []byte {
		t.Helper()
		f, err := snapfile.Read(buf.Bytes(), snapMagic, snapVersion)
		if err != nil {
			t.Fatal(err)
		}
		meta := append([]byte(nil), f.Meta...)
		binary.LittleEndian.PutUint64(meta[40:], math.Float64bits(word))
		var sections []snapfile.Section
		for id := uint32(secRowOff); id <= secCoords; id++ {
			if data, ok := f.Section(id); ok {
				sections = append(sections, snapfile.Section{ID: id, Data: data})
			}
		}
		var out bytes.Buffer
		if _, err := snapfile.Write(&out, snapMagic, snapVersion, meta, sections); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	var seeds []network.MedoidSeed
	for m, p := range []network.PointID{3, 40, 77} {
		pi, err := sn.PointInfo(p)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds,
			network.MedoidSeed{Node: pi.N1, Med: int32(m), Dist: pi.Pos},
			network.MedoidSeed{Node: pi.N2, Med: int32(m), Dist: pi.Weight - pi.Pos})
	}
	expand := func(s *Snapshot) (network.ExpandCounts, []int32, []float64) {
		t.Helper()
		med, dist := make([]int32, s.NumNodes()), make([]float64, s.NumNodes())
		for i := range med {
			med[i], dist[i] = -1, network.Inf
		}
		c, err := s.ExpandNearest(ctx, seeds, med, dist)
		if err != nil {
			t.Fatal(err)
		}
		return c, med, dist
	}
	want, wantMed, wantDist := expand(sn)
	if want.Settled < sn.NumNodes() {
		t.Fatalf("the fresh compile settled %d of %d nodes", want.Settled, sn.NumNodes())
	}
	// sn.invDelta is the word this build and every earlier one writes: a file
	// from the parent build is byte-identical to the first case.
	for _, word := range []float64{sn.invDelta, 0, 1e300, 5e-324} {
		got, err := decodeSnapshot(withWord(word))
		if err != nil {
			t.Fatalf("word %v: %v", word, err)
		}
		if got.invDelta != sn.invDelta {
			t.Fatalf("word %v: loaded 1/Δ %v, Compile derives %v", word, got.invDelta, sn.invDelta)
		}
		c, med, dist := expand(got)
		if c != want || !reflect.DeepEqual(med, wantMed) || !reflect.DeepEqual(dist, wantDist) {
			t.Fatalf("word %v: expansion work %+v, a fresh Compile does %+v", word, c, want)
		}
	}
	for _, word := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		if _, err := decodeSnapshot(withWord(word)); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("word %v: got %v, want ErrSnapshotCorrupt", word, err)
		}
	}
}

func TestSnapshotFileRobustness(t *testing.T) {
	g := fileTestGraph(t, 3)
	sn, err := Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := sn.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	typed := func(err error) bool {
		return errors.Is(err, ErrSnapshotMagic) || errors.Is(err, ErrSnapshotVersion) ||
			errors.Is(err, ErrSnapshotChecksum) || errors.Is(err, ErrSnapshotCorrupt)
	}

	// Wrong magic and wrong version.
	mut := append([]byte(nil), data...)
	mut[0] = 'X'
	if _, err := decodeSnapshot(mut); !errors.Is(err, ErrSnapshotMagic) {
		t.Fatalf("wrong magic: got %v", err)
	}
	mut = append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(mut[8:], snapVersion+7)
	if _, err := decodeSnapshot(mut); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("wrong version: got %v", err)
	}

	// Truncations: every page boundary plus a spread of odd prefixes. A cut
	// inside the trailing zero padding leaves every verified section intact
	// and may legitimately still read; anything else must fail typed.
	pristine, err := decodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut += 1021 {
		got, err := decodeSnapshot(data[:cut])
		if err == nil {
			if !reflect.DeepEqual(got.rowOff, pristine.rowOff) || !reflect.DeepEqual(got.ptPos, pristine.ptPos) {
				t.Fatalf("truncation to %d bytes silently misread the snapshot", cut)
			}
			continue
		}
		if !typed(err) {
			t.Fatalf("truncation to %d bytes: got %v, want a typed snapshot error", cut, err)
		}
	}

	// Corruption: flip one byte in every region of the file. Flips inside
	// zero padding are invisible to the checksums by construction, so only
	// assert that reads never succeed with different bytes in a *verified*
	// region — i.e. every successful read must equal the original file's
	// decoded arrays.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		at := rng.Intn(len(data))
		mut := append([]byte(nil), data...)
		mut[at] ^= 1 << uint(rng.Intn(8))
		got, err := decodeSnapshot(mut)
		if err == nil {
			// Must have flipped padding only: the decoded snapshot has to be
			// identical to the pristine one.
			want, err2 := decodeSnapshot(data)
			if err2 != nil {
				t.Fatal(err2)
			}
			if !reflect.DeepEqual(got.rowOff, want.rowOff) || !reflect.DeepEqual(got.adj, want.adj) ||
				!reflect.DeepEqual(got.ptPos, want.ptPos) || !reflect.DeepEqual(got.groups, want.groups) {
				t.Fatalf("flip at %d silently misread the snapshot", at)
			}
			continue
		}
		if !typed(err) {
			t.Fatalf("flip at %d: untyped error %v", at, err)
		}
	}
}
