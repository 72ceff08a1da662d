package csr

import (
	"bytes"
	"sort"
	"testing"
	"unsafe"

	"netclus/internal/datagen"
	"netclus/internal/network"
	"netclus/internal/testnet"
)

// adoptAllocs is what Compile of a *network.Network allocates at any size:
// the Snapshot and its kernel pools, and no array.
const adoptAllocs = 2

// TestCompileAdoptsNetwork holds the adopt path of Compile to the decompile
// path: a snapshot of a Network writes the same file as a snapshot of the
// same network behind a wrapper that hides its type, its arrays are the
// network's own, and compiling it costs the same few allocations whatever
// the network's size.
func TestCompileAdoptsNetwork(t *testing.T) {
	graphs, err := testnet.ShapeGraphs()
	if err != nil {
		t.Fatal(err)
	}
	road, _, err := datagen.RoadDataset("SF", 0.0625, 10)
	if err != nil {
		t.Fatal(err)
	}
	graphs["road/SF"] = road
	names := make([]string, 0, len(graphs))
	for name := range graphs {
		names = append(names, name)
	}
	sort.Strings(names)

	// decompiled is n as a Graph of another type: Compile reads it through
	// the Graph interface (tags and embedding through its promoted methods).
	type decompiled struct{ *network.Network }
	for _, name := range names {
		n := graphs[name]
		adopted, err := Compile(n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		copied, err := Compile(decompiled{n})
		if err != nil {
			t.Fatalf("%s: decompile: %v", name, err)
		}
		var a, c bytes.Buffer
		if _, err := adopted.WriteTo(&a); err != nil {
			t.Fatal(err)
		}
		if _, err := copied.WriteTo(&c); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), c.Bytes()) {
			t.Errorf("%s: adopted snapshot writes %d bytes that differ from the decompiled one's %d", name, a.Len(), c.Len())
		}
		if adopted.Stats().ResidentBytes != copied.Stats().ResidentBytes {
			t.Errorf("%s: resident bytes %d adopted, %d decompiled", name, adopted.Stats().ResidentBytes, copied.Stats().ResidentBytes)
		}

		offsets, adj, groups, pos, grp, tags, coords := network.Columns(n)
		for _, col := range []struct {
			name        string
			got, want   unsafe.Pointer
			gotN, wantN int
		}{
			{"row offsets", ptr(adopted.rowOff), ptr(offsets), len(adopted.rowOff), len(offsets)},
			{"adjacency", ptr(adopted.adj), ptr(adj), len(adopted.adj), len(adj)},
			{"groups", ptr(adopted.groups), ptr(groups), len(adopted.groups), len(groups)},
			{"point offsets", ptr(adopted.ptPos), ptr(pos), len(adopted.ptPos), len(pos)},
			{"point groups", ptr(adopted.ptGrp), ptr(grp), len(adopted.ptGrp), len(grp)},
			{"tags", ptr(adopted.ptTag), ptr(tags), len(adopted.ptTag), len(tags)},
			{"coords", ptr(adopted.coords), ptr(coords), len(adopted.coords), len(coords)},
		} {
			if col.got != col.want || col.gotN != col.wantN {
				t.Errorf("%s: the snapshot's %s do not alias the network's", name, col.name)
			}
		}

		if got := testing.AllocsPerRun(20, func() {
			if _, err := Compile(n); err != nil {
				t.Fatal(err)
			}
		}); got != adoptAllocs {
			t.Errorf("%s: Compile(*Network) allocates %v times, want %d", name, got, adoptAllocs)
		}
	}
}

// ptr is the data pointer of a slice header.
func ptr[E any](s []E) unsafe.Pointer { return unsafe.Pointer(unsafe.SliceData(s)) }

// TestCompileChecksAdoptedGroups feeds Compile networks whose groups break
// the §4.1 invariant: the adopt path refuses them, as the decompile path does
// a Graph whose ScanGroups breaks it.
func TestCompileChecksAdoptedGroups(t *testing.T) {
	n, err := testnet.Paper1()
	if err != nil {
		t.Fatal(err)
	}
	offsets, adj, groups, pos, grp, tags, coords := network.Columns(n)
	for _, tc := range []struct {
		name  string
		patch func(gs []network.PointGroup) []network.PointGroup
	}{
		{"gap", func(gs []network.PointGroup) []network.PointGroup { gs[1].First++; return gs }},
		{"short", func(gs []network.PointGroup) []network.PointGroup { return gs[:len(gs)-1] }},
		{"negative count", func(gs []network.PointGroup) []network.PointGroup {
			gs[0].Count = -gs[0].Count
			return gs
		}},
	} {
		bad := tc.patch(append([]network.PointGroup(nil), groups...))
		if _, err := Compile(network.FromColumns(offsets, adj, bad, pos, grp, tags, coords)); err == nil {
			t.Errorf("%s: Compile accepted groups that break the invariant", tc.name)
		}
	}
}
