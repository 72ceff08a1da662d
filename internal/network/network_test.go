package network_test

import (
	"math"
	"strings"
	"testing"
	"unsafe"

	"netclus/internal/network"
	"netclus/internal/testnet"
)

// TestNeighborSize pins the adjacency record at 16 bytes: the compiled
// snapshot stores one Neighbor per half-edge, so a field order that brings
// back the int32 padding would grow it by half without failing anything else.
func TestNeighborSize(t *testing.T) {
	if got := unsafe.Sizeof(network.Neighbor{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(Neighbor{}) = %d, want 16", got)
	}
}

func TestBuilderValidation(t *testing.T) {
	cases := []struct {
		name  string
		build func(b *network.Builder)
	}{
		{"self-loop", func(b *network.Builder) {
			n := b.AddNode()
			b.AddEdge(n, n, 1)
		}},
		{"unknown node", func(b *network.Builder) {
			b.AddNode()
			b.AddEdge(0, 5, 1)
		}},
		{"non-positive weight", func(b *network.Builder) {
			b.AddNode()
			b.AddNode()
			b.AddEdge(0, 1, 0)
		}},
		{"duplicate edge", func(b *network.Builder) {
			b.AddNode()
			b.AddNode()
			b.AddEdge(0, 1, 1)
			b.AddEdge(1, 0, 2)
		}},
		{"point on missing edge", func(b *network.Builder) {
			b.AddNode()
			b.AddNode()
			b.AddPoint(0, 1, 0.5, 0)
		}},
		{"point offset out of range", func(b *network.Builder) {
			b.AddNode()
			b.AddNode()
			b.AddEdge(0, 1, 1)
			b.AddPoint(0, 1, 1.5, 0)
		}},
		{"negative point offset", func(b *network.Builder) {
			b.AddNode()
			b.AddNode()
			b.AddEdge(0, 1, 1)
			b.AddPoint(0, 1, -0.1, 0)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := network.NewBuilder()
			tc.build(b)
			if b.Err() == nil {
				t.Fatal("builder accepted invalid input")
			}
			if _, err := b.Build(); err == nil {
				t.Fatal("Build succeeded on invalid input")
			}
		})
	}
}

func TestPointIDAssignmentInvariant(t *testing.T) {
	// §4.1: points on the same edge get sequential IDs in ascending offset
	// order, regardless of insertion order.
	b := network.NewBuilder()
	b.AddNode()
	b.AddNode()
	b.AddNode()
	b.AddEdge(0, 1, 10)
	b.AddEdge(1, 2, 10)
	b.AddPoint(1, 0, 7, 100) // reversed endpoints: canonicalized to (0,1)
	b.AddPoint(0, 1, 3, 101)
	b.AddPoint(1, 2, 5, 102)
	b.AddPoint(0, 1, 5, 103)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if n.NumPoints() != 4 || n.NumGroups() != 2 {
		t.Fatalf("%d points in %d groups", n.NumPoints(), n.NumGroups())
	}
	wantTags := []int32{101, 103, 100, 102} // offsets 3,5,7 on (0,1), then 5 on (1,2)
	for p, want := range wantTags {
		if got := n.Tag(network.PointID(p)); got != want {
			t.Fatalf("point %d has tag %d, want %d", p, got, want)
		}
	}
	prev := -1.0
	off, _ := n.GroupOffsets(0)
	for _, o := range off {
		if o < prev {
			t.Fatal("offsets not ascending")
		}
		prev = o
	}
	pi, err := n.PointInfo(2)
	if err != nil {
		t.Fatal(err)
	}
	if pi.N1 != 0 || pi.N2 != 1 || pi.Pos != 7 {
		t.Fatalf("point 2 resolved to %+v", pi)
	}
}

func TestDirectDistances(t *testing.T) {
	// Figure 1's worked examples: d_L(p2,p3)=2.2, d_L(p2,p1)=inf,
	// d_L(p1,n1)=1.2, d_L(p1,n2)=1.5.
	n, err := testnet.Paper1()
	if err != nil {
		t.Fatal(err)
	}
	find := func(tag int32) network.PointInfo {
		for p := 0; p < n.NumPoints(); p++ {
			pi, err := n.PointInfo(network.PointID(p))
			if err != nil {
				t.Fatal(err)
			}
			if pi.Tag == tag {
				return pi
			}
		}
		t.Fatalf("tag %d not found", tag)
		return network.PointInfo{}
	}
	p1, p2, p3 := find(1), find(2), find(3)
	if d := network.DirectPointDist(p2, p3); math.Abs(d-2.2) > 1e-12 {
		t.Fatalf("d_L(p2,p3) = %v, want 2.2", d)
	}
	if d := network.DirectPointDist(p2, p1); !math.IsInf(d, 1) {
		t.Fatalf("d_L(p2,p1) = %v, want +Inf", d)
	}
	if d := network.DirectNodeDist(p1, 0); math.Abs(d-1.2) > 1e-12 {
		t.Fatalf("d_L(p1,n1) = %v, want 1.2", d)
	}
	if d := network.DirectNodeDist(p1, 1); math.Abs(d-1.5) > 1e-12 {
		t.Fatalf("d_L(p1,n2) = %v, want 1.5", d)
	}
	if d := network.DirectNodeDist(p1, 5); !math.IsInf(d, 1) {
		t.Fatal("d_L to a non-endpoint must be +Inf")
	}
	if !network.SameEdge(p2, p3) || network.SameEdge(p1, p2) {
		t.Fatal("SameEdge misclassified")
	}
}

func TestPaper1NodeDistance(t *testing.T) {
	// §3.1: "the network distance between n2 and n6 is 2.2+6.0 = 8.2"...
	// with our weights: n2->n4 = 2.2, n4->n6 = 6.0.
	n, err := testnet.Paper1()
	if err != nil {
		t.Fatal(err)
	}
	d, err := network.NodeDistances(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d[5]-8.2) > 1e-12 {
		t.Fatalf("d(n2,n6) = %v, want 8.2", d[5])
	}
}

func TestEdgeHelpers(t *testing.T) {
	n, err := testnet.Paper1()
	if err != nil {
		t.Fatal(err)
	}
	w, err := network.EdgeWeight(n, 1, 0)
	if err != nil || w != 2.7 {
		t.Fatalf("EdgeWeight(1,0) = %v, %v", w, err)
	}
	if _, err := network.EdgeWeight(n, 0, 5); err == nil {
		t.Fatal("want ErrNoEdge")
	}
	g, err := network.EdgeGroup(n, 0, 1)
	if err != nil || g == network.NoGroup {
		t.Fatalf("EdgeGroup(0,1) = %v, %v", g, err)
	}
	g2, err := network.EdgeGroup(n, 2, 3)
	if err != nil || g2 != network.NoGroup {
		t.Fatalf("EdgeGroup(2,3) = %v, %v; want NoGroup", g2, err)
	}
	u, v := network.CanonEdge(5, 2)
	if u != 2 || v != 5 {
		t.Fatal("CanonEdge broken")
	}
	ku, kv := network.UnpackEdgeKey(network.EdgeKey(5, 2))
	if ku != 2 || kv != 5 {
		t.Fatal("EdgeKey round trip broken")
	}
}

func TestRangeErrors(t *testing.T) {
	n, err := testnet.Paper1()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Neighbors(-1); err == nil {
		t.Fatal("want error")
	}
	if _, err := n.Neighbors(99); err == nil {
		t.Fatal("want error")
	}
	if _, err := n.Group(99); err == nil {
		t.Fatal("want error")
	}
	if _, err := n.GroupOffsets(-1); err == nil {
		t.Fatal("want error")
	}
	if _, err := n.PointInfo(99); err == nil {
		t.Fatal("want error")
	}
	if n.Tag(99) != 0 {
		t.Fatal("out-of-range Tag should be 0")
	}
}

func TestPointCoordInterpolation(t *testing.T) {
	b := network.NewBuilder()
	b.AddNode(network.Coord{X: 0, Y: 0})
	b.AddNode(network.Coord{X: 10, Y: 0})
	b.AddEdge(0, 1, 10)
	b.AddPoint(0, 1, 2.5, 0)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c, err := n.PointCoord(0)
	if err != nil {
		t.Fatal(err)
	}
	if c.X != 2.5 || c.Y != 0 {
		t.Fatalf("interpolated to %+v", c)
	}
	if !n.HasCoords() {
		t.Fatal("network should carry coords")
	}
}

func TestBuilderRejectsMixedEmbedding(t *testing.T) {
	cases := []struct {
		name  string
		build func(b *network.Builder)
	}{
		{"coords then plain", func(b *network.Builder) {
			b.AddNode(network.Coord{X: 1, Y: 2})
			b.AddNode()
		}},
		{"plain then coords", func(b *network.Builder) {
			b.AddNode()
			b.AddNode(network.Coord{X: 1, Y: 2})
		}},
		{"AddNodes then coords", func(b *network.Builder) {
			b.AddNodes(3)
			b.AddNode(network.Coord{X: 1, Y: 2})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := network.NewBuilder()
			tc.build(b)
			if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "mixed embedding") {
				t.Fatalf("Build() err = %v, want mixed-embedding error", err)
			}
		})
	}
	// Uniform registrations of either kind still build.
	b := network.NewBuilder()
	b.AddNode(network.Coord{X: 0})
	b.AddNode(network.Coord{X: 1})
	b.AddEdge(0, 1, 1)
	if g, err := b.Build(); err != nil || !g.HasCoords() {
		t.Fatalf("all-coords build: g=%v err=%v", g, err)
	}
	b = network.NewBuilder()
	b.AddNodes(2)
	b.AddEdge(0, 1, 1)
	if g, err := b.Build(); err != nil || g.HasCoords() {
		t.Fatalf("all-plain build: g=%v err=%v", g, err)
	}
}
