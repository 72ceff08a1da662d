package network_test

import (
	"math"
	"testing"

	"netclus/internal/datagen"
	"netclus/internal/network"
	"netclus/internal/testnet"
)

func TestReweightScalesPointOffsets(t *testing.T) {
	g, err := testnet.Random(4, 30, 50)
	if err != nil {
		t.Fatal(err)
	}
	doubled, err := network.Reweight(g, func(u, v network.NodeID, base float64) float64 {
		return 2 * base
	})
	if err != nil {
		t.Fatal(err)
	}
	if doubled.NumPoints() != g.NumPoints() || doubled.NumEdges() != g.NumEdges() {
		t.Fatal("reweight changed the topology")
	}
	for p := 0; p < g.NumPoints(); p++ {
		a, err := g.PointInfo(network.PointID(p))
		if err != nil {
			t.Fatal(err)
		}
		b, err := doubled.PointInfo(network.PointID(p))
		if err != nil {
			t.Fatal(err)
		}
		if b.Weight != 2*a.Weight || b.Pos != 2*a.Pos {
			t.Fatalf("point %d: %+v vs doubled %+v", p, a, b)
		}
		if b.Tag != a.Tag {
			t.Fatal("tag lost")
		}
	}
	// Doubling all weights doubles all shortest distances: each is a sum of
	// doubled terms, which doubles exactly.
	d1, err := network.NodeDistances(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := network.NodeDistances(doubled, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := range d1 {
		if d2[v] != 2*d1[v] {
			t.Fatalf("node %d: %v vs %v", v, d1[v], d2[v])
		}
	}
}

// TestReweightDoublesOffsetsExactly doubles every weight of the road
// stand-ins. A power-of-two factor scales a float exactly, so every point
// offset must come out exactly twice what it was, with no tolerance.
// Rescaling as off·w/W rounded away 2 650 of SF ×0.0625's 31 250 offsets,
// 236 of TG's 3 125 and 100 of OL's 1 250.
func TestReweightDoublesOffsetsExactly(t *testing.T) {
	for _, road := range []string{"SF", "TG", "OL"} {
		g, _, err := datagen.RoadDataset(road, 0.0625, 10)
		if err != nil {
			t.Fatal(err)
		}
		doubled, err := network.Reweight(g, func(u, v network.NodeID, base float64) float64 {
			return 2 * base
		})
		if err != nil {
			t.Fatal(err)
		}
		bad := 0
		for p := 0; p < g.NumPoints(); p++ {
			a, err := g.PointInfo(network.PointID(p))
			if err != nil {
				t.Fatal(err)
			}
			b, err := doubled.PointInfo(network.PointID(p))
			if err != nil {
				t.Fatal(err)
			}
			if b.Pos != 2*a.Pos {
				bad++
			}
		}
		if bad > 0 {
			t.Errorf("%s ×0.0625: %d of %d offsets are not exactly doubled", road, bad, g.NumPoints())
		}
	}
}

func TestReweightRejectsNonPositive(t *testing.T) {
	g, err := testnet.Random(4, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := network.Reweight(g, func(u, v network.NodeID, base float64) float64 { return 0 }); err == nil {
		t.Fatal("want error for zero weight")
	}
}

// TestReweightIdentityKeepsOffsetsOnEdge reweights with the identity: a point
// at the far end of its edge must stay on the edge, although off·w/w rounds
// above w for this weight.
func TestReweightIdentityKeepsOffsetsOnEdge(t *testing.T) {
	const w = 0.707604
	b := network.NewBuilder()
	b.AddNode()
	b.AddNode()
	b.AddEdge(0, 1, w)
	b.AddPoint(0, 1, w, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	same, err := network.Reweight(g, func(u, v network.NodeID, base float64) float64 { return base })
	if err != nil {
		t.Fatal(err)
	}
	pi, err := same.PointInfo(0)
	if err != nil {
		t.Fatal(err)
	}
	if pi.Pos != w || pi.Weight != w {
		t.Fatalf("point at %v on an edge of weight %v, want %v on %v", pi.Pos, pi.Weight, w, w)
	}
}

func TestCombineNetworksWithTransitions(t *testing.T) {
	a, err := testnet.Line(5, 1.0) // 5 nodes, points along it
	if err != nil {
		t.Fatal(err)
	}
	b, err := testnet.Line(4, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	combined, offsetB, err := network.Combine(a, b, []network.Transition{
		{A: 4, B: 0, Weight: 0.5}, // pier joining the line ends
	})
	if err != nil {
		t.Fatal(err)
	}
	if offsetB != network.NodeID(a.NumNodes()) {
		t.Fatalf("offsetB = %d", offsetB)
	}
	if combined.NumNodes() != a.NumNodes()+b.NumNodes() {
		t.Fatal("node count wrong")
	}
	if combined.NumEdges() != a.NumEdges()+b.NumEdges()+1 {
		t.Fatal("edge count wrong")
	}
	if combined.NumPoints() != a.NumPoints()+b.NumPoints() {
		t.Fatal("point count wrong")
	}
	// Distance across the transition: end of line A to start of line B.
	dc, err := network.NodeDistances(combined, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := dc[offsetB]
	if math.Abs(d-(4+0.5)) > 1e-9 {
		t.Fatalf("cross-network distance %v, want 4.5", d)
	}
	// Without transitions the networks stay disconnected.
	apart, _, err := network.Combine(a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	da, err := network.NodeDistances(apart, 0)
	if err != nil {
		t.Fatal(err)
	}
	d2 := da[offsetB]
	if !math.IsInf(d2, 1) {
		t.Fatalf("disconnected distance %v, want +Inf", d2)
	}
}

func TestCombineValidatesTransitions(t *testing.T) {
	a, _ := testnet.Line(3, 1.0)
	b, _ := testnet.Line(3, 1.0)
	if _, _, err := network.Combine(a, b, []network.Transition{{A: 99, B: 0, Weight: 1}}); err == nil {
		t.Fatal("want error for bad A node")
	}
	if _, _, err := network.Combine(a, b, []network.Transition{{A: 0, B: 99, Weight: 1}}); err == nil {
		t.Fatal("want error for bad B node")
	}
	if _, _, err := network.Combine(a, b, []network.Transition{{A: 0, B: 0, Weight: -1}}); err == nil {
		t.Fatal("want error for negative transition weight")
	}
}
