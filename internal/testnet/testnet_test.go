package testnet

import (
	"testing"

	"netclus/internal/network"
)

func TestPaper1Shape(t *testing.T) {
	n, err := Paper1()
	if err != nil {
		t.Fatal(err)
	}
	if n.NumNodes() != 6 || n.NumEdges() != 7 || n.NumPoints() != 6 {
		t.Fatalf("Figure 1 network: %d nodes, %d edges, %d points",
			n.NumNodes(), n.NumEdges(), n.NumPoints())
	}
	// p2 and p3 share edge (n1,n3) — offsets 1.0 and 3.2.
	adj, err := n.Neighbors(0)
	if err != nil {
		t.Fatal(err)
	}
	g := network.NoGroup
	for _, nb := range adj {
		if nb.Node == 2 {
			g = nb.Group
		}
	}
	if g == network.NoGroup {
		t.Fatal("edge (0,2) carries no group")
	}
	off, err := n.GroupOffsets(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(off) != 2 || off[0] != 1.0 || off[1] != 3.2 {
		t.Fatalf("offsets %v", off)
	}
}

func TestLineShape(t *testing.T) {
	n, err := Line(5, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if n.NumNodes() != 5 || n.NumEdges() != 4 {
		t.Fatalf("line: %d nodes, %d edges", n.NumNodes(), n.NumEdges())
	}
	if n.NumPoints() != 4 {
		t.Fatalf("line points: %d", n.NumPoints())
	}
	if _, err := Line(1, 1.0); err == nil {
		t.Fatal("want error for 1-node line")
	}
}

func TestRandomConnectedAndTagged(t *testing.T) {
	g, err := Random(3, 50, 100)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := network.IsConnected(g); !ok {
		t.Fatal("Random network disconnected")
	}
	if g.NumPoints() != 100 {
		t.Fatalf("%d points", g.NumPoints())
	}
	c, cfg, err := RandomClustered(3, 100, 120, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.K != 3 || c.NumPoints() != 120 {
		t.Fatalf("clustered: %+v, %d points", cfg, c.NumPoints())
	}
	tags := map[int32]bool{}
	for _, tag := range c.Tags() {
		tags[tag] = true
	}
	for k := int32(0); k < 3; k++ {
		if !tags[k] {
			t.Fatalf("cluster %d missing from tags", k)
		}
	}
}
