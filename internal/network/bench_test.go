package network_test

import (
	"math/rand"
	"testing"

	"netclus/internal/network"
	"netclus/internal/testnet"
)

func benchNet(b *testing.B, nodes, points int) *network.Network {
	b.Helper()
	g, err := testnet.Random(1, nodes, points)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkNodeDistances(b *testing.B) {
	g := benchNet(b, 10000, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := network.NodeDistances(g, network.NodeID(i%g.NumNodes())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPointDistance(b *testing.B) {
	g := benchNet(b, 5000, 10000)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := network.PointID(rng.Intn(g.NumPoints()))
		q := network.PointID(rng.Intn(g.NumPoints()))
		if _, err := network.PointDistance(g, p, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRangeQuery(b *testing.B) {
	g := benchNet(b, 5000, 15000)
	scratch := network.NewRangeScratch(g)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := network.PointID(rng.Intn(g.NumPoints()))
		if _, err := scratch.RangeQuery(g, p, 2.0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanGroups(b *testing.B) {
	g := benchNet(b, 5000, 15000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		err := g.ScanGroups(func(gid network.GroupID, pg network.PointGroup, off []float64) error {
			n += len(off)
			return nil
		})
		if err != nil || n != g.NumPoints() {
			b.Fatalf("scan: %v, %d", err, n)
		}
	}
}

func BenchmarkBuilderBuild(b *testing.B) {
	// Measures network construction cost for a mid-size city.
	src := benchNet(b, 4000, 12000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bd := network.NewBuilder()
		for n := 0; n < src.NumNodes(); n++ {
			bd.AddNode(src.Coord(network.NodeID(n)))
		}
		for u := 0; u < src.NumNodes(); u++ {
			adj, err := src.Neighbors(network.NodeID(u))
			if err != nil {
				b.Fatal(err)
			}
			for _, nb := range adj {
				if network.NodeID(u) < nb.Node {
					bd.AddEdge(network.NodeID(u), nb.Node, nb.Weight)
				}
			}
		}
		err := src.ScanGroups(func(gid network.GroupID, pg network.PointGroup, off []float64) error {
			for j, o := range off {
				bd.AddPoint(pg.N1, pg.N2, o, src.Tag(pg.First+network.PointID(j)))
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bd.Build(); err != nil {
			b.Fatal(err)
		}
	}
}
