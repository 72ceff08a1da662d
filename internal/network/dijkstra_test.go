package network_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"netclus/internal/matrix"
	"netclus/internal/network"
	"netclus/internal/testnet"
)

func TestDijkstraMatchesFloydWarshall(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g, err := testnet.Random(seed, 30, 0)
		if err != nil {
			t.Fatal(err)
		}
		fw, err := matrix.FloydWarshall(g)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < g.NumNodes(); s += 3 {
			lazy, err := network.NodeDistances(g, network.NodeID(s))
			if err != nil {
				t.Fatal(err)
			}
			for v := 0; v < g.NumNodes(); v++ {
				if math.Abs(lazy[v]-fw[s][v]) > 1e-9 {
					t.Fatalf("seed %d: lazy d(%d,%d)=%v, FW %v", seed, s, v, lazy[v], fw[s][v])
				}
			}
		}
	}
}

func TestPointDistanceMatchesMatrix(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g, err := testnet.Random(seed+10, 25, 30)
		if err != nil {
			t.Fatal(err)
		}
		want, err := matrix.PointDistances(g)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < g.NumPoints(); p++ {
			for q := p; q < g.NumPoints(); q += 3 {
				d, err := network.PointDistance(g, network.PointID(p), network.PointID(q))
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(d-want[p][q]) > 1e-9 {
					t.Fatalf("seed %d: d(p%d,p%d) = %v, want %v", seed, p, q, d, want[p][q])
				}
			}
		}
	}
}

// TestNetworkDistanceIsAMetric checks §3.1's claim with testing/quick:
// identity, symmetry and the triangle inequality on random point triples of
// random networks.
func TestNetworkDistanceIsAMetric(t *testing.T) {
	g, err := testnet.Random(99, 40, 60)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := matrix.PointDistances(g)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumPoints()
	prop := func(a, b, c uint16) bool {
		p, q, s := int(a)%n, int(b)%n, int(c)%n
		if dist[p][p] != 0 {
			return false
		}
		if dist[p][q] != dist[q][p] {
			return false
		}
		return dist[p][s] <= dist[p][q]+dist[q][s]+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeQueryMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g, err := testnet.Random(seed+20, 30, 50)
			if err != nil {
				t.Fatal(err)
			}
			dist, err := matrix.PointDistances(g)
			if err != nil {
				t.Fatal(err)
			}
			scratch := network.NewRangeScratch(g)
			for _, eps := range []float64{0.25, 0.8, 2.0, 6.0} {
				for p := 0; p < g.NumPoints(); p += 4 {
					got, err := scratch.RangeQuery(g, network.PointID(p), eps)
					if err != nil {
						t.Fatal(err)
					}
					var want []network.PointID
					for q := 0; q < g.NumPoints(); q++ {
						if dist[p][q] <= eps {
							want = append(want, network.PointID(q))
						}
					}
					gs := append([]network.PointID(nil), got...)
					sort.Slice(gs, func(i, j int) bool { return gs[i] < gs[j] })
					if len(gs) != len(want) {
						t.Fatalf("p=%d eps=%v: %d results, want %d (%v vs %v)", p, eps, len(gs), len(want), gs, want)
					}
					for i := range gs {
						if gs[i] != want[i] {
							t.Fatalf("p=%d eps=%v: result %d is %d, want %d", p, eps, i, gs[i], want[i])
						}
					}
				}
			}
		})
	}
}

func TestRangeQueryDistMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g, err := testnet.Random(seed+30, 28, 45)
		if err != nil {
			t.Fatal(err)
		}
		dist, err := matrix.PointDistances(g)
		if err != nil {
			t.Fatal(err)
		}
		scratch := network.NewRangeScratch(g)
		for _, eps := range []float64{0.5, 1.5, 4.0} {
			for p := 0; p < g.NumPoints(); p += 5 {
				got, err := scratch.RangeQueryDist(g, network.PointID(p), eps)
				if err != nil {
					t.Fatal(err)
				}
				for _, pd := range got {
					if math.Abs(pd.Dist-dist[p][pd.Point]) > 1e-9 {
						t.Fatalf("seed %d p=%d q=%d: dist %v, true %v",
							seed, p, pd.Point, pd.Dist, dist[p][pd.Point])
					}
				}
				want := 0
				for q := range dist[p] {
					if dist[p][q] <= eps {
						want++
					}
				}
				if len(got) != want {
					t.Fatalf("seed %d p=%d eps=%v: %d results, want %d", seed, p, eps, len(got), want)
				}
			}
		}
	}
}

func TestRangeQueryScratchReuse(t *testing.T) {
	g, err := testnet.Random(31, 30, 50)
	if err != nil {
		t.Fatal(err)
	}
	scratch := network.NewRangeScratch(g)
	rnd := rand.New(rand.NewSource(1))
	// Interleave queries with very different ranges; stale state from a
	// previous epoch must never leak.
	first, err := scratch.RangeQuery(g, 0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	firstCopy := append([]network.PointID(nil), first...)
	for i := 0; i < 50; i++ {
		p := network.PointID(rnd.Intn(g.NumPoints()))
		if _, err := scratch.RangeQuery(g, p, rnd.Float64()*4); err != nil {
			t.Fatal(err)
		}
	}
	again, err := scratch.RangeQuery(g, 0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(firstCopy) {
		t.Fatalf("query drifted across scratch reuse: %d vs %d results", len(again), len(firstCopy))
	}
	sort.Slice(again, func(i, j int) bool { return again[i] < again[j] })
	sort.Slice(firstCopy, func(i, j int) bool { return firstCopy[i] < firstCopy[j] })
	for i := range again {
		if again[i] != firstCopy[i] {
			t.Fatal("query results drifted across scratch reuse")
		}
	}
}

func TestMultiSourceSeeds(t *testing.T) {
	g, err := testnet.Random(7, 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []network.Seed{{Node: 0, Dist: 0}, {Node: 10, Dist: 0.5}}
	multi, err := network.NodeDistancesFrom(g, seeds)
	if err != nil {
		t.Fatal(err)
	}
	d0, err := network.NodeDistances(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	d10, err := network.NodeDistances(g, 10)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumNodes(); v++ {
		want := math.Min(d0[v], 0.5+d10[v])
		if math.Abs(multi[v]-want) > 1e-9 {
			t.Fatalf("node %d: %v, want %v", v, multi[v], want)
		}
	}
	if _, err := network.NodeDistancesFrom(g, []network.Seed{{Node: -1}}); err == nil {
		t.Fatal("want seed range error")
	}
}
