package core_test

import (
	"fmt"
	"testing"

	"netclus/internal/core"
	"netclus/internal/lbound"
	"netclus/internal/network"
	"netclus/internal/testnet"
)

// stripPointCoords rebuilds g without its planar embedding so the pruned
// operators exercise their landmark-only / fallback paths.
func stripPointCoords(t *testing.T, g *network.Network) *network.Network {
	t.Helper()
	b := network.NewBuilder()
	b.AddNodes(g.NumNodes())
	for u := 0; u < g.NumNodes(); u++ {
		nbs, err := g.Neighbors(network.NodeID(u))
		if err != nil {
			t.Fatal(err)
		}
		for _, nb := range nbs {
			if nb.Node > network.NodeID(u) {
				b.AddEdge(network.NodeID(u), nb.Node, nb.Weight)
			}
		}
	}
	err := g.ScanGroups(func(_ network.GroupID, pg network.PointGroup, offsets []float64) error {
		for i, off := range offsets {
			b.AddPoint(pg.N1, pg.N2, off, g.Tag(pg.First+network.PointID(i)))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sameLabels(t *testing.T, want, got []int32, msg string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d labels vs %d", msg, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: label[%d] = %d, want %d", msg, i, got[i], want[i])
		}
	}
}

func TestDBSCANPrunedEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g, cfg, err := testnet.RandomClustered(seed, 60, 150, 4)
		if err != nil {
			t.Fatal(err)
		}
		instances := []struct {
			name string
			g    *network.Network
			opts lbound.Options
		}{
			{"euclidean", g, lbound.Options{Landmarks: 4, EuclideanLB: true}},
			{"coordless", stripPointCoords(t, g), lbound.Options{Landmarks: 4}},
		}
		for _, inst := range instances {
			b, err := lbound.Build(inst.g, inst.opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				base := core.DBSCANOptions{Eps: cfg.Eps(), MinPts: 3, Workers: workers}
				plain, err := core.DBSCAN(inst.g, base)
				if err != nil {
					t.Fatal(err)
				}
				base.Prune = b
				pruned, err := core.DBSCAN(inst.g, base)
				if err != nil {
					t.Fatal(err)
				}
				msg := fmt.Sprintf("seed %d %s workers %d", seed, inst.name, workers)
				sameLabels(t, plain.Labels, pruned.Labels, msg)
				if plain.NumClusters != pruned.NumClusters || plain.CorePoints != pruned.CorePoints {
					t.Fatalf("%s: clusters/core %d/%d, want %d/%d", msg,
						pruned.NumClusters, pruned.CorePoints, plain.NumClusters, plain.CorePoints)
				}
				if inst.name == "euclidean" && !pruned.Stats.Prune.Fired() {
					t.Fatalf("%s: prune counters never fired: %+v", msg, pruned.Stats.Prune)
				}
			}
		}
	}
}
