package datagen

import (
	"math"
	"math/rand"
	"testing"

	"netclus/internal/network"
)

func TestGridNetworkShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, err := GridNetwork(10, 12, 1.0, 0.3, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 120 {
		t.Fatalf("%d nodes, want 120", g.NumNodes())
	}
	if g.NumEdges() != 119+20 {
		t.Fatalf("%d edges, want %d", g.NumEdges(), 139)
	}
	if _, c, _ := network.ConnectedComponents(g); c != 1 {
		t.Fatalf("grid has %d components", c)
	}
	if !g.HasCoords() {
		t.Fatal("grid should carry coordinates")
	}
	// Weights are positive Euclidean distances.
	for u := 0; u < g.NumNodes(); u++ {
		adj, err := g.Neighbors(network.NodeID(u))
		if err != nil {
			t.Fatal(err)
		}
		for _, nb := range adj {
			if !(nb.Weight > 0) {
				t.Fatalf("edge (%d,%d) weight %v", u, nb.Node, nb.Weight)
			}
		}
	}
}

func TestGridNetworkValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := GridNetwork(0, 5, 1, 0, 0, rng); err == nil {
		t.Fatal("want error for 0 rows")
	}
	if _, err := GridNetwork(5, 5, -1, 0, 0, rng); err == nil {
		t.Fatal("want error for negative spacing")
	}
	// extraEdges beyond the pool is clamped, not an error.
	g, err := GridNetwork(3, 3, 1, 0, 10000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 12 { // full 3x3 lattice
		t.Fatalf("%d edges, want 12", g.NumEdges())
	}
}

func TestGeneratePointsGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	base, err := GridNetwork(20, 20, 1.0, 0.3, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultClusterConfig(1000, 5, 0.05)
	g, err := GeneratePoints(base, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumPoints() != 1000 {
		t.Fatalf("%d points, want 1000", g.NumPoints())
	}
	counts := map[int32]int{}
	for _, tag := range g.Tags() {
		counts[tag]++
	}
	if counts[OutlierTag] != 10 { // 1% of 1000
		t.Fatalf("%d outliers, want 10", counts[OutlierTag])
	}
	for c := int32(0); c < 5; c++ {
		if counts[c] != 198 {
			t.Fatalf("cluster %d has %d points, want 198", c, counts[c])
		}
	}
	// All points lie within their edges.
	for p := 0; p < g.NumPoints(); p++ {
		pi, err := g.PointInfo(network.PointID(p))
		if err != nil {
			t.Fatal(err)
		}
		if pi.Pos < 0 || pi.Pos > pi.Weight {
			t.Fatalf("point %d outside edge: %+v", p, pi)
		}
	}
}

func TestGeneratePointsValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base, err := GridNetwork(4, 4, 1, 0, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	bad := []ClusterConfig{
		{NumPoints: 0, K: 1, SInit: 1, F: 5},
		{NumPoints: 10, K: 0, SInit: 1, F: 5},
		{NumPoints: 10, K: 1, SInit: 0, F: 5},
		{NumPoints: 10, K: 1, SInit: 1, F: 0.5},
		{NumPoints: 10, K: 1, SInit: 1, F: 5, OutlierFrac: 1.5},
	}
	for i, cfg := range bad {
		if _, err := GeneratePoints(base, cfg, rng); err == nil {
			t.Fatalf("case %d: want validation error", i)
		}
	}
	// Base with points is rejected.
	withPts, err := GenerateUniform(base, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GeneratePoints(withPts, DefaultClusterConfig(10, 1, 1), rng); err == nil {
		t.Fatal("want error for populated base")
	}
}

func TestGenerateUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base, err := GridNetwork(8, 8, 1, 0.2, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	g, err := GenerateUniform(base, 200, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumPoints() != 200 {
		t.Fatalf("%d points", g.NumPoints())
	}
}

func TestConfigDerivedParameters(t *testing.T) {
	cfg := DefaultClusterConfig(100, 4, 2.0)
	if cfg.F != 5 || cfg.OutlierFrac != 0.01 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	if cfg.Eps() != 1.5*2.0*5 {
		t.Fatalf("Eps %v", cfg.Eps())
	}
	if math.Abs(cfg.Delta()-0.7*cfg.Eps()) > 1e-12 {
		t.Fatalf("Delta %v", cfg.Delta())
	}
}

func TestRoadNetworksDeterministicAndSized(t *testing.T) {
	for _, spec := range Roads {
		g1, err := RoadNetwork(spec.Name, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		g2, err := RoadNetwork(spec.Name, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		if g1.NumNodes() != g2.NumNodes() || g1.NumEdges() != g2.NumEdges() {
			t.Fatalf("%s not deterministic", spec.Name)
		}
		want := int(float64(spec.Nodes) * 0.02)
		if want < 64 {
			want = 64
		}
		if g1.NumNodes() != want {
			t.Fatalf("%s: %d nodes, want %d", spec.Name, g1.NumNodes(), want)
		}
		if _, c, _ := network.ConnectedComponents(g1); c != 1 {
			t.Fatalf("%s stand-in has %d components", spec.Name, c)
		}
		// Edge/node ratio within 25% of the real network's.
		wantRatio := float64(spec.Edges) / float64(spec.Nodes)
		gotRatio := float64(g1.NumEdges()) / float64(g1.NumNodes())
		if gotRatio < wantRatio*0.75 || gotRatio > wantRatio*1.25 {
			t.Fatalf("%s: edge ratio %.3f, want ~%.3f", spec.Name, gotRatio, wantRatio)
		}
	}
	if _, err := RoadNetwork("XX", 0.1); err == nil {
		t.Fatal("want error for unknown network")
	}
	if _, err := RoadNetwork("OL", 0); err == nil {
		t.Fatal("want error for scale 0")
	}
	if _, err := RoadNetwork("OL", 2); err != nil {
		t.Fatalf("scale 2 (above the paper's size) must work: %v", err)
	}
	if _, err := RoadNetwork("OL", MaxScale+1); err == nil {
		t.Fatal("want error for scale > MaxScale")
	}
}

func TestRoadDataset(t *testing.T) {
	g, cfg, err := RoadDataset("OL", 0.05, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumPoints() < 100 {
		t.Fatalf("%d points", g.NumPoints())
	}
	if cfg.K != 5 || cfg.Eps() <= 0 {
		t.Fatalf("config %+v", cfg)
	}
	if _, _, err := RoadDataset("nope", 0.05, 5); err == nil {
		t.Fatal("want error for unknown name")
	}
}
