package core_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"netclus/internal/core"
	"netclus/internal/datagen"
	"netclus/internal/evalx"
	"netclus/internal/matrix"
	"netclus/internal/network"
	"netclus/internal/testnet"
)

func TestOPTICSOrderingInvariants(t *testing.T) {
	g, err := testnet.Random(5, 40, 80)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.OPTICS(g, core.OPTICSOptions{Eps: 2.0, MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) != g.NumPoints() || len(res.Reach) != g.NumPoints() {
		t.Fatalf("ordering covers %d of %d points", len(res.Order), g.NumPoints())
	}
	seen := map[int32]bool{}
	for _, p := range res.Order {
		if seen[int32(p)] {
			t.Fatalf("point %d emitted twice", p)
		}
		seen[int32(p)] = true
	}
	if res.Stats.RangeQueries != g.NumPoints() {
		t.Fatalf("%d range queries for %d points", res.Stats.RangeQueries, g.NumPoints())
	}
	// Core distances match a brute-force MinPts-th neighbour computation.
	dist, err := matrix.PointDistances(g)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < g.NumPoints(); p++ {
		want := bruteCoreDist(dist, p, 2.0, 3)
		if math.Abs(res.CoreDist[p]-want) > 1e-9 && !(math.IsInf(want, 1) && math.IsInf(res.CoreDist[p], 1)) {
			t.Fatalf("core dist of %d: %v, want %v", p, res.CoreDist[p], want)
		}
	}
}

func bruteCoreDist(dist [][]float64, p int, eps float64, minPts int) float64 {
	var within []float64
	for q := range dist[p] {
		if dist[p][q] <= eps {
			within = append(within, dist[p][q])
		}
	}
	if len(within) < minPts {
		return math.Inf(1)
	}
	// selection by simple sort
	for i := 1; i < len(within); i++ {
		for j := i; j > 0 && within[j] < within[j-1]; j-- {
			within[j], within[j-1] = within[j-1], within[j]
		}
	}
	return within[minPts-1]
}

func TestOPTICSExtractionMatchesDBSCAN(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g, err := testnet.Random(seed+70, 40, 80)
			if err != nil {
				t.Fatal(err)
			}
			const eps = 2.5
			for _, minPts := range []int{2, 3, 4} {
				opt, err := core.OPTICS(g, core.OPTICSOptions{Eps: eps, MinPts: minPts})
				if err != nil {
					t.Fatal(err)
				}
				for _, epsPrime := range []float64{eps, 0.6 * eps, 0.3 * eps} {
					got := opt.ExtractDBSCAN(epsPrime)
					db, err := core.DBSCAN(g, core.DBSCANOptions{Eps: epsPrime, MinPts: minPts})
					if err != nil {
						t.Fatal(err)
					}
					checkExtraction(t, fmt.Sprintf("minPts=%d eps'=%v", minPts, epsPrime), got, db.Labels, db.Core)
				}
			}
		})
	}
}

// checkExtraction holds an OPTICS extraction got to the DBSCAN labels want
// with core flags isCore at the same ε': DBSCAN noise must be extraction
// noise, and the core points must be partitioned alike. Extraction may
// additionally miss some border points (the OPTICS paper's known
// approximation), never core points.
func checkExtraction(t *testing.T, what string, got, want []int32, isCore []bool) {
	t.Helper()
	var coreGot, coreWant []int32
	for p := range got {
		if want[p] == core.Noise && got[p] != core.Noise {
			t.Fatalf("%s: DBSCAN noise %d clustered by extraction", what, p)
		}
		if isCore[p] {
			if got[p] == core.Noise {
				t.Fatalf("%s: core point %d lost by extraction", what, p)
			}
			coreGot = append(coreGot, got[p])
			coreWant = append(coreWant, want[p])
		}
	}
	if len(coreWant) > 0 {
		ari, err := evalx.ARI(coreWant, coreGot)
		if err != nil {
			t.Fatal(err)
		}
		if ari != 1 {
			t.Fatalf("%s: core partition ARI %v", what, ari)
		}
	}
}

func TestOPTICSFindsClustersAtMultipleScales(t *testing.T) {
	g, cfg, err := testnet.RandomClustered(9, 400, 500, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.OPTICS(g, core.OPTICSOptions{Eps: 4 * cfg.Eps(), MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}
	labels := core.SuppressSmallClusters(res.ExtractDBSCAN(cfg.Eps()), 3)
	truth := append([]int32(nil), g.Tags()...)
	ari, err := evalx.ARI(
		evalx.NoiseAsSingletons(truth, datagen.OutlierTag),
		evalx.NoiseAsSingletons(labels, core.Noise))
	if err != nil {
		t.Fatal(err)
	}
	if ari < 0.9 {
		t.Fatalf("OPTICS extraction ARI %v < 0.9 (%d clusters)", ari, core.CountClusters(labels))
	}
	if len(res.ReachabilityPlot()) != g.NumPoints() {
		t.Fatal("plot length mismatch")
	}
}

func TestOPTICSValidation(t *testing.T) {
	g, err := testnet.Random(1, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.OPTICS(g, core.OPTICSOptions{Eps: 0, MinPts: 2}); err == nil {
		t.Fatal("want error for Eps = 0")
	}
	if _, err := core.OPTICS(g, core.OPTICSOptions{Eps: 1, MinPts: 0}); err == nil {
		t.Fatal("want error for MinPts = 0")
	}
}

// TestOPTICSTiesBreakByPointID runs OPTICS on an 8×8 unit-weight grid with
// one point at every edge midpoint, where every distance is an exact multiple
// of 0.5 and reachabilities tie everywhere, and demands the order of a
// linear-scan reference that always visits the unprocessed seed of smallest
// (reachability, point ID).
func TestOPTICSTiesBreakByPointID(t *testing.T) {
	const side = 8
	b := network.NewBuilder()
	b.AddNodes(side * side)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			u := network.NodeID(r*side + c)
			if c+1 < side {
				b.AddEdge(u, u+1, 1)
				b.AddPoint(u, u+1, 0.5, 0)
			}
			if r+1 < side {
				b.AddEdge(u, u+side, 1)
				b.AddPoint(u, u+side, 0.5, 0)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dist, err := matrix.PointDistances(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{1, 1.5, 2, 3} {
		for _, minPts := range []int{2, 3, 4} {
			want := referenceOPTICSOrder(dist, eps, minPts)
			got, err := core.OPTICS(g, core.OPTICSOptions{Eps: eps, MinPts: minPts})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(want, got.Order) {
				t.Fatalf("eps=%v minPts=%d: order diverged from the (reach, ID) reference\nwant %v\ngot  %v", eps, minPts, want, got.Order)
			}
		}
	}
}

// referenceOPTICSOrder is OPTICS over a distance matrix with the seed list as
// a linear scan: the next point visited is the unprocessed one of smallest
// (reachability, ID) among those with a finite reachability.
func referenceOPTICSOrder(dist [][]float64, eps float64, minPts int) []network.PointID {
	n := len(dist)
	reach := make([]float64, n)
	for i := range reach {
		reach[i] = math.Inf(1)
	}
	processed := make([]bool, n)
	var order []network.PointID
	visit := func(p int) {
		processed[p] = true
		order = append(order, network.PointID(p))
		cd := bruteCoreDist(dist, p, eps, minPts)
		if math.IsInf(cd, 1) {
			return
		}
		for q, d := range dist[p] {
			if d <= eps && !processed[q] {
				reach[q] = min(reach[q], max(cd, d))
			}
		}
	}
	for p := 0; p < n; p++ {
		if processed[p] {
			continue
		}
		visit(p)
		for {
			next := -1
			for q := range reach {
				if !processed[q] && !math.IsInf(reach[q], 1) && (next < 0 || reach[q] < reach[next]) {
					next = q
				}
			}
			if next < 0 {
				break
			}
			visit(next)
		}
	}
	return order
}
