package exp_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"netclus/internal/exp"
)

// tiny keeps experiment tests fast while still exercising every code path.
func tiny() exp.Config {
	return exp.Config{Scale: 1.0 / 128, K: 5, Seed: 1}
}

func TestFig11Effectiveness(t *testing.T) {
	var buf bytes.Buffer
	cfg := tiny()
	cfg.Out = &buf
	res, err := exp.Fig11Effectiveness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("%d method rows, want 5", len(res.Rows))
	}
	byMethod := map[string]exp.Fig11Row{}
	for _, r := range res.Rows {
		byMethod[r.Method] = r
		if r.ARI < 0 || r.ARI > 1.0000001 {
			t.Fatalf("%s: ARI %v out of range", r.Method, r.ARI)
		}
		if len(r.Labels) != res.Network.NumPoints() {
			t.Fatalf("%s: %d labels", r.Method, len(r.Labels))
		}
	}
	// The paper's qualitative claim: the density methods dominate the
	// random-start k-medoids.
	if byMethod["eps-link"].ARI < byMethod["k-medoids (random start)"].ARI-1e-9 {
		t.Fatalf("eps-link ARI %v below k-medoids %v",
			byMethod["eps-link"].ARI, byMethod["k-medoids (random start)"].ARI)
	}
	// DBSCAN and eps-link agree (identical output claim).
	if byMethod["DBSCAN"].Clusters != byMethod["eps-link"].Clusters {
		t.Fatalf("DBSCAN found %d clusters, eps-link %d",
			byMethod["DBSCAN"].Clusters, byMethod["eps-link"].Clusters)
	}
	if !strings.Contains(buf.String(), "Figure 11") {
		t.Fatal("report header missing")
	}
}

func TestFig12IncrementalSpeedup(t *testing.T) {
	rows, err := exp.Fig12IncrementalSpeedup(tiny(), []int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Incremental <= 0 || r.Recompute <= 0 {
			t.Fatalf("non-positive durations: %+v", r)
		}
	}
	// The paper's claim: higher k, higher speedup.
	if rows[1].Speedup < rows[0].Speedup*0.8 {
		t.Fatalf("speedup did not grow with k: %v then %v", rows[0].Speedup, rows[1].Speedup)
	}
}

func TestTable1KMedoids(t *testing.T) {
	rows, err := exp.Table1KMedoids(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4 datasets", len(rows))
	}
	for _, r := range rows {
		if r.Iterations < 1 || r.FirstIter <= 0 {
			t.Fatalf("%s: %+v", r.Dataset, r)
		}
		// Incremental iterations must be cheaper than the first. At the
		// tiny test scale both are microseconds, so tolerate scheduler
		// noise up to a factor of 2 and only insist when the first
		// iteration is long enough to time reliably.
		if r.FirstIter > 500*time.Microsecond && r.NextIter > 2*r.FirstIter {
			t.Errorf("%s: next iter %v much slower than first %v", r.Dataset, r.NextIter, r.FirstIter)
		}
	}
}

func TestTable2Algorithms(t *testing.T) {
	rows, err := exp.Table2Algorithms(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.KMedoids <= 0 || r.DBSCAN <= 0 || r.EpsLink <= 0 || r.SingleLink <= 0 {
			t.Fatalf("%s: non-positive cost %+v", r.Dataset, r)
		}
	}
}

func TestFig13And14Scalability(t *testing.T) {
	rows13, err := exp.Fig13ScalabilityN(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows13) != 4 {
		t.Fatalf("fig13: %d rows", len(rows13))
	}
	for i := 1; i < len(rows13); i++ {
		if rows13[i].X < rows13[i-1].X {
			t.Fatal("fig13 X not ascending")
		}
	}
	rows14, err := exp.Fig14ScalabilityV(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows14) != 4 {
		t.Fatalf("fig14: %d rows", len(rows14))
	}
	for i := 1; i < len(rows14); i++ {
		if rows14[i].X <= rows14[i-1].X {
			t.Fatal("fig14 |V| not ascending")
		}
	}
}

func TestFig15MergeDistances(t *testing.T) {
	res, err := exp.Fig15MergeDistances(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LastDistances) == 0 || res.TotalMerges == 0 {
		t.Fatalf("empty dendrogram: %+v", res)
	}
	// Distances ascend once past the δ pre-merges (which are unordered
	// among themselves; at tiny scales they reach into the 49-merge tail).
	firstMain := res.PreMerges - (res.TotalMerges - len(res.LastDistances))
	if firstMain < 1 {
		firstMain = 1
	}
	for i := firstMain; i < len(res.LastDistances); i++ {
		if i > firstMain && res.LastDistances[i] < res.LastDistances[i-1] {
			t.Fatal("main-merge tail distances not ascending")
		}
	}
	// The §5.3 claim: a detectable jump exists near or above eps.
	found := false
	for _, l := range res.Levels {
		if l.Dist >= res.Eps*0.5 {
			found = true
		}
	}
	if !found {
		t.Logf("no interesting level at/above eps/2 (eps=%v, levels=%v) — tolerated at tiny scale", res.Eps, res.Levels)
	}
}

func TestStorageAblation(t *testing.T) {
	rows, err := exp.StorageAblation(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.EpsLinkIO.LogicalReads == 0 || r.SingleLinkIO.LogicalReads == 0 {
			t.Fatalf("no I/O recorded: %+v", r)
		}
	}
}

func TestFig10Datasets(t *testing.T) {
	rows, err := exp.Fig10Datasets(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Network == nil || r.Nodes != r.Network.NumNodes() {
			t.Fatalf("row %s inconsistent: %+v", r.Name, r)
		}
		wantRatio := float64(r.PaperEdges) / float64(r.PaperNodes)
		gotRatio := float64(r.Edges) / float64(r.Nodes)
		if gotRatio < wantRatio*0.7 || gotRatio > wantRatio*1.4 {
			t.Fatalf("%s: E/V %.3f vs paper %.3f", r.Name, gotRatio, wantRatio)
		}
	}
}

func TestExtensionsDemo(t *testing.T) {
	res, err := exp.ExtensionsDemo(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if res.OPTICSARI < 0.8 {
		t.Fatalf("OPTICS extraction ARI %v", res.OPTICSARI)
	}
	if res.RepLinkARI < 0.8 {
		t.Fatalf("RepLink ARI %v", res.RepLinkARI)
	}
	if len(res.TimeSweepCounts) != 3 {
		t.Fatalf("time sweep counts %v", res.TimeSweepCounts)
	}
	// Rush hour at 2x weights must not reduce the cluster count.
	if res.TimeSweepCounts[1] < res.TimeSweepCounts[0] {
		t.Fatalf("rush hour merged clusters: %v", res.TimeSweepCounts)
	}
}

func TestPruneAblation(t *testing.T) {
	rows, err := exp.PruneAblation(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if !r.Identical {
			t.Fatalf("%s: pruned result differs from unpruned", r.Op)
		}
		if r.Unpruned <= 0 || r.Pruned <= 0 {
			t.Fatalf("%s: bad durations: %+v", r.Op, r)
		}
		// Both runs read through the store's buffer pool, from a cold one.
		if r.UnprunedIO.LogicalReads == 0 || r.PrunedIO.LogicalReads == 0 ||
			r.UnprunedIO.PhysicalReads == 0 || r.PrunedIO.PhysicalReads == 0 {
			t.Fatalf("%s: a run read no pages: unpruned %+v, pruned %+v", r.Op, r.UnprunedIO, r.PrunedIO)
		}
	}
}
