package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"netclus/internal/core"
	"netclus/internal/matrix"
	"netclus/internal/network"
	"netclus/internal/testnet"
)

// medoidInfos resolves point IDs to positions.
func medoidInfos(t *testing.T, g network.Graph, ids []network.PointID) []network.PointInfo {
	t.Helper()
	out := make([]network.PointInfo, len(ids))
	for i, id := range ids {
		pi, err := g.PointInfo(id)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = pi
	}
	return out
}

func TestMedoidDistFindMatchesMatrix(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		g, err := testnet.Random(seed, 40, 60)
		if err != nil {
			t.Fatal(err)
		}
		nodeD, err := matrix.AllPairsNodeDistances(g)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(5)
		ids := make([]network.PointID, k)
		for i := range ids {
			ids[i] = network.PointID(rng.Intn(g.NumPoints()))
		}
		infos := medoidInfos(t, g, ids)

		st := core.NewMedoidState(g.NumNodes())
		var stats core.Stats
		if err := core.MedoidDistFind(g, infos, st, &stats); err != nil {
			t.Fatal(err)
		}
		for n := 0; n < g.NumNodes(); n++ {
			want := network.Inf
			for _, m := range infos {
				d := math.Min(nodeD[m.N1][n]+m.Pos, nodeD[m.N2][n]+m.Weight-m.Pos)
				want = math.Min(want, d)
			}
			if math.Abs(st.Dist[n]-want) > 1e-9 {
				t.Fatalf("seed %d node %d: dist %v, want %v", seed, n, st.Dist[n], want)
			}
			if st.Med[n] >= 0 {
				m := infos[st.Med[n]]
				d := math.Min(nodeD[m.N1][n]+m.Pos, nodeD[m.N2][n]+m.Weight-m.Pos)
				if math.Abs(d-st.Dist[n]) > 1e-9 {
					t.Fatalf("seed %d node %d: assigned medoid %d at %v but Dist %v",
						seed, n, st.Med[n], d, st.Dist[n])
				}
			}
		}
	}
}

func TestAssignPointsMatchesMatrix(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		g, err := testnet.Random(seed, 36, 50)
		if err != nil {
			t.Fatal(err)
		}
		dist, err := matrix.PointDistances(g)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed * 77))
		k := 1 + rng.Intn(4)
		ids := make([]network.PointID, k)
		mids := make([]int, k)
		for i := range ids {
			ids[i] = network.PointID(rng.Intn(g.NumPoints()))
			mids[i] = int(ids[i])
		}
		infos := medoidInfos(t, g, ids)

		st := core.NewMedoidState(g.NumNodes())
		var stats core.Stats
		if err := core.MedoidDistFind(g, infos, st, &stats); err != nil {
			t.Fatal(err)
		}
		labels := make([]int32, g.NumPoints())
		r, err := core.AssignPoints(g, infos, st, labels, &stats)
		if err != nil {
			t.Fatal(err)
		}
		_, wantD, wantR, err := matrix.NearestMedoids(dist, mids)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r-wantR) > 1e-6 {
			t.Fatalf("seed %d: R = %v, matrix R = %v", seed, r, wantR)
		}
		// Ties may pick different medoids; the achieved distance must match.
		for p := 0; p < g.NumPoints(); p++ {
			if labels[p] < 0 {
				t.Fatalf("seed %d: point %d unassigned", seed, p)
			}
			got := dist[p][mids[labels[p]]]
			if math.Abs(got-wantD[p]) > 1e-9 {
				t.Fatalf("seed %d point %d: assigned at %v, optimum %v", seed, p, got, wantD[p])
			}
		}
	}
}

func TestIncMedoidUpdateEqualsRecompute(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		g, err := testnet.Random(seed+100, 50, 70)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(4)
		ids := make([]network.PointID, k)
		used := map[network.PointID]bool{}
		for i := range ids {
			for {
				p := network.PointID(rng.Intn(g.NumPoints()))
				if !used[p] {
					used[p] = true
					ids[i] = p
					break
				}
			}
		}
		infos := medoidInfos(t, g, ids)
		st := core.NewMedoidState(g.NumNodes())
		var stats core.Stats
		if err := core.MedoidDistFind(g, infos, st, &stats); err != nil {
			t.Fatal(err)
		}

		// Apply a chain of random replacements incrementally and compare
		// against a from-scratch recomputation after each.
		for step := 0; step < 6; step++ {
			slot := rng.Intn(k)
			var cand network.PointID
			for {
				cand = network.PointID(rng.Intn(g.NumPoints()))
				if !used[cand] {
					break
				}
			}
			used[cand] = true
			ci, err := g.PointInfo(cand)
			if err != nil {
				t.Fatal(err)
			}
			infos[slot] = ci
			if err := core.IncMedoidUpdate(g, infos, slot, st, &stats); err != nil {
				t.Fatal(err)
			}

			fresh := core.NewMedoidState(g.NumNodes())
			if err := core.MedoidDistFind(g, infos, fresh, &stats); err != nil {
				t.Fatal(err)
			}
			for n := 0; n < g.NumNodes(); n++ {
				if math.Abs(st.Dist[n]-fresh.Dist[n]) > 1e-9 {
					t.Fatalf("seed %d step %d node %d: incremental dist %v, fresh %v",
						seed, step, n, st.Dist[n], fresh.Dist[n])
				}
			}
		}
	}
}

func TestKMedoidsEndToEnd(t *testing.T) {
	g, cfg, err := testnet.RandomClustered(8, 300, 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	_ = cfg
	res, err := core.KMedoids(g, core.KMedoidsOptions{K: 3, Rand: rand.New(rand.NewSource(5))})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Medoids) != 3 {
		t.Fatalf("%d medoids, want 3", len(res.Medoids))
	}
	seen := map[network.PointID]bool{}
	for _, m := range res.Medoids {
		if seen[m] {
			t.Fatalf("duplicate medoid %d", m)
		}
		seen[m] = true
	}
	if res.Iterations < 1 || res.R <= 0 {
		t.Fatalf("suspicious result: %+v", res)
	}
	// Every medoid must label itself.
	for i, m := range res.Medoids {
		if res.Labels[m] != int32(i) {
			t.Fatalf("medoid %d labelled %d, want %d", m, res.Labels[m], i)
		}
	}
	// Recomputing R from the final medoid set must reproduce res.R.
	infos := medoidInfos(t, g, res.Medoids)
	st := core.NewMedoidState(g.NumNodes())
	var stats core.Stats
	if err := core.MedoidDistFind(g, infos, st, &stats); err != nil {
		t.Fatal(err)
	}
	labels := make([]int32, g.NumPoints())
	r, err := core.AssignPoints(g, infos, st, labels, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-res.R) > 1e-6 {
		t.Fatalf("reported R = %v, recomputed %v", res.R, r)
	}
}

func TestKMedoidsRecomputeMatchesIncremental(t *testing.T) {
	// With identical randomness, the incremental and recompute drivers must
	// walk exactly the same search trajectory (Fig. 5 is a pure
	// optimization), ending at the same R.
	g, _, err := testnet.RandomClustered(21, 200, 240, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.KMedoids(g, core.KMedoidsOptions{K: 4, Rand: rand.New(rand.NewSource(9))})
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.KMedoids(g, core.KMedoidsOptions{K: 4, Recompute: true, Rand: rand.New(rand.NewSource(9))})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.R-b.R) > 1e-9 {
		t.Fatalf("incremental R = %v, recompute R = %v", a.R, b.R)
	}
	if a.AttemptedSwaps != b.AttemptedSwaps || a.AcceptedSwaps != b.AcceptedSwaps {
		t.Fatalf("trajectories diverge: %+v vs %+v", a, b)
	}
	for i := range a.Medoids {
		if a.Medoids[i] != b.Medoids[i] {
			t.Fatalf("medoid %d: %d vs %d", i, a.Medoids[i], b.Medoids[i])
		}
	}
}

func TestKMedoidsRestartsPickBest(t *testing.T) {
	g, _, err := testnet.RandomClustered(31, 150, 150, 2)
	if err != nil {
		t.Fatal(err)
	}
	single, err := core.KMedoids(g, core.KMedoidsOptions{K: 2, Rand: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := core.KMedoids(g, core.KMedoidsOptions{K: 2, Restarts: 5, Rand: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	if multi.R > single.R+1e-9 {
		t.Fatalf("5 restarts ended worse (R=%v) than 1 restart (R=%v)", multi.R, single.R)
	}
}

func TestKMedoidsParallelEqualsSerial(t *testing.T) {
	g, _, err := testnet.RandomClustered(61, 250, 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := core.KMedoids(g, core.KMedoidsOptions{
		K: 3, Restarts: 6, Rand: rand.New(rand.NewSource(12)),
	})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := core.KMedoids(g, core.KMedoidsOptions{
		K: 3, Restarts: 6, Workers: 6, Rand: rand.New(rand.NewSource(12)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(serial.R-parallel.R) > 1e-12 {
		t.Fatalf("parallel R %v differs from serial %v", parallel.R, serial.R)
	}
	for i := range serial.Medoids {
		if serial.Medoids[i] != parallel.Medoids[i] {
			t.Fatalf("medoid %d: %d vs %d", i, serial.Medoids[i], parallel.Medoids[i])
		}
	}
	if serial.AttemptedSwaps != parallel.AttemptedSwaps || serial.Iterations != parallel.Iterations {
		t.Fatalf("work counters diverge: serial %+v parallel %+v", serial, parallel)
	}
	for p := range serial.Labels {
		if serial.Labels[p] != parallel.Labels[p] {
			t.Fatalf("label %d differs", p)
		}
	}
}

func TestKMedoidsValidation(t *testing.T) {
	g, err := testnet.Random(1, 12, 6)
	if err != nil {
		t.Fatal(err)
	}
	cases := []core.KMedoidsOptions{
		{K: 0},
		{K: 7},
		{K: 2, InitialMedoids: []network.PointID{1}},
	}
	for i, opts := range cases {
		if _, err := core.KMedoids(g, opts); err == nil {
			t.Fatalf("case %d (%+v): want error", i, opts)
		}
	}
	if _, err := core.KMedoids(g, core.KMedoidsOptions{K: 2, InitialMedoids: []network.PointID{1, 1}}); err == nil {
		t.Fatal("duplicate initial medoids: want error")
	}
}

func TestKMedoidsIdealStart(t *testing.T) {
	// Fig. 11b: seeding the medoids inside the true clusters.
	g, _, err := testnet.RandomClustered(41, 250, 200, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Use the first point of each generated cluster (tags are cluster IDs
	// and generation emits the seed point first, but IDs are re-ordered; so
	// simply pick any member of each cluster).
	var init []network.PointID
	seen := map[int32]bool{}
	for p, tag := range g.Tags() {
		if tag >= 0 && !seen[tag] {
			seen[tag] = true
			init = append(init, network.PointID(p))
		}
	}
	if len(init) != 2 {
		t.Fatalf("expected 2 cluster tags, got %d", len(init))
	}
	res, err := core.KMedoids(g, core.KMedoidsOptions{K: 2, InitialMedoids: init, Rand: rand.New(rand.NewSource(4))})
	if err != nil {
		t.Fatal(err)
	}
	if res.R <= 0 {
		t.Fatalf("bad R: %v", res.R)
	}
}

func TestKMedoidsSingleCluster(t *testing.T) {
	g, err := testnet.Random(55, 30, 20)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.KMedoids(g, core.KMedoidsOptions{K: 1, Rand: rand.New(rand.NewSource(2))})
	if err != nil {
		t.Fatal(err)
	}
	for p, l := range res.Labels {
		if l != 0 {
			t.Fatalf("point %d labelled %d under K=1", p, l)
		}
	}
	// K = 1 optimum: R must not exceed the R of any random single medoid.
	dist, err := matrix.PointDistances(g)
	if err != nil {
		t.Fatal(err)
	}
	_, _, r0, err := matrix.NearestMedoids(dist, []int{int(res.Medoids[0])})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r0-res.R) > 1e-6 {
		t.Fatalf("K=1: R=%v but matrix says %v for medoid %d", res.R, r0, res.Medoids[0])
	}
}

func TestKMedoidsAllPointsAreMedoids(t *testing.T) {
	g, err := testnet.Random(66, 15, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.KMedoids(g, core.KMedoidsOptions{K: 4, Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	if res.R > 1e-12 {
		t.Fatalf("every point its own medoid: R = %v, want 0", res.R)
	}
}

func TestSamplePointsViaOptionsPaths(t *testing.T) {
	// Exercise both sampling branches (k <= n/2 and k > n/2) through the
	// public API.
	g, err := testnet.Random(77, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 8} {
		res, err := core.KMedoids(g, core.KMedoidsOptions{K: k, Rand: rand.New(rand.NewSource(6))})
		if err != nil {
			t.Fatal(err)
		}
		seen := map[network.PointID]bool{}
		for _, m := range res.Medoids {
			if seen[m] {
				t.Fatalf("k=%d: duplicate medoid", k)
			}
			seen[m] = true
		}
	}
}

func BenchmarkMedoidDistFind(b *testing.B) {
	g, _, err := testnet.RandomClustered(1, 2500, 5000, 10)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	ids := make([]network.PointID, 10)
	for i := range ids {
		ids[i] = network.PointID(rng.Intn(g.NumPoints()))
	}
	infos := make([]network.PointInfo, len(ids))
	for i, id := range ids {
		pi, err := g.PointInfo(id)
		if err != nil {
			b.Fatal(err)
		}
		infos[i] = pi
	}
	st := core.NewMedoidState(g.NumNodes())
	var stats core.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.MedoidDistFind(g, infos, st, &stats); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleKMedoids() {
	g, _, err := testnet.RandomClustered(1, 200, 120, 2)
	if err != nil {
		panic(err)
	}
	res, err := core.KMedoids(g, core.KMedoidsOptions{K: 2, Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		panic(err)
	}
	fmt.Println(len(res.Medoids), core.CountClusters(res.Labels))
	// Output: 2 2
}
