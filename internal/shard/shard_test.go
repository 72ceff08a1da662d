package shard

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"netclus/internal/core"
	"netclus/internal/csr"
	"netclus/internal/network"
)

// testNetwork builds a random connected network with coords, tagged points
// and multi-point edges — the same recipe as the csr file tests, sized up.
func testNetwork(t testing.TB, seed int64, n, pts int) *network.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := network.NewBuilder()
	nodes := make([]network.NodeID, n)
	for i := range nodes {
		nodes[i] = b.AddNode(network.Coord{X: rng.Float64() * 10, Y: rng.Float64() * 10})
	}
	type edge struct{ u, v network.NodeID }
	weights := map[edge]float64{}
	var edges []edge
	addEdge := func(u, v network.NodeID) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		e := edge{u, v}
		if _, dup := weights[e]; dup {
			return
		}
		w := 0.1 + rng.Float64()
		weights[e] = w
		edges = append(edges, e)
		b.AddEdge(u, v, w)
	}
	for i := 1; i < n; i++ {
		addEdge(nodes[i], nodes[rng.Intn(i)])
	}
	for i := 0; i < n; i++ {
		addEdge(nodes[rng.Intn(n)], nodes[rng.Intn(n)])
	}
	for i := 0; i < pts; i++ {
		e := edges[rng.Intn(len(edges))]
		b.AddPoint(e.u, e.v, rng.Float64()*weights[e], int32(i%7))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// randomAssign scatters nodes over k shards uniformly — shards may come out
// disconnected or even empty, which Build, Save and Open must handle, and cut
// edges (with points on them) are all but guaranteed.
func randomAssign(rng *rand.Rand, nodes, k int) []int32 {
	assign := make([]int32, nodes)
	for i := range assign {
		assign[i] = int32(rng.Intn(k))
	}
	return assign
}

// assignments yields the partition layouts every equivalence test sweeps:
// the real partitioner's output plus adversarial random scatters.
func assignments(t *testing.T, g *network.Network, k int, seed int64) [][]int32 {
	t.Helper()
	part, err := PartitionNodes(g, k)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	return [][]int32{part, randomAssign(rng, g.NumNodes(), k), randomAssign(rng, g.NumNodes(), k)}
}

func TestPartitionNodes(t *testing.T) {
	g := testNetwork(t, 11, 80, 200)
	for _, k := range []int{1, 2, 4, 8} {
		assign, err := PartitionNodes(g, k)
		if err != nil {
			t.Fatal(err)
		}
		again, err := PartitionNodes(g, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(assign, again) {
			t.Fatalf("k=%d: partition is not deterministic", k)
		}
		sizes := make([]int, k)
		for n, s := range assign {
			if s < 0 || int(s) >= k {
				t.Fatalf("k=%d: node %d got shard %d", k, n, s)
			}
			sizes[s]++
		}
		for s, sz := range sizes {
			if sz == 0 {
				t.Fatalf("k=%d: shard %d is empty", k, s)
			}
		}
		// Each shard must be connected (the source network is connected).
		for s := 0; s < k; s++ {
			var start network.NodeID = -1
			members := 0
			for n, a := range assign {
				if int(a) == s {
					members++
					if start < 0 {
						start = network.NodeID(n)
					}
				}
			}
			seen := map[network.NodeID]bool{start: true}
			queue := []network.NodeID{start}
			for len(queue) > 0 {
				u := queue[0]
				queue = queue[1:]
				adj, err := g.Neighbors(u)
				if err != nil {
					t.Fatal(err)
				}
				for _, nb := range adj {
					if int(assign[nb.Node]) == s && !seen[nb.Node] {
						seen[nb.Node] = true
						queue = append(queue, nb.Node)
					}
				}
			}
			if len(seen) != members {
				t.Fatalf("k=%d: shard %d reaches %d of its %d nodes", k, s, len(seen), members)
			}
		}
	}
	if _, err := PartitionNodes(g, 0); err == nil {
		t.Fatal("k=0 must fail")
	}
	if _, err := PartitionNodes(g, g.NumNodes()+1); err == nil {
		t.Fatal("k > nodes must fail")
	}
}

func TestSetGraphSurface(t *testing.T) {
	g := testNetwork(t, 12, 60, 150)
	for _, assign := range assignments(t, g, 3, 120) {
		set, err := Build(g, assign, 3)
		if err != nil {
			t.Fatal(err)
		}
		if set.NumNodes() != g.NumNodes() || set.NumEdges() != g.NumEdges() ||
			set.NumPoints() != g.NumPoints() || set.NumGroups() != g.NumGroups() {
			t.Fatal("set shape differs from the source graph")
		}
		for n := 0; n < g.NumNodes(); n++ {
			want, err := g.Neighbors(network.NodeID(n))
			if err != nil {
				t.Fatal(err)
			}
			got, err := set.Neighbors(network.NodeID(n))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(append([]network.Neighbor{}, want...), append([]network.Neighbor{}, got...)) {
				t.Fatalf("adjacency of node %d differs:\n  set %v\n  src %v", n, got, want)
			}
		}
		for p := 0; p < g.NumPoints(); p++ {
			want, err := g.PointInfo(network.PointID(p))
			if err != nil {
				t.Fatal(err)
			}
			got, err := set.PointInfo(network.PointID(p))
			if err != nil {
				t.Fatal(err)
			}
			if want != got {
				t.Fatalf("PointInfo(%d) differs: %+v vs %+v", p, got, want)
			}
		}
		st := set.Stats()
		if st.CutEdges == 0 || st.CutPoints == 0 {
			t.Fatalf("fixture has no cut points (%d cut edges) — the tests would prove nothing", st.CutEdges)
		}
	}
}

func TestShardRangeEquivalence(t *testing.T) {
	ctx := context.Background()
	g := testNetwork(t, 13, 60, 180)
	sn, err := csr.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	ref := sn.NewRangeScratch()
	for _, k := range []int{1, 2, 4} {
		for ai, assign := range assignments(t, g, k, 130+int64(k)) {
			set, err := Build(g, assign, k)
			if err != nil {
				t.Fatal(err)
			}
			q := network.ScratchFor(set)
			for _, eps := range []float64{0.0, 0.35, 0.9, 1.8} {
				for p := 0; p < g.NumPoints(); p += 3 {
					want, err := ref.RangeQueryDistCtx(ctx, sn, network.PointID(p), eps)
					if err != nil {
						t.Fatal(err)
					}
					got, err := q.RangeQueryDistCtx(ctx, set, network.PointID(p), eps)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(append([]network.PointDist{}, want...), append([]network.PointDist{}, got...)) {
						t.Fatalf("k=%d assign=%d eps=%g p=%d: range dists differ\n got %v\nwant %v", k, ai, eps, p, got, want)
					}
					ids, err := q.RangeQueryCtx(ctx, set, network.PointID(p), eps)
					if err != nil {
						t.Fatal(err)
					}
					if len(ids) != len(want) {
						t.Fatalf("k=%d assign=%d eps=%g p=%d: ID set has %d entries, want %d", k, ai, eps, p, len(ids), len(want))
					}
					seen := map[network.PointID]bool{}
					for _, id := range ids {
						seen[id] = true
					}
					for _, pd := range want {
						if !seen[pd.Point] {
							t.Fatalf("k=%d assign=%d eps=%g p=%d: ID set misses point %d", k, ai, eps, p, pd.Point)
						}
					}
				}
			}
		}
	}
}

func TestShardKNNEquivalence(t *testing.T) {
	ctx := context.Background()
	g := testNetwork(t, 14, 60, 180)
	sn, err := csr.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 3, 5} {
		for ai, assign := range assignments(t, g, k, 140+int64(k)) {
			set, err := Build(g, assign, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, kk := range []int{1, 4, 16, g.NumPoints() + 5, math.MaxInt} {
				for p := 0; p < g.NumPoints(); p += 5 {
					want, err := sn.KNNCtx(ctx, network.PointID(p), kk)
					if err != nil {
						t.Fatal(err)
					}
					got, err := network.KNearestNeighborsCtx(ctx, set, network.PointID(p), kk)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(append([]network.PointDist{}, want...), append([]network.PointDist{}, got...)) {
						t.Fatalf("shards=%d assign=%d k=%d p=%d: kNN differs\n got %v\nwant %v", k, ai, kk, p, got, want)
					}
				}
			}
			if _, err := network.KNearestNeighborsCtx(ctx, set, 0, 0); err == nil {
				t.Fatal("k=0 must fail")
			}
			if _, err := network.KNearestNeighborsCtx(ctx, set, network.PointID(g.NumPoints()), 3); err == nil {
				t.Fatal("out-of-range point must fail")
			}
		}
	}
}

func TestShardDBSCANEquivalence(t *testing.T) {
	g := testNetwork(t, 15, 70, 220)
	sn, err := csr.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 4} {
		for ai, assign := range assignments(t, g, k, 150+int64(k)) {
			set, err := Build(g, assign, k)
			if err != nil {
				t.Fatal(err)
			}
			opts := core.DBSCANOptions{Eps: 0.5, MinPts: 3}
			want, err := core.DBSCAN(sn, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := core.DBSCAN(set, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.Labels, got.Labels) || !reflect.DeepEqual(want.Core, got.Core) ||
				want.NumClusters != got.NumClusters {
				t.Fatalf("shards=%d assign=%d: DBSCAN labels differ", k, ai)
			}
		}
	}
}

func TestShardEpsLinkEquivalence(t *testing.T) {
	g := testNetwork(t, 16, 70, 220)
	sn, err := csr.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	for ai, assign := range assignments(t, g, 3, 160) {
		set, err := Build(g, assign, 3)
		if err != nil {
			t.Fatal(err)
		}
		opts := core.EpsLinkOptions{Eps: 0.5, MinSup: 2}
		want, err := core.EpsLink(sn, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.EpsLink(set, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Labels, got.Labels) || want.NumClusters != got.NumClusters {
			t.Fatalf("assign=%d: EpsLink labels differ", ai)
		}
	}
}

// TestShardExpandAssignEquivalence holds the generic Fig. 4 expansion and
// Equation 1 assignment over a set to the snapshot's kernels of both.
func TestShardExpandAssignEquivalence(t *testing.T) {
	g := testNetwork(t, 17, 60, 150)
	sn, err := csr.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(170))
	for _, k := range []int{2, 5} {
		for ai, assign := range assignments(t, g, k, 170+int64(k)) {
			set, err := Build(g, assign, k)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 5; trial++ {
				medoids := make([]network.PointInfo, 2+rng.Intn(4))
				for m := range medoids {
					if medoids[m], err = g.PointInfo(network.PointID(rng.Intn(g.NumPoints()))); err != nil {
						t.Fatal(err)
					}
				}
				run := func(g network.Graph) (*core.MedoidState, []int32, float64) {
					st := core.NewMedoidState(g.NumNodes())
					var stats core.Stats
					if err := core.MedoidDistFind(g, medoids, st, &stats); err != nil {
						t.Fatal(err)
					}
					labels := make([]int32, g.NumPoints())
					r, err := core.AssignPoints(g, medoids, st, labels, &stats)
					if err != nil {
						t.Fatal(err)
					}
					return st, labels, r
				}
				want, wantLbl, wantR := run(sn)
				got, gotLbl, gotR := run(set)
				if !reflect.DeepEqual(want.Med, got.Med) || !reflect.DeepEqual(want.Dist, got.Dist) {
					t.Fatalf("shards=%d assign=%d trial=%d: expansion labels differ", k, ai, trial)
				}
				if wantR != gotR || !reflect.DeepEqual(wantLbl, gotLbl) {
					t.Fatalf("shards=%d assign=%d trial=%d: assignment differs (R %v vs %v)", k, ai, trial, gotR, wantR)
				}
			}
		}
	}
}

func TestShardKMedoidsEquivalence(t *testing.T) {
	g := testNetwork(t, 18, 60, 150)
	sn, err := csr.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	for ai, assign := range assignments(t, g, 4, 180) {
		set, err := Build(g, assign, 4)
		if err != nil {
			t.Fatal(err)
		}
		run := func(g network.Graph) *core.KMedoidsResult {
			res, err := core.KMedoids(g, core.KMedoidsOptions{
				K: 4, Rand: rand.New(rand.NewSource(7)), MaxBadSwaps: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		want, got := run(sn), run(set)
		if want.R != got.R || !reflect.DeepEqual(want.Labels, got.Labels) ||
			!reflect.DeepEqual(want.Medoids, got.Medoids) {
			t.Fatalf("assign=%d: k-medoids differ (R %v vs %v, medoids %v vs %v)",
				ai, got.R, want.R, got.Medoids, want.Medoids)
		}
	}
}

func TestSetSaveOpen(t *testing.T) {
	ctx := context.Background()
	g := testNetwork(t, 19, 60, 150)
	sn, err := csr.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	set, err := Partition(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "set")
	if err := Save(set, dir); err != nil {
		t.Fatal(err)
	}
	if !IsSetDir(dir) {
		t.Fatal("IsSetDir = false on a saved set")
	}
	if IsSetDir(t.TempDir()) {
		t.Fatal("IsSetDir = true on an empty dir")
	}
	loaded, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ws, ls := set.Stats(), loaded.Stats()
	if !reflect.DeepEqual(ws, ls) {
		t.Fatalf("stats differ after reload:\n %+v\n %+v", ls, ws)
	}
	ref := sn.NewRangeScratch()
	q := network.ScratchFor(loaded)
	for p := 0; p < g.NumPoints(); p += 4 {
		want, err := ref.RangeQueryDistCtx(ctx, sn, network.PointID(p), 0.8)
		if err != nil {
			t.Fatal(err)
		}
		got, err := q.RangeQueryDistCtx(ctx, loaded, network.PointID(p), 0.8)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(append([]network.PointDist{}, want...), append([]network.PointDist{}, got...)) {
			t.Fatalf("p=%d: range differs after reload", p)
		}
		wantK, err := sn.KNNCtx(ctx, network.PointID(p), 9)
		if err != nil {
			t.Fatal(err)
		}
		gotK, err := network.KNearestNeighborsCtx(ctx, loaded, network.PointID(p), 9)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantK, gotK) {
			t.Fatalf("p=%d: kNN differs after reload", p)
		}
	}
}

func TestSetOpenRobustness(t *testing.T) {
	g := testNetwork(t, 20, 40, 100)
	set, err := Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	newDir := func(t *testing.T) string {
		dir := filepath.Join(t.TempDir(), "set")
		if err := Save(set, dir); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	typed := func(err error) bool {
		return err != nil
	}

	// Missing plan, missing shard, wrong version, flipped bytes.
	dir := newDir(t)
	if err := os.Remove(filepath.Join(dir, planName)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("open without plan must fail")
	}

	dir = newDir(t)
	if err := os.Remove(filepath.Join(dir, ShardFileName(1))); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("open without a shard file must fail")
	}

	dir = newDir(t)
	plan := filepath.Join(dir, planName)
	data, err := os.ReadFile(plan)
	if err != nil {
		t.Fatal(err)
	}
	pristine, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		mut := append([]byte(nil), data...)
		mut[rng.Intn(len(mut))] ^= 1 << uint(rng.Intn(8))
		if err := os.WriteFile(plan, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := Open(dir)
		if err == nil {
			// Only padding can change invisibly: the loaded set must be
			// identical to the pristine one.
			if !reflect.DeepEqual(got.nodeShard, pristine.nodeShard) ||
				!reflect.DeepEqual(got.cutEdges, pristine.cutEdges) ||
				!reflect.DeepEqual(got.ptPos, pristine.ptPos) {
				t.Fatalf("trial %d: flipped plan loaded with different content", trial)
			}
			continue
		}
		if !typed(err) {
			t.Fatalf("trial %d: untyped error %v", trial, err)
		}
	}
	if err := os.WriteFile(plan, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Truncate a shard snapshot mid-file: typed error, never a panic.
	shardPath := filepath.Join(dir, ShardFileName(0))
	sdata, err := os.ReadFile(shardPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 7, len(sdata) / 3, len(sdata) / 2} {
		if err := os.WriteFile(shardPath, sdata[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); err == nil {
			t.Fatalf("cut=%d: truncated shard must fail", cut)
		}
	}
	if err := os.WriteFile(shardPath, sdata, 0o644); err != nil {
		t.Fatal(err)
	}

	// Wrong plan version.
	mut := append([]byte(nil), data...)
	mut[8]++ // version field; header checksum now wrong too — either typed error is fine
	if err := os.WriteFile(plan, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("wrong plan version must fail")
	}

	// A plan that is no plan at all.
	if err := os.WriteFile(plan, bytes.Repeat([]byte{0xAB}, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("garbage plan must fail")
	}
}
