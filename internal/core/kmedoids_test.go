package core_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"netclus/internal/core"
	"netclus/internal/csr"
	"netclus/internal/datagen"
	"netclus/internal/delta"
	"netclus/internal/matrix"
	"netclus/internal/network"
	"netclus/internal/shard"
	"netclus/internal/storage"
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

// pointInfoCounter counts PointInfo calls: a restart resolves its K initial
// medoids before anything else.
type pointInfoCounter struct {
	network.Graph
	calls int
}

func (c *pointInfoCounter) PointInfo(p network.PointID) (network.PointInfo, error) {
	c.calls++
	return c.Graph.PointInfo(p)
}

// TestKMedoidsRestartsBounded: a negative Restarts is invalid options (it
// sized four slices and panicked), and a serial run stops at its first failed
// restart instead of starting every other one after the context is done.
func TestKMedoidsRestartsBounded(t *testing.T) {
	g, err := testnet.Random(1, 40, 30)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.KMedoids(g, core.KMedoidsOptions{K: 3, Restarts: -1}); !errors.Is(err, core.ErrInvalidOptions) {
		t.Fatalf("Restarts -1: got %v, want ErrInvalidOptions", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := &pointInfoCounter{Graph: g}
	res, err := core.KMedoidsCtx(ctx, c, core.KMedoidsOptions{K: 3, Restarts: 1000})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("cancelled run: result %v, error %v", res != nil, err)
	}
	if c.calls != 3 {
		t.Fatalf("a cancelled run resolved %d medoids; one restart resolves 3", c.calls)
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

// sameBits reports whether two float slices are equal bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestKMedoidsRollback drives the swap search one attempt at a time on every
// backend — unpruned, pruned and recomputing — and checks both outcomes of an
// attempt against something that does not share its bookkeeping: a rejected
// swap leaves the node assignment, the labels, the group subtotals and R bit
// for bit as they were (the change log and the undo buffer restore exactly
// what was overwritten), and an accepted one leaves what a from-scratch
// expansion and full assignment scan of the new medoid set produce. Every
// fourth attempt moves a medoid along its own edge, every other fourth
// replaces a medoid whose cluster holds an end node of another medoid's edge
// (seed source (c) of IncMedoidUpdate).
func TestKMedoidsRollback(t *testing.T) {
	ctx := context.Background()
	g, _, err := testnet.RandomClustered(5, 150, 400, 4)
	if err != nil {
		t.Fatal(err)
	}
	const k = 5
	for _, bk := range densityBackends(t, g, 4, true) {
		type variant struct {
			opts     core.KMedoidsOptions
			attempts int
		}
		variants := []variant{{core.KMedoidsOptions{K: k}, 200}, {core.KMedoidsOptions{K: k, Recompute: true}, 40}}
		if bk.bounds != nil {
			variants = append(variants, variant{core.KMedoidsOptions{K: k, Prune: bk.bounds}, 40})
		}
		for _, v := range variants {
			what := fmt.Sprintf("%s recompute=%v pruned=%v", bk.name, v.opts.Recompute, v.opts.Prune != nil)
			rng := rand.New(rand.NewSource(23))
			n := bk.g.NumPoints()
			var init []network.PointID
			for _, p := range rng.Perm(n)[:k] {
				init = append(init, network.PointID(p))
			}
			s, err := core.NewMedoidSearch(ctx, bk.g, v.opts, init)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			st, _, _, _ := s.State()
			isMedoid := func(p network.PointID) bool {
				ids, _ := s.Medoids()
				return slices.Contains(ids, p)
			}
			var sameEdge, seedC, rejected, accepted int
			for i := 0; i < v.attempts; i++ {
				ids, infos := s.Medoids()
				mi, cand := rng.Intn(k), network.PointID(-1)
				switch i % 4 {
				case 1: // onto the replaced medoid's own edge
					for _, d := range []network.PointID{1, -1} {
						p := ids[mi] + d
						if p < 0 || int(p) >= n || isMedoid(p) {
							continue
						}
						if pi, err := bk.g.PointInfo(p); err != nil {
							t.Fatal(err)
						} else if pi.Group == infos[mi].Group {
							cand = p
							sameEdge++
							break
						}
					}
				case 3: // a surviving medoid's end node belongs to the replaced cluster
					for j, m := range infos {
						if o := st.Med[m.N1]; o != int32(j) {
							mi = int(o)
							seedC++
							break
						}
						if o := st.Med[m.N2]; o != int32(j) {
							mi = int(o)
							seedC++
							break
						}
					}
				}
				for cand < 0 || isMedoid(cand) {
					cand = network.PointID(rng.Intn(n))
				}
				_, labels, sub, r := s.State()
				wantMed := append([]int32(nil), st.Med...)
				wantDist := append([]float64(nil), st.Dist...)
				wantLabels := append([]int32(nil), labels...)
				wantSub := append([]float64(nil), sub...)
				wantIDs := append([]network.PointID(nil), ids...)

				ok, err := s.Attempt(ctx, mi, cand)
				if err != nil {
					t.Fatalf("%s attempt %d: %v", what, i, err)
				}
				_, labels, sub, r2 := s.State()
				ids, infos = s.Medoids()
				if !ok {
					rejected++
					if !reflect.DeepEqual(st.Med, wantMed) || !sameBits(st.Dist, wantDist) ||
						!reflect.DeepEqual(labels, wantLabels) || !sameBits(sub, wantSub) ||
						math.Float64bits(r2) != math.Float64bits(r) || !reflect.DeepEqual(ids, wantIDs) {
						t.Fatalf("%s attempt %d (slot %d <- point %d): the rejected swap left a trace", what, i, mi, cand)
					}
					continue
				}
				accepted++
				if !(r2 < r) || ids[mi] != cand {
					t.Fatalf("%s attempt %d: accepted with R %v -> %v, slot holds %d", what, i, r, r2, ids[mi])
				}
				fresh := core.NewMedoidState(bk.g.NumNodes())
				var stats core.Stats
				if err := core.MedoidDistFind(bk.g, infos, fresh, &stats); err != nil {
					t.Fatal(err)
				}
				freshLabels := make([]int32, n)
				freshR, err := core.AssignPoints(bk.g, infos, fresh, freshLabels, &stats)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(labels, freshLabels) || math.Float64bits(r2) != math.Float64bits(freshR) ||
					!reflect.DeepEqual(st.Med, fresh.Med) || !sameBits(st.Dist, fresh.Dist) {
					t.Fatalf("%s attempt %d (slot %d <- point %d): the accepted swap differs from a fresh evaluation (R %v vs %v)",
						what, i, mi, cand, r2, freshR)
				}
			}
			if sameEdge == 0 || seedC == 0 || rejected == 0 || accepted == 0 {
				t.Fatalf("%s: %d same-edge and %d seed-(c) swaps, %d rejected, %d accepted: a case was never exercised",
					what, sameEdge, seedC, rejected, accepted)
			}
		}
	}
}

// TestKMedoidsSwapWorkBound pins what a swap costs on a compiled road
// stand-in, in counted work: the expansion settles a node about once (≤ 1.01
// settles per distinct node written over the run and ≤ 1.5 in any one
// attempt: a write-at-push expansion settles a node again only when a better
// entry reaches it after its pop), and once the change log and the undo
// buffer have reached their working size an attempt allocates nothing — no
// whole-array copy comes back unnoticed.
func TestKMedoidsSwapWorkBound(t *testing.T) {
	// A collection empties the snapshot's scratch pools and a move to another
	// P misses them; refilling would be counted against the attempt that
	// happens to follow.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	g, _, err := datagen.RoadDataset("SF", 0.05, 10)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := csr.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	const k = 10
	rng := rand.New(rand.NewSource(3))
	var init []network.PointID
	for _, p := range rng.Perm(sn.NumPoints())[:k] {
		init = append(init, network.PointID(p))
	}
	s, err := core.NewMedoidSearch(ctx, sn, core.KMedoidsOptions{K: k}, init)
	if err != nil {
		t.Fatal(err)
	}
	st, _, _, _ := s.State()
	seen := make([]int, sn.NumNodes())
	var steady uint64
	var allSettled, allDistinct int
	for i := 1; i <= 60; i++ {
		cand := network.PointID(rng.Intn(sn.NumPoints()))
		if ids, _ := s.Medoids(); slices.Contains(ids, cand) {
			continue
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		settled := s.Stats().NodesSettled
		if _, err := s.Attempt(ctx, rng.Intn(k), cand); err != nil {
			t.Fatal(err)
		}
		settled = s.Stats().NodesSettled - settled
		runtime.ReadMemStats(&after)
		if i > 30 {
			steady += after.TotalAlloc - before.TotalAlloc
		}
		distinct := 0
		for _, e := range st.Changes() {
			if seen[e.Node] != i {
				seen[e.Node] = i
				distinct++
			}
		}
		if 2*settled > 3*distinct {
			t.Fatalf("attempt %d: %d settles for %d distinct nodes written", i, settled, distinct)
		}
		allSettled, allDistinct = allSettled+settled, allDistinct+distinct
	}
	if 100*allSettled > 101*allDistinct {
		t.Fatalf("%d settles for %d distinct nodes written", allSettled, allDistinct)
	}
	// The three arrays every attempt used to copy: 12 B a node (backup of the
	// assignment), 4 B a point (trial labels), 8 B a group (trial subtotals).
	copies := uint64(12*sn.NumNodes() + 4*sn.NumPoints() + 8*sn.NumGroups())
	if raceEnabled {
		return
	}
	if steady > copies/8 {
		t.Fatalf("attempts 31-60 allocated %d bytes; one set of whole-array copies is %d", steady, copies)
	}
	// A whole call: the assignment, labels and subtotals once (= copies), the
	// log and undo buffers, pooled kernel scratch. Measured 3.5 x copies here
	// (3.9 x with the backup, trial and trialSub arrays).
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := core.KMedoidsCtx(ctx, sn, core.KMedoidsOptions{K: k}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; 10*got > 37*copies {
		t.Fatalf("one KMedoidsCtx call allocated %d bytes, %.2f x the %d of its result arrays", got, float64(got)/float64(copies), copies)
	}
}

// nearestAssigner is the csr snapshot's flat Equation 1 scan, which a
// delta view inherits from the snapshot it wraps.
type nearestAssigner interface {
	AssignNearest(medoids []network.PointInfo, med []int32, dist []float64, labels []int32) (float64, int)
}

// TestKMedoidsDeltaAssign drives the swap search one attempt at a time on a
// road stand-in served by the store, a delta view, the pointer network, a
// 4-shard set and the snapshot, and holds the rescan-what-moved assignment
// every backend runs to a fresh full scan: after every attempt, accepted or
// rolled back, the labels and R equal what a full scan computes from the
// search's medoids and node assignment bit for bit (AssignPoints, or on the
// snapshot and the view, which is a snapshot derived from it, the csr
// kernel AssignNearest, an independent implementation); no attempt rescans
// every group; and a rejected attempt repeated on the store — the change log
// and the undo buffer then at the size it needs — allocates nothing.
func TestKMedoidsDeltaAssign(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	g, _, err := datagen.RoadDataset("SF", 0.05, 10)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := csr.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	// Room for the whole stand-in in the page buffer and the record caches,
	// and every record read once: what is measured is the search, not the
	// store faulting pages in.
	dir := t.TempDir()
	sopts := storage.Options{BufferBytes: 8 << 20, AdjCacheEntries: 2 * g.NumNodes(), GroupCacheEntries: 2 * g.NumGroups()}
	if err := storage.Build(dir, g, sopts); err != nil {
		t.Fatal(err)
	}
	st, err := storage.Open(dir, sopts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for n := 0; n < st.NumNodes(); n++ {
		if _, err := st.Neighbors(network.NodeID(n)); err != nil {
			t.Fatal(err)
		}
	}
	for p := 0; p < st.NumPoints(); p++ {
		pi, err := st.PointInfo(network.PointID(p))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.GroupOffsets(pi.Group); err != nil {
			t.Fatal(err)
		}
	}
	set, err := shard.Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	o, err := delta.New(sn, delta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if _, err := o.Apply(ctx, []delta.Op{delta.InsertNear(0, 0.5, 1), delta.Delete(network.PointID(g.NumPoints() - 1))}); err != nil {
		t.Fatal(err)
	}
	const k = 10
	for _, bk := range []struct {
		name    string
		g       network.Graph
		noAlloc bool
	}{{"store", st, true}, {"delta-view", o.Current().Graph, false}, {"network", g, false}, {"4-shards", set, false}, {"snapshot", sn, false}} {
		rng := rand.New(rand.NewSource(3))
		var init []network.PointID
		for _, p := range rng.Perm(bk.g.NumPoints())[:k] {
			init = append(init, network.PointID(p))
		}
		s, err := core.NewMedoidSearch(ctx, bk.g, core.KMedoidsOptions{K: k}, init)
		if err != nil {
			t.Fatal(err)
		}
		fresh := make([]int32, bk.g.NumPoints())
		var accepted, rejected int
		for i := 1; i <= 40; i++ {
			ids, _ := s.Medoids()
			mi, cand := rng.Intn(k), network.PointID(rng.Intn(bk.g.NumPoints()))
			if i%2 == 0 {
				cand = ids[mi] + 1 // mostly a step along the medoid's own edge
			}
			if int(cand) == bk.g.NumPoints() || slices.Contains(ids, cand) {
				continue
			}
			groups := s.Stats().GroupsRead
			ok, err := s.Attempt(ctx, mi, cand)
			if err != nil {
				t.Fatal(err)
			}
			if groups = s.Stats().GroupsRead - groups; groups >= bk.g.NumGroups() {
				t.Fatalf("%s attempt %d: rescanned %d of %d groups", bk.name, i, groups, bk.g.NumGroups())
			}
			if ok {
				accepted++
			} else {
				rejected++
			}
			if !ok && bk.noAlloc && !raceEnabled {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				again, err := s.Attempt(ctx, mi, cand)
				runtime.ReadMemStats(&after)
				if err != nil || again {
					t.Fatalf("%s attempt %d: repeating a rejected attempt accepted it (%v)", bk.name, i, err)
				}
				if got := after.TotalAlloc - before.TotalAlloc; got != 0 {
					t.Fatalf("%s attempt %d: repeating a rejected attempt allocated %d bytes", bk.name, i, got)
				}
			}
			nodes, labels, _, r := s.State()
			_, infos := s.Medoids()
			var wantR float64
			if a, ok := bk.g.(nearestAssigner); ok {
				wantR, _ = a.AssignNearest(infos, nodes.Med, nodes.Dist, fresh)
			} else {
				var stats core.Stats
				if wantR, err = core.AssignPoints(bk.g, infos, nodes, fresh, &stats); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(labels, fresh) || math.Float64bits(r) != math.Float64bits(wantR) {
				t.Fatalf("%s attempt %d (accepted %v): R %v, a full scan gives %v (labels equal: %v)", bk.name, i, ok, r, wantR, reflect.DeepEqual(labels, fresh))
			}
		}
		if accepted == 0 || rejected == 0 {
			t.Fatalf("%s: %d accepted, %d rejected: an outcome was never exercised", bk.name, accepted, rejected)
		}
	}
}

// TestKMedoidsCancelled cancels k-medoids before it starts, inside the first
// expansions and a few swaps in, on every backend: each run ends in the
// wrapped ctx.Err() with no result and no goroutine left behind, and the
// backend — its pooled bucket queue and expansion state included — then
// serves the uncancelled result again.
func TestKMedoidsCancelled(t *testing.T) {
	g, err := testnet.Random(31, 1200, 300)
	if err != nil {
		t.Fatal(err)
	}
	for _, bk := range densityBackends(t, g, 4, true) {
		run := func(ctx context.Context, g network.Graph) (*core.KMedoidsResult, error) {
			return core.KMedoidsCtx(ctx, g, core.KMedoidsOptions{
				K: 4, Restarts: 4, Rand: rand.New(rand.NewSource(8)),
			})
		}
		want, err := run(context.Background(), bk.g)
		if err != nil {
			t.Fatal(err)
		}
		for _, at := range []int{0, 40, bk.g.NumNodes() + 40} {
			goroutines := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			wrapped, c := cancelWrap(bk.g, at, cancel)
			if at == 0 {
				cancel()
			}
			res, err := run(ctx, wrapped)
			cancel()
			if n := c.calls; n < int64(at) {
				t.Fatalf("%s: only %d adjacency reads, the cancel at %d never fired", bk.name, n, at)
			}
			if !errors.Is(err, context.Canceled) || res != nil {
				t.Fatalf("%s cancelled at read %d: got a result: %v, error %v; want no result and a context.Canceled chain",
					bk.name, at, res != nil, err)
			}
			for wait := 0; runtime.NumGoroutine() > goroutines; wait++ {
				if wait == 200 {
					t.Fatalf("%s cancelled at read %d: %d goroutines, %d before the run", bk.name, at, runtime.NumGoroutine(), goroutines)
				}
				time.Sleep(5 * time.Millisecond)
			}
			again, err := run(context.Background(), bk.g)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.Medoids, again.Medoids) || !reflect.DeepEqual(want.Labels, again.Labels) ||
				math.Float64bits(want.R) != math.Float64bits(again.R) || want.AttemptedSwaps != again.AttemptedSwaps {
				t.Fatalf("%s: the run after a cancel at read %d differs from the one before", bk.name, at)
			}
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
