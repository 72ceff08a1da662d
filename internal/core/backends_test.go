package core_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"netclus/internal/core"
	"netclus/internal/csr"
	"netclus/internal/delta"
	"netclus/internal/lbound"
	"netclus/internal/matrix"
	"netclus/internal/network"
	"netclus/internal/shard"
	"netclus/internal/storage"
	"netclus/internal/testnet"
)

// densityBackend is one graph family of the cross-backend table with the
// oracle's distance matrix over its content and, where the family has them,
// pruning bounds.
type densityBackend struct {
	name   string
	g      network.Graph
	dist   [][]float64
	bounds network.Bounder
	filter bool // bounds enumerate candidates: pruned runs must consult them
}

// densityBackends serves g from every backend: the pointer network itself,
// the disk store, the compiled snapshot, a set of shards scattered round-robin
// (every edge a cut edge) and a merged delta view after viewOps' mutation
// batch — whose content, and therefore oracle, differs from g's, and which
// has no bounds. euclid picks the Euclidean candidate filter (generated graphs);
// without it Candidates reports unsupported and the pruned runs cover the
// plain-expansion fallback (the hand-built shapes carry no embedding).
func densityBackends(t *testing.T, g *network.Network, shards int, euclid bool) []densityBackend {
	t.Helper()
	dist, err := matrix.PointDistances(g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := lbound.Build(g, lbound.Options{Landmarks: 2, EuclideanLB: euclid})
	if err != nil {
		t.Fatal(err)
	}
	sn, err := csr.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sopts := storage.Options{PageSize: 512, BufferBytes: 1 << 16}
	if err := storage.Build(dir, g, sopts); err != nil {
		t.Fatal(err)
	}
	st, err := storage.Open(dir, sopts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	assign := make([]int32, g.NumNodes())
	for n := range assign {
		assign[n] = int32(n % shards)
	}
	set, err := shard.Build(g, assign, shards)
	if err != nil {
		t.Fatal(err)
	}

	o, err := delta.New(sn, delta.Options{CompactOps: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)
	if _, err := o.Apply(context.Background(), viewOps(g)); err != nil {
		t.Fatal(err)
	}
	view := o.Current().Graph
	if view == network.Graph(sn) {
		t.Fatal("the mutated overlay still serves its base snapshot")
	}
	viewDist, err := matrix.PointDistances(view)
	if err != nil {
		t.Fatal(err)
	}
	return []densityBackend{
		{"network", g, dist, b, euclid},
		{"store", st, dist, b, euclid},
		{"snapshot", sn, dist, b, euclid},
		{fmt.Sprintf("%d-shards", shards), set, dist, b, euclid},
		{"delta-view", view, viewDist, nil, false},
	}
}

// viewOps is the delta-view row's mutation batch: an insert, a same-edge move
// and a delete, plus, where g has them, the two changes that make the view
// own a renumbered adjacency — every point of one group deleted, and an
// insert on an edge that carried none.
func viewOps(g *network.Network) []delta.Op {
	last := network.PointID(g.NumPoints() - 1)
	ops := []delta.Op{delta.InsertNear(0, 0.5, 1000), delta.MoveSame(last, 0.25), delta.Delete(last / 2)}
	var empty *network.PointGroup
	_ = g.ScanGroups(func(_ network.GroupID, pg network.PointGroup, _ []float64) error {
		hit := func(p network.PointID) bool { return p >= pg.First && p < pg.First+network.PointID(pg.Count) }
		if !hit(0) && !hit(last) && !hit(last/2) && (empty == nil || pg.Count < empty.Count) {
			empty = &pg
		}
		return nil
	})
	if empty != nil {
		for i := int32(0); i < empty.Count; i++ {
			ops = append(ops, delta.Delete(empty.First+network.PointID(i)))
		}
	}
	for u := 0; u < g.NumNodes(); u++ {
		nbs, _ := g.Neighbors(network.NodeID(u))
		for _, nb := range nbs {
			if nb.Group == network.NoGroup {
				return append(ops, delta.Insert(network.NodeID(u), nb.Node, nb.Weight/2, 1001))
			}
		}
	}
	return ops
}

// checkDensityBackend runs DBSCAN and ε-Link on bk at Workers 0, 1 and 4,
// pruned and unpruned, and demands the internal/matrix labels byte for byte.
func checkDensityBackend(t *testing.T, bk densityBackend, epss []float64, minPtss []int) {
	t.Helper()
	ctx := context.Background()
	n := bk.g.NumPoints()
	prunes := []network.Bounder{nil}
	if bk.bounds != nil {
		prunes = append(prunes, bk.bounds)
	}
	for _, eps := range epss {
		wantCnt := make([]int, n)
		for p := range wantCnt {
			for q := 0; q < n; q++ {
				if bk.dist[p][q] <= eps {
					wantCnt[p]++
				}
			}
		}
		for _, minPts := range minPtss {
			want := matrix.DBSCAN(bk.dist, eps, minPts)
			wantCore := make([]bool, n)
			for p, c := range wantCnt {
				wantCore[p] = c >= minPts
			}
			for _, prune := range prunes {
				for _, workers := range []int{0, 1, 4} {
					got, err := core.DBSCANCtx(ctx, bk.g, core.DBSCANOptions{Eps: eps, MinPts: minPts, Workers: workers, Prune: prune})
					if err != nil {
						t.Fatalf("%s eps=%v minPts=%d workers=%d pruned=%v: %v", bk.name, eps, minPts, workers, prune != nil, err)
					}
					if !reflect.DeepEqual(want, got.Labels) || !reflect.DeepEqual(wantCore, got.Core) {
						t.Fatalf("%s eps=%v minPts=%d workers=%d pruned=%v: DBSCAN diverged from the matrix oracle\nwant %v\ngot  %v",
							bk.name, eps, minPts, workers, prune != nil, want, got.Labels)
					}
					if prune != nil && bk.filter {
						// The bounder serves the flag queries, and there is one
						// exactly per point its edge window leaves short.
						short, err := matrix.FlagQueries(bk.g, eps, minPts, false)
						if err != nil {
							t.Fatal(err)
						}
						if q, c := got.Stats.RangeQueries, got.Stats.Prune.Candidates; q != short || (q > 0) != (c > 0) {
							t.Fatalf("%s eps=%v minPts=%d workers=%d: pruned DBSCAN issued %d range queries with %d bounder candidates, %d points are short on their edge",
								bk.name, eps, minPts, workers, q, c, short)
						}
					}
				}
			}
		}
		want := matrix.EpsComponents(bk.dist, eps, 1)
		for _, workers := range []int{0, 1, 4} {
			got, err := core.EpsLinkCtx(ctx, bk.g, core.EpsLinkOptions{Eps: eps, Workers: workers})
			if err != nil {
				t.Fatalf("%s eps=%v workers=%d: %v", bk.name, eps, workers, err)
			}
			if !reflect.DeepEqual(want, got.Labels) {
				t.Fatalf("%s eps=%v workers=%d: eps-Link diverged from the matrix components\nwant %v\ngot  %v",
					bk.name, eps, workers, want, got.Labels)
			}
		}
	}
}

// TestDensityBackendsMatchOracle is the one cross-backend table of the density
// labellers: every shared hand-built shape in every numbering, plus two
// generated graphs large enough for Workers 4 to really stripe the flag pass,
// on every backend × {pruned, unpruned where bounds exist} × Workers
// {0, 1, 4}, against the brute-force oracle.
func TestDensityBackendsMatchOracle(t *testing.T) {
	shapes, err := testnet.ShapeGraphs()
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range shapes {
		t.Run(name, func(t *testing.T) {
			for _, bk := range densityBackends(t, g, 4, false) {
				checkDensityBackend(t, bk, []float64{0.125, 0.5, 0.875, 1, 1.5, 2, 4}, []int{1, 2, 3, 4, 5})
			}
		})
	}
	random, err := testnet.Random(7, 40, 180)
	if err != nil {
		t.Fatal(err)
	}
	clustered, _, err := testnet.RandomClustered(11, 60, 240, 4)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*network.Network{"random": random, "clustered": clustered} {
		t.Run(name, func(t *testing.T) {
			for _, bk := range densityBackends(t, g, 4, true) {
				checkDensityBackend(t, bk, []float64{0.05, 0.15, 0.4, 1.2}, []int{1, 2, 3, 5, 9})
			}
		})
	}
}

// checkOPTICSBackends runs OPTICS at eps on every backend and demands one
// Order, Reach and CoreDist per content, byte for byte, and on every backend
// an ExtractDBSCAN at each ε' <= eps that agrees with the matrix DBSCAN at ε'
// by checkExtraction's rule.
func checkOPTICSBackends(t *testing.T, bks []densityBackend, eps float64, minPtss []int) {
	t.Helper()
	for _, minPts := range minPtss {
		ref := map[*float64]*core.OPTICSResult{}
		for _, bk := range bks {
			what := fmt.Sprintf("%s eps=%v minPts=%d", bk.name, eps, minPts)
			got, err := core.OPTICS(bk.g, core.OPTICSOptions{Eps: eps, MinPts: minPts})
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			key := &bk.dist[0][0]
			if first, ok := ref[key]; !ok {
				ref[key] = got
			} else if !reflect.DeepEqual(first.Order, got.Order) || !reflect.DeepEqual(first.Reach, got.Reach) || !reflect.DeepEqual(first.CoreDist, got.CoreDist) {
				t.Fatalf("%s: ordering differs from the first backend serving this content\nfirst %v %v\ngot   %v %v", what, first.Order, first.Reach, got.Order, got.Reach)
			}
			n := bk.g.NumPoints()
			for _, epsPrime := range []float64{eps, 0.6 * eps, 0.3 * eps} {
				isCore := make([]bool, n)
				for p := range isCore {
					isCore[p] = !math.IsInf(bruteCoreDist(bk.dist, p, epsPrime, minPts), 1)
				}
				checkExtraction(t, fmt.Sprintf("%s eps'=%v", what, epsPrime), got.ExtractDBSCAN(epsPrime), matrix.DBSCAN(bk.dist, epsPrime, minPts), isCore)
			}
		}
	}
}

// TestOPTICSBackendsMatchOracle is the cross-backend table of OPTICS: the
// density shapes in every numbering and two generated graphs, on every
// backend, against the first backend's ordering and the matrix DBSCAN.
func TestOPTICSBackendsMatchOracle(t *testing.T) {
	shapes, err := testnet.ShapeGraphs()
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range shapes {
		t.Run(name, func(t *testing.T) {
			checkOPTICSBackends(t, densityBackends(t, g, 4, false), 4, []int{1, 2, 3, 5})
		})
	}
	random, err := testnet.Random(7, 40, 180)
	if err != nil {
		t.Fatal(err)
	}
	clustered, _, err := testnet.RandomClustered(11, 60, 240, 4)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*network.Network{"random": random, "clustered": clustered} {
		t.Run(name, func(t *testing.T) {
			checkOPTICSBackends(t, densityBackends(t, g, 4, true), 1.2, []int{2, 3, 5})
		})
	}
}

// queryOutcome is what every backend serving one content must answer alike
// for one point: its kNN lists at each k and its ε-ranges with distances.
type queryOutcome struct {
	KNN   [][]network.PointDist
	Range [][]network.PointDist
}

// checkQueryBackends runs kNN at every k and ε-range at every eps from every
// point on every backend × {unpruned, pruned where it has bounds} and demands
// one answer per content, byte for byte, that the brute-force matrix confirms:
// the k nearest other points in (Dist, Point) order, and exactly the points
// within eps (p included), their distances within 1e-9 of the oracle's. The
// ID-only range, which a Bounder does prune, must return the same point set.
func checkQueryBackends(t *testing.T, bks []densityBackend, ks []int, epss []float64) {
	t.Helper()
	ctx := context.Background()
	const tol = 1e-9
	ref := map[*float64]queryOutcome{}
	for _, bk := range bks {
		n := bk.g.NumPoints()
		prunes := []network.Bounder{nil}
		if bk.bounds != nil {
			prunes = append(prunes, bk.bounds)
		}
		for _, prune := range prunes {
			sc := network.ScratchFor(bk.g)
			sc.SetBounder(prune)
			var ps network.PruneStats
			for p := 0; p < n; p++ {
				what := fmt.Sprintf("%s p=%d pruned=%v", bk.name, p, prune != nil)
				var byDist []network.PointDist
				for q, d := range bk.dist[p] {
					if q != p && !math.IsInf(d, 1) {
						byDist = append(byDist, network.PointDist{Point: network.PointID(q), Dist: d})
					}
				}
				network.SortPointDists(byDist)
				var got queryOutcome
				for _, k := range ks {
					nn, err := network.KNearestNeighborsPrunedCtx(ctx, bk.g, prune, network.PointID(p), k, &ps)
					if err != nil {
						t.Fatalf("%s k=%d: %v", what, k, err)
					}
					if len(nn) != min(k, len(byDist)) {
						t.Fatalf("%s k=%d: %d neighbours, the matrix has %d reachable", what, k, len(nn), len(byDist))
					}
					seen := map[network.PointID]bool{}
					for i, pd := range nn {
						if seen[pd.Point] || math.Abs(pd.Dist-byDist[i].Dist) > tol || math.Abs(bk.dist[p][pd.Point]-pd.Dist) > tol {
							t.Fatalf("%s k=%d: neighbour %d is %+v, the matrix ranks %+v there", what, k, i, pd, byDist[i])
						}
						seen[pd.Point] = true
					}
					got.KNN = append(got.KNN, nn)
				}
				for _, eps := range epss {
					rd, err := sc.RangeQueryDistCtx(ctx, bk.g, network.PointID(p), eps)
					if err != nil {
						t.Fatalf("%s eps=%v: %v", what, eps, err)
					}
					rd = slices.Clone(rd)
					ids, err := sc.RangeQueryCtx(ctx, bk.g, network.PointID(p), eps)
					if err != nil {
						t.Fatalf("%s eps=%v: %v", what, eps, err)
					}
					var want, fromDist []network.PointID
					for q, d := range bk.dist[p] {
						if d <= eps {
							want = append(want, network.PointID(q))
						}
					}
					for _, pd := range rd {
						if math.Abs(bk.dist[p][pd.Point]-pd.Dist) > tol {
							t.Fatalf("%s eps=%v: point %d at %v, the matrix gives %v", what, eps, pd.Point, pd.Dist, bk.dist[p][pd.Point])
						}
						fromDist = append(fromDist, pd.Point)
					}
					slices.Sort(fromDist)
					ids = slices.Clone(ids)
					slices.Sort(ids)
					if !slices.Equal(want, fromDist) || !slices.Equal(want, ids) {
						t.Fatalf("%s eps=%v: range diverged from the matrix\nwant  %v\ndists %v\nids   %v", what, eps, want, fromDist, ids)
					}
					got.Range = append(got.Range, rd)
				}
				key := &bk.dist[p][0]
				if first, ok := ref[key]; !ok {
					ref[key] = got
				} else if !reflect.DeepEqual(first, got) {
					t.Fatalf("%s: differs from the first backend serving this content\nfirst %+v\ngot   %+v", what, first, got)
				}
			}
			if prune != nil && bk.filter && (ps.Candidates == 0 || sc.PruneStats().Candidates == 0) {
				t.Fatalf("%s: pruned kNN or range never used the bounder (%+v, %+v)", bk.name, ps, sc.PruneStats())
			}
		}
	}
}

// TestQueryBackendsMatchOracle is the cross-backend table of the two point
// queries, kNN (k = 1, 10 and more than there are points) and ε-range with
// distances: the density and tie shapes in every numbering and two generated
// graphs with Euclidean bounds, on every backend × {unpruned, pruned where
// bounds exist}, against the brute-force matrix.
func TestQueryBackendsMatchOracle(t *testing.T) {
	shapes, err := testnet.ShapeGraphs(testnet.TieShapes...)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range shapes {
		t.Run(name, func(t *testing.T) {
			checkQueryBackends(t, densityBackends(t, g, 4, false), []int{1, 10, g.NumPoints() + 1}, []float64{0.125, 0.5, 1, 4})
		})
	}
	random, err := testnet.Random(7, 40, 180)
	if err != nil {
		t.Fatal(err)
	}
	clustered, _, err := testnet.RandomClustered(11, 60, 240, 4)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*network.Network{"random": random, "clustered": clustered} {
		t.Run(name, func(t *testing.T) {
			checkQueryBackends(t, densityBackends(t, g, 4, true), []int{1, 10, g.NumPoints() + 1}, []float64{0.05, 0.15, 0.4})
		})
	}
}

// checkSingleLinkBackends runs Single-Link on every backend at δ = 0, δ > 0
// and StopAtClusters = 3 and demands the brute-force dendrogram: heights
// within 1e-9 of matrix.SingleLink (above δ, where the heuristic promises
// them), the partitions at several cuts, one cluster per network component at
// the end — and merge sequences bit-identical between backends serving the
// same content (the delta view is paired with its own compilation).
func checkSingleLinkBackends(t *testing.T, bks []densityBackend, delta float64) {
	t.Helper()
	view := bks[len(bks)-1]
	compiled, err := csr.Compile(view.g)
	if err != nil {
		t.Fatal(err)
	}
	bks = append(bks, densityBackend{name: "compiled-view", g: compiled, dist: view.dist})
	ref := map[*float64][3][]core.MergeStep{}
	for _, bk := range bks {
		n := bk.g.NumPoints()
		want := matrix.SingleLink(bk.dist)
		comps := n - len(want)
		var runs [3][]core.MergeStep
		for i, opts := range []core.SingleLinkOptions{{}, {Delta: delta}, {StopAtClusters: 3}} {
			what := fmt.Sprintf("%s %+v", bk.name, opts)
			res, err := core.SingleLinkCtx(context.Background(), bk.g, opts)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			runs[i] = res.Dendrogram.Merges
			if res.Stats.GroupsRead != bk.g.NumGroups() || res.Stats.NodesSettled == 0 || res.Stats.EdgesVisited == 0 || res.Stats.HeapPushes == 0 {
				t.Fatalf("%s: stats %+v on %d groups", what, res.Stats, bk.g.NumGroups())
			}
			if wantFinal := max(comps, opts.StopAtClusters); res.FinalClusters != wantFinal || len(runs[i]) != n-wantFinal {
				t.Fatalf("%s: %d merges to %d clusters, want %d to %d", what, len(runs[i]), res.FinalClusters, n-wantFinal, wantFinal)
			}
			if opts.StopAtClusters > 0 {
				if !reflect.DeepEqual(runs[i], runs[0][:len(runs[i])]) {
					t.Fatalf("%s: not a prefix of the full run\nfull %v\ngot  %v", what, runs[0], runs[i])
				}
				continue
			}
			pre := res.Dendrogram.PreMerges
			if (pre > 0) != hasGapWithin(t, bk.g, opts.Delta) {
				t.Fatalf("%s: %d pre-merges", what, pre)
			}
			for j, m := range runs[i] {
				switch {
				case j < pre && m.Dist > opts.Delta:
					t.Fatalf("%s: pre-merge %d at %v", what, j, m.Dist)
				case j > pre && m.Dist < runs[i][j-1].Dist:
					t.Fatalf("%s: merge %d at %v after one at %v", what, j, m.Dist, runs[i][j-1].Dist)
				}
				if w := want[j].Dist; w > opts.Delta && math.Abs(m.Dist-w) > 1e-9 {
					t.Fatalf("%s: merge %d at %v, brute force %v", what, j, m.Dist, w)
				}
			}
			for _, frac := range []float64{0.25, 0.5, 0.75, 0.9} {
				if cut := want[int(frac*float64(len(want)-1))].Dist + 1e-12; cut >= opts.Delta {
					samePartition(t, cutBrute(want, n, cut), res.Dendrogram.LabelsAtDistance(cut), fmt.Sprintf("%s cut at %v", what, cut))
				}
			}
		}
		if first, ok := ref[&bk.dist[0][0]]; !ok {
			ref[&bk.dist[0][0]] = runs
		} else if !reflect.DeepEqual(first, runs) {
			t.Fatalf("%s: merges differ from the first backend serving this content\nfirst %v\ngot   %v", bk.name, first, runs)
		}
	}
}

// hasGapWithin reports whether two consecutive points of one group are at
// most delta apart — whether the δ heuristic has anything to pre-merge.
func hasGapWithin(t *testing.T, g network.Graph, delta float64) bool {
	t.Helper()
	found := false
	err := g.ScanGroups(func(_ network.GroupID, _ network.PointGroup, offsets []float64) error {
		for i := 1; i < len(offsets); i++ {
			found = found || offsets[i]-offsets[i-1] <= delta
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return found
}

// TestSingleLinkMatchesBruteForce is the cross-backend table of Single-Link:
// the density shapes (one of them disconnected) and the tie shapes in every
// numbering, plus twelve generated graphs, on every backend.
func TestSingleLinkMatchesBruteForce(t *testing.T) {
	shapes, err := testnet.ShapeGraphs(testnet.TieShapes...)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range shapes {
		t.Run(name, func(t *testing.T) {
			bks := densityBackends(t, g, 4, false)
			if strings.HasPrefix(name, "disconnected") && len(matrix.SingleLink(bks[0].dist)) > g.NumPoints()-2 {
				t.Fatal("the disconnected shape is connected")
			}
			checkSingleLinkBackends(t, bks, 0.25)
		})
	}
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g, err := testnet.Random(seed, 32, 45)
			if err != nil {
				t.Fatal(err)
			}
			checkSingleLinkBackends(t, densityBackends(t, g, 4, true), 0.1)
		})
	}
}

// kmedoidsOutcome is everything of a k-medoids run that every backend, pruned
// or not, incremental or recomputing, must reproduce for the same Rand.
type kmedoidsOutcome struct {
	Medoids             []network.PointID
	Labels              []int32
	RBits               uint64
	Iterations          int
	Attempted, Accepted int
}

// checkKMedoidsBackends runs k-medoids on every backend × {unpruned, pruned}
// × {incremental, Recompute} and demands one outcome per content — medoids,
// labels, R bit for bit, the swap counts — whose R and labels are the
// brute-force assignment of the final medoid set. The delta view is joined by
// its own compilation, and both prune with landmark bounds built over that
// (a view carries no embedding).
func checkKMedoidsBackends(t *testing.T, bks []densityBackend, ks []int) {
	t.Helper()
	view := &bks[len(bks)-1]
	compiled, err := csr.Compile(view.g)
	if err != nil {
		t.Fatal(err)
	}
	if view.bounds, err = lbound.Build(compiled, lbound.Options{Landmarks: 2}); err != nil {
		t.Fatal(err)
	}
	bks = append(bks, densityBackend{name: "compiled-view", g: compiled, dist: view.dist, bounds: view.bounds})
	for _, k := range ks {
		ref := map[*float64]kmedoidsOutcome{}
		for _, bk := range bks {
			for _, prune := range []network.Bounder{nil, bk.bounds} {
				for _, recompute := range []bool{false, true} {
					what := fmt.Sprintf("%s K=%d pruned=%v recompute=%v", bk.name, k, prune != nil, recompute)
					res, err := core.KMedoidsCtx(context.Background(), bk.g, core.KMedoidsOptions{
						K: k, Recompute: recompute, Prune: prune, Rand: rand.New(rand.NewSource(int64(17 * k))),
					})
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					if bk.filter && prune != nil && !res.Stats.Prune.Fired() {
						t.Fatalf("%s: the medoid pruner never fired: %+v", what, res.Stats.Prune)
					}
					got := kmedoidsOutcome{res.Medoids, res.Labels, math.Float64bits(res.R), res.Iterations, res.AttemptedSwaps, res.AcceptedSwaps}
					if first, ok := ref[&bk.dist[0][0]]; ok {
						if !reflect.DeepEqual(first, got) {
							t.Fatalf("%s: differs from the first run on this content\nfirst %+v\ngot   %+v", what, first, got)
						}
						continue
					}
					ref[&bk.dist[0][0]] = got
					// The first run on a content is checked against the oracle.
					var wantR float64
					for p, row := range bk.dist {
						best := network.Inf
						for _, m := range res.Medoids {
							best = math.Min(best, row[m])
						}
						switch l := res.Labels[p]; {
						case math.IsInf(best, 1) != (l == core.Noise):
							t.Fatalf("%s: point %d labelled %d at oracle distance %v", what, p, l, best)
						case l != core.Noise && math.Abs(row[res.Medoids[l]]-best) > 1e-9:
							t.Fatalf("%s: point %d assigned to medoid %d at %v, the nearest is at %v", what, p, l, row[res.Medoids[l]], best)
						case l != core.Noise:
							wantR += best
						}
					}
					if math.Abs(res.R-wantR) > 1e-9 {
						t.Fatalf("%s: R = %v, the matrix gives %v for medoids %v", what, res.R, wantR, res.Medoids)
					}
				}
			}
		}
	}
}

// TestKMedoidsBackendsAgree is the cross-backend table of k-medoids: the
// density and tie shapes in every numbering (exact ties between medoids at
// nodes and along edges, one shape disconnected, landmark-only bounds) and three
// generated graphs with Euclidean bounds, on six backends × {unpruned,
// pruned} × {incremental, Recompute}. It is the home of what
// TestKMedoidsPrunedEquivalence (plain ≡ pruned on the pointer network, with
// and without an embedding, pruner fired) and the k-medoids tail of csr's
// TestClusteringPrunedByteIdentical used to assert.
func TestKMedoidsBackendsAgree(t *testing.T) {
	shapes, err := testnet.ShapeGraphs(testnet.TieShapes...)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range shapes {
		t.Run(name, func(t *testing.T) {
			checkKMedoidsBackends(t, densityBackends(t, g, 4, false), []int{1, 2, 3})
		})
	}
	random, err := testnet.Random(7, 40, 180)
	if err != nil {
		t.Fatal(err)
	}
	clustered, _, err := testnet.RandomClustered(11, 60, 240, 4)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*network.Network{"random": random, "clustered": clustered} {
		t.Run(name, func(t *testing.T) {
			checkKMedoidsBackends(t, densityBackends(t, g, 4, true), []int{4, 9})
		})
	}
	// On this graph a landmark upper bound rounds one ulp below a node's true
	// distance: before the medoid pruner's relative slack, the pruned run at
	// K = 8 left that node unassigned and moved two labels and R. The
	// expansion's tentative-distance filter leaves the pruner nothing else to
	// prune at K = 8, so the case runs at K = 10, where the pruner fires on
	// every backend and a run without the slack still diverges (delta view).
	ulpTie, err := testnet.Random(7, 60, 200)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("ulp-tie", func(t *testing.T) {
		checkKMedoidsBackends(t, densityBackends(t, ulpTie, 4, true), []int{3, 10})
	})
}

// edgeWindowNetwork is a chain of straight and 3-4-5 diagonal edges (weights
// equal to their Euclidean lengths, so the candidate filter applies) whose
// point groups aim at the flag pass's edge windows: gaps of exactly 0.5 and
// of 0.5 ± 1 ulp, duplicate offsets, multiples of 0.1 and 0.2 whose gaps
// round either way, a 24-point group that straddles a Workers 4 stripe
// boundary, groups of 1…6 points, and one point-free edge.
func edgeWindowNetwork(t *testing.T) *network.Network {
	t.Helper()
	down, up := math.Nextafter(0.5, 0), math.Nextafter(0.5, 1)
	cumulative := func(start float64, gaps ...float64) []float64 {
		out := []float64{start}
		for _, d := range gaps {
			out = append(out, out[len(out)-1]+d)
		}
		return out
	}
	multiples := func(step float64, k int) []float64 {
		var out []float64
		for i := 1; i <= k; i++ {
			out = append(out, float64(i)*step)
		}
		return out
	}
	groups := [][]float64{
		{0.5, 1, 1.5, 2, 2, 2, 2.5, 3},
		multiples(0.1, 9),
		cumulative(0.25, 0.5, down, up, 0.5, up, down),
		multiples(0.2, 24),
	}
	for k := 1; k <= 6; k++ {
		groups = append(groups, multiples(0.5, k))
	}
	b := network.NewBuilder()
	at := network.Coord{}
	prev := b.AddNode(at)
	for i := 0; i <= len(groups); i++ {
		w := 4.0
		if i%2 == 1 {
			at.X, at.Y, w = at.X+3, at.Y+4, 5
		} else {
			at.X += 4
		}
		next := b.AddNode(at)
		b.AddEdge(prev, next, w)
		if i < len(groups) {
			for _, pos := range groups[i] {
				b.AddPoint(prev, next, pos, int32(i))
			}
		}
		prev = next
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestDBSCANCoreMatchesRangeQueries holds every core flag, however the flag
// pass settles it — by its edge window or by a range query — to the public
// query API: Core[p] is len(RangeQueryLimitCtx(p, eps, MinPts)) >= MinPts,
// asked point by point through a fresh scratch, on every backend × {unpruned,
// pruned where bounds exist} × Workers {0, 1, 4}, on edgeWindowNetwork at
// radii on and one ulp either side of its gaps. The windows must also settle
// every point their relation allows: Stats.RangeQueries is
// matrix.FlagQueries' count.
func TestDBSCANCoreMatchesRangeQueries(t *testing.T) {
	ctx := context.Background()
	g := edgeWindowNetwork(t)
	epss := []float64{0.1, 0.2, 0.25, math.Nextafter(0.5, 0), 0.5, math.Nextafter(0.5, 1), 1, 1.5}
	for _, bk := range densityBackends(t, g, 4, true) {
		n := bk.g.NumPoints()
		prunes := []network.Bounder{nil}
		if bk.bounds != nil {
			prunes = append(prunes, bk.bounds)
		}
		for _, prune := range prunes {
			flat := prune == nil && (bk.name == "snapshot" || bk.name == "delta-view")
			for _, eps := range epss {
				for _, minPts := range []int{1, 2, 3, 4, 5, 7} {
					short, err := matrix.FlagQueries(bk.g, eps, minPts, flat)
					if err != nil {
						t.Fatal(err)
					}
					want := make([]bool, n)
					for p := range want {
						sc := network.ScratchFor(bk.g)
						sc.SetBounder(prune)
						nb, err := sc.RangeQueryLimitCtx(ctx, bk.g, network.PointID(p), eps, minPts)
						if err != nil {
							t.Fatal(err)
						}
						want[p] = len(nb) >= minPts
					}
					for _, workers := range []int{0, 1, 4} {
						got, err := core.DBSCANCtx(ctx, bk.g, core.DBSCANOptions{Eps: eps, MinPts: minPts, Workers: workers, Prune: prune})
						if err != nil {
							t.Fatal(err)
						}
						for p := range want {
							if want[p] != got.Core[p] {
								t.Fatalf("%s eps=%v minPts=%d workers=%d pruned=%v: point %d core %v, its range query says %v",
									bk.name, eps, minPts, workers, prune != nil, p, got.Core[p], want[p])
							}
						}
						if got.Stats.RangeQueries != short {
							t.Fatalf("%s eps=%v minPts=%d workers=%d pruned=%v: %d range queries, %d points are short on their edge",
								bk.name, eps, minPts, workers, prune != nil, got.Stats.RangeQueries, short)
						}
					}
				}
			}
		}
	}
}
