// Equivalence suite for the compiled CSR kernel: every query and every
// clustering algorithm must produce byte-identical results on a Snapshot —
// whether compiled from the in-memory Network or from the disk Store — as on
// the original pointer-based graph, with and without coordinates, with and
// without lower-bound pruning.
package csr_test

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"netclus/internal/core"
	"netclus/internal/csr"
	"netclus/internal/lbound"
	"netclus/internal/network"
	"netclus/internal/storage"
	"netclus/internal/testnet"
)

// instances returns the graph zoo the suite runs over: random sparse
// road-like networks (with coords), a clustered instance, and a line graph
// with unit edge weights whose equidistant points exercise tie handling.
func instances(t *testing.T) map[string]*network.Network {
	t.Helper()
	out := make(map[string]*network.Network)
	g, err := testnet.Random(7, 40, 90)
	if err != nil {
		t.Fatalf("Random: %v", err)
	}
	out["random"] = g
	g, _, err = testnet.RandomClustered(11, 60, 120, 4)
	if err != nil {
		t.Fatalf("RandomClustered: %v", err)
	}
	out["clustered"] = g
	g, err = testnet.Line(40, 0.5)
	if err != nil {
		t.Fatalf("Line: %v", err)
	}
	out["line"] = g
	return out
}

func compile(t *testing.T, g network.Graph) *csr.Snapshot {
	t.Helper()
	sn, err := csr.Compile(g)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return sn
}

// storeCompile round-trips the network through the disk Store and compiles
// the snapshot from the store's Graph surface (no coords on that path).
func storeCompile(t *testing.T, n *network.Network) *csr.Snapshot {
	t.Helper()
	dir := t.TempDir()
	opts := storage.Options{PageSize: 512, BufferBytes: 1 << 16}
	if err := storage.Build(dir, n, opts); err != nil {
		t.Fatalf("storage.Build: %v", err)
	}
	st, err := storage.Open(dir, opts)
	if err != nil {
		t.Fatalf("storage.Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return compile(t, st)
}

// TestSnapshotGraphSurface checks the Snapshot's Graph implementation
// matches the source Network record for record.
func TestSnapshotGraphSurface(t *testing.T) {
	for name, g := range instances(t) {
		t.Run(name, func(t *testing.T) {
			sn := compile(t, g)
			st := sn.Stats()
			if st.Nodes != g.NumNodes() || st.Edges != g.NumEdges() ||
				st.Points != g.NumPoints() || st.Groups != g.NumGroups() {
				t.Fatalf("stats %+v != network (%d nodes, %d edges, %d points, %d groups)",
					st, g.NumNodes(), g.NumEdges(), g.NumPoints(), g.NumGroups())
			}
			if st.ResidentBytes <= 0 || st.CompileTime < 0 {
				t.Fatalf("implausible stats: %+v", st)
			}
			if sn.NumNodes() != g.NumNodes() || sn.NumEdges() != g.NumEdges() ||
				sn.NumPoints() != g.NumPoints() || sn.NumGroups() != g.NumGroups() {
				t.Fatal("Graph cardinalities disagree")
			}
			for v := 0; v < g.NumNodes(); v++ {
				want, err := g.Neighbors(network.NodeID(v))
				if err != nil {
					t.Fatal(err)
				}
				got, err := sn.Neighbors(network.NodeID(v))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(append([]network.Neighbor{}, want...), append([]network.Neighbor{}, got...)) {
					t.Fatalf("node %d adjacency: want %v, got %v", v, want, got)
				}
			}
			for gi := 0; gi < g.NumGroups(); gi++ {
				wantG, err := g.Group(network.GroupID(gi))
				if err != nil {
					t.Fatal(err)
				}
				gotG, err := sn.Group(network.GroupID(gi))
				if err != nil {
					t.Fatal(err)
				}
				if wantG != gotG {
					t.Fatalf("group %d: want %+v, got %+v", gi, wantG, gotG)
				}
				wantOff, _ := g.GroupOffsets(network.GroupID(gi))
				gotOff, _ := sn.GroupOffsets(network.GroupID(gi))
				if !reflect.DeepEqual(append([]float64{}, wantOff...), append([]float64{}, gotOff...)) {
					t.Fatalf("group %d offsets differ", gi)
				}
			}
			for p := 0; p < g.NumPoints(); p++ {
				want, err := g.PointInfo(network.PointID(p))
				if err != nil {
					t.Fatal(err)
				}
				got, err := sn.PointInfo(network.PointID(p))
				if err != nil {
					t.Fatal(err)
				}
				if want != got {
					t.Fatalf("point %d: want %+v, got %+v", p, want, got)
				}
				if g.Tag(network.PointID(p)) != sn.Tag(network.PointID(p)) {
					t.Fatalf("point %d tag differs", p)
				}
			}
			if sn.HasCoords() != g.HasCoords() {
				t.Fatalf("HasCoords: snapshot %v, network %v", sn.HasCoords(), g.HasCoords())
			}
			for v := 0; v < g.NumNodes() && sn.HasCoords(); v++ {
				if sn.Coord(network.NodeID(v)) != g.Coord(network.NodeID(v)) {
					t.Fatalf("node %d coord differs", v)
				}
			}
		})
	}
}

// TestStoreSnapshotDropsCoords pins the documented asymmetry: the Store
// carries no planar embedding, so a store-compiled snapshot reports
// HasCoords() == false and falls back to landmark-only bounds.
func TestStoreSnapshotDropsCoords(t *testing.T) {
	g, err := testnet.Random(7, 40, 90)
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasCoords() {
		t.Fatal("generator should embed nodes")
	}
	sn := storeCompile(t, g)
	if sn.HasCoords() {
		t.Fatal("store-compiled snapshot must not claim coords")
	}
	if _, err := lbound.Build(sn, lbound.Options{EuclideanLB: true}); err == nil {
		t.Fatal("Euclidean bounds over a coordless snapshot should fail")
	}
	if _, err := lbound.Build(sn, lbound.Options{Landmarks: 2}); err != nil {
		t.Fatalf("landmark bounds should still build: %v", err)
	}
}

func sortedIDs(ids []network.PointID) []network.PointID {
	out := append([]network.PointID{}, ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestRangeEquivalence compares kernel ε-range queries (plain and pruned,
// from memory- and store-compiled snapshots) against the generic scratch on
// the pointer Network: identical ID sets, bit-identical canonical distances.
func TestRangeEquivalence(t *testing.T) {
	ctx := context.Background()
	for name, g := range instances(t) {
		t.Run(name, func(t *testing.T) {
			sn := compile(t, g)
			ssn := storeCompile(t, g)
			ref := network.NewRangeScratch(g)
			scratches := map[string]network.RangeQuerier{
				"mem":   sn.NewRangeScratch(),
				"store": ssn.NewRangeScratch(),
			}
			graphs := map[string]network.Graph{"mem": sn, "store": ssn}
			if g.HasCoords() {
				b, err := lbound.Build(sn, lbound.Options{Landmarks: 4, EuclideanLB: true})
				if err != nil {
					t.Fatalf("lbound.Build: %v", err)
				}
				pruned := sn.NewRangeScratch()
				pruned.SetBounder(b)
				scratches["pruned"] = pruned
				graphs["pruned"] = sn
			}
			for p := 0; p < g.NumPoints(); p += 3 {
				for _, eps := range []float64{0.25, 1.0, 3.5} {
					want, err := ref.RangeQueryCtx(ctx, g, network.PointID(p), eps)
					if err != nil {
						t.Fatal(err)
					}
					wantIDs := sortedIDs(want)
					wantD, err := ref.RangeQueryDistCtx(ctx, g, network.PointID(p), eps)
					if err != nil {
						t.Fatal(err)
					}
					wantD = append([]network.PointDist{}, wantD...)
					for sname, sc := range scratches {
						got, err := sc.RangeQueryCtx(ctx, graphs[sname], network.PointID(p), eps)
						if err != nil {
							t.Fatalf("%s: %v", sname, err)
						}
						if !reflect.DeepEqual(wantIDs, sortedIDs(got)) {
							t.Fatalf("%s p=%d eps=%v: sets differ\nwant %v\ngot  %v", sname, p, eps, wantIDs, sortedIDs(got))
						}
						gotD, err := sc.RangeQueryDistCtx(ctx, graphs[sname], network.PointID(p), eps)
						if err != nil {
							t.Fatalf("%s: %v", sname, err)
						}
						if !reflect.DeepEqual(wantD, append([]network.PointDist{}, gotD...)) {
							t.Fatalf("%s p=%d eps=%v: distances differ\nwant %v\ngot  %v", sname, p, eps, wantD, gotD)
						}
					}
				}
			}
			if ps, ok := scratches["pruned"]; ok {
				if ps.PruneStats().Candidates == 0 {
					t.Fatal("pruned scratch never exercised the filter-and-refine path")
				}
			}
		})
	}
}

// TestKNNEquivalence compares the kernel k-NN (dispatched through
// network.KNearestNeighborsCtx on the snapshot) against the generic
// expansion on the Network, including k larger than the point count.
func TestKNNEquivalence(t *testing.T) {
	ctx := context.Background()
	for name, g := range instances(t) {
		t.Run(name, func(t *testing.T) {
			sn := compile(t, g)
			ssn := storeCompile(t, g)
			for p := 0; p < g.NumPoints(); p += 5 {
				for _, k := range []int{1, 3, 10, g.NumPoints() + 5} {
					want, err := network.KNearestNeighborsCtx(ctx, g, network.PointID(p), k)
					if err != nil {
						t.Fatal(err)
					}
					for sname, s := range map[string]network.Graph{"mem": sn, "store": ssn} {
						got, err := network.KNearestNeighborsCtx(ctx, s, network.PointID(p), k)
						if err != nil {
							t.Fatalf("%s: %v", sname, err)
						}
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("%s p=%d k=%d:\nwant %v\ngot  %v", sname, p, k, want, got)
						}
					}
				}
			}
		})
	}
}

// TestRangeEachMatchesSequential checks the batched multi-source mode
// returns, per point, exactly the kernel's sequential result.
func TestRangeEachMatchesSequential(t *testing.T) {
	ctx := context.Background()
	g, err := testnet.Random(13, 50, 150)
	if err != nil {
		t.Fatal(err)
	}
	sn := compile(t, g)
	sc := sn.NewRangeScratch()
	const eps = 1.5
	pts := make([]network.PointID, g.NumPoints())
	want := make(map[network.PointID][]network.PointDist)
	for p := range pts {
		pts[p] = network.PointID(p)
		d, err := sc.RangeQueryDistCtx(ctx, sn, network.PointID(p), eps)
		if err != nil {
			t.Fatal(err)
		}
		want[network.PointID(p)] = append([]network.PointDist{}, d...)
	}
	for _, workers := range []int{1, 4} {
		got := make(map[network.PointID][]network.PointDist)
		seen := make(map[int]bool)
		var mu sync.Mutex
		err := sn.RangeEach(ctx, pts, eps, workers, func(i int, p network.PointID, res []network.PointID, dists []float64) error {
			pd := make([]network.PointDist, len(res))
			for j := range res {
				pd[j] = network.PointDist{Point: res[j], Dist: dists[j]}
			}
			network.SortPointDists(pd)
			mu.Lock()
			defer mu.Unlock()
			if seen[i] {
				return fmt.Errorf("index %d visited twice", i)
			}
			seen[i] = true
			got[p] = pd
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(seen) != len(pts) {
			t.Fatalf("workers=%d: visited %d of %d points", workers, len(seen), len(pts))
		}
		for p, w := range want {
			if !reflect.DeepEqual(w, got[p]) {
				t.Fatalf("workers=%d p=%d:\nwant %v\ngot  %v", workers, p, w, got[p])
			}
		}
	}
}

// TestClusteringByteIdentical runs all five clustering algorithms on the
// pointer Network, the memory-compiled snapshot and the store-compiled
// snapshot, and requires byte-identical labels, orders and distances.
func TestClusteringByteIdentical(t *testing.T) {
	ctx := context.Background()
	for name, g := range instances(t) {
		t.Run(name, func(t *testing.T) {
			backends := map[string]network.Graph{
				"net":   g,
				"mem":   compile(t, g),
				"store": storeCompile(t, g),
			}
			run := func(what string, f func(network.Graph) (any, error)) {
				t.Helper()
				want, err := f(backends["net"])
				if err != nil {
					t.Fatalf("%s on net: %v", what, err)
				}
				for _, bk := range []string{"mem", "store"} {
					got, err := f(backends[bk])
					if err != nil {
						t.Fatalf("%s on %s: %v", what, bk, err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("%s: %s differs from net\nwant %+v\ngot  %+v", what, bk, want, got)
					}
				}
			}

			run("EpsLink", func(b network.Graph) (any, error) {
				r, err := core.EpsLinkCtx(ctx, b, core.EpsLinkOptions{Eps: 1.2, MinSup: 2})
				if err != nil {
					return nil, err
				}
				return [2]any{r.Labels, r.NumClusters}, nil
			})
			run("EpsLink/parallel", func(b network.Graph) (any, error) {
				r, err := core.EpsLinkCtx(ctx, b, core.EpsLinkOptions{Eps: 1.2, MinSup: 2, Workers: 4})
				if err != nil {
					return nil, err
				}
				return [2]any{r.Labels, r.NumClusters}, nil
			})
			run("DBSCAN", func(b network.Graph) (any, error) {
				r, err := core.DBSCANCtx(ctx, b, core.DBSCANOptions{Eps: 1.2, MinPts: 3})
				if err != nil {
					return nil, err
				}
				return [3]any{r.Labels, r.Core, r.NumClusters}, nil
			})
			run("DBSCAN/parallel", func(b network.Graph) (any, error) {
				r, err := core.DBSCANCtx(ctx, b, core.DBSCANOptions{Eps: 1.2, MinPts: 3, Workers: 4})
				if err != nil {
					return nil, err
				}
				return [3]any{r.Labels, r.Core, r.NumClusters}, nil
			})
			run("OPTICS", func(b network.Graph) (any, error) {
				r, err := core.OPTICSCtx(ctx, b, core.OPTICSOptions{Eps: 2.0, MinPts: 3})
				if err != nil {
					return nil, err
				}
				return [3]any{r.Order, r.Reach, r.CoreDist}, nil
			})
			run("KMedoids", func(b network.Graph) (any, error) {
				r, err := core.KMedoidsCtx(ctx, b, core.KMedoidsOptions{K: 4})
				if err != nil {
					return nil, err
				}
				return [3]any{r.Labels, r.Medoids, r.R}, nil
			})
			run("SingleLink", func(b network.Graph) (any, error) {
				r, err := core.SingleLinkCtx(ctx, b, core.SingleLinkOptions{})
				if err != nil {
					return nil, err
				}
				return [2]any{r.Dendrogram.Merges, r.FinalClusters}, nil
			})
		})
	}
}

// TestClusteringPrunedByteIdentical checks that the filter-and-refine path
// over a snapshot (DBSCAN's Prune bounder) still reproduces the unpruned
// labels. The k-medoids expansion pruner's leg lives in core's
// TestKMedoidsBackendsAgree.
func TestClusteringPrunedByteIdentical(t *testing.T) {
	ctx := context.Background()
	g, err := testnet.Random(7, 40, 90)
	if err != nil {
		t.Fatal(err)
	}
	sn := compile(t, g)
	b, err := lbound.Build(sn, lbound.Options{Landmarks: 4, EuclideanLB: true})
	if err != nil {
		t.Fatal(err)
	}

	plain, err := core.DBSCANCtx(ctx, g, core.DBSCANOptions{Eps: 1.2, MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := core.DBSCANCtx(ctx, sn, core.DBSCANOptions{Eps: 1.2, MinPts: 3, Prune: b})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Labels, pruned.Labels) || !reflect.DeepEqual(plain.Core, pruned.Core) {
		t.Fatal("pruned DBSCAN on snapshot diverged from plain DBSCAN on network")
	}
	if pruned.Stats.Prune.Candidates == 0 {
		t.Fatal("pruned DBSCAN never used the bounder")
	}
}
