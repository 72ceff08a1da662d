// Differential tests for the snapshot's label kernel (network.LabelKernel):
// the three-pass DBSCAN must reproduce the generic labeller's run on the
// pointer network and the internal/matrix brute force byte for byte, on
// hand-built shapes that aim at the selection-mask logic of
// the core-restricted Fig. 6 growth — and it must query exactly the points
// whose own edge leaves them short of minPts.
package csr_test

import (
	"context"
	"reflect"
	"testing"

	"netclus/internal/core"
	"netclus/internal/matrix"
	"netclus/internal/network"
	"netclus/internal/testnet"
)

// shapeGraphs returns every shared hand-built shape (testnet.Shapes) in every
// numbering.
func shapeGraphs(t testing.TB) map[string]*network.Network {
	t.Helper()
	out, err := testnet.ShapeGraphs()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// buildShape materialises one shape in one numbering.
func buildShape(t testing.TB, s testnet.Shape, numbering int) *network.Network {
	t.Helper()
	g, err := s.Build(numbering)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkLabelKernelDBSCAN runs DBSCAN(eps, minPts) on the pointer network g
// (sequential), on the brute-force matrix and on the compiled snapshot, and
// demands byte-identical results and, from each
// labeller, one range query per point its edge leaves short
// (matrix.FlagQueries under that labeller's same-edge relation).
func checkLabelKernelDBSCAN(t *testing.T, g *network.Network, dist [][]float64, eps float64, minPts int) {
	t.Helper()
	ctx := context.Background()
	n := g.NumPoints()
	want, err := core.DBSCANCtx(ctx, g, core.DBSCANOptions{Eps: eps, MinPts: minPts})
	if err != nil {
		t.Fatal(err)
	}
	if brute := matrix.DBSCAN(dist, eps, minPts); !reflect.DeepEqual(brute, want.Labels) {
		t.Fatalf("eps=%v minPts=%d: sequential run diverged from the matrix oracle\nwant %v\ngot  %v", eps, minPts, brute, want.Labels)
	}
	for p := 0; p < n; p++ {
		cnt := 0
		for q := 0; q < n; q++ {
			if dist[p][q] <= eps {
				cnt++
			}
		}
		if want.Core[p] != (cnt >= minPts) {
			t.Fatalf("eps=%v minPts=%d: point %d core flag %v, matrix counts %d neighbours", eps, minPts, p, want.Core[p], cnt)
		}
	}
	if short, err := matrix.FlagQueries(g, eps, minPts, false); err != nil || want.Stats.RangeQueries != short {
		t.Fatalf("eps=%v minPts=%d: the generic labeller issued %d range queries, %d points are short on their edge (%v)",
			eps, minPts, want.Stats.RangeQueries, short, err)
	}
	short, err := matrix.FlagQueries(g, eps, minPts, true)
	if err != nil {
		t.Fatal(err)
	}
	sn := compile(t, g)
	got, err := core.DBSCANCtx(ctx, sn, core.DBSCANOptions{Eps: eps, MinPts: minPts})
	if err != nil {
		t.Fatalf("eps=%v minPts=%d: %v", eps, minPts, err)
	}
	if !reflect.DeepEqual(want.Labels, got.Labels) {
		t.Fatalf("eps=%v minPts=%d: labels\nwant %v\ngot  %v", eps, minPts, want.Labels, got.Labels)
	}
	if !reflect.DeepEqual(want.Core, got.Core) || want.CorePoints != got.CorePoints || want.NumClusters != got.NumClusters {
		t.Fatalf("eps=%v minPts=%d: core flags or counts differ (%d/%d cores, %d/%d clusters)",
			eps, minPts, got.CorePoints, want.CorePoints, got.NumClusters, want.NumClusters)
	}
	if got.Stats.RangeQueries != short {
		t.Fatalf("eps=%v minPts=%d: %d range queries, %d points are short on their edge", eps, minPts, got.Stats.RangeQueries, short)
	}
}

// TestLabelKernelDBSCANShapes sweeps the hand-built shapes.
func TestLabelKernelDBSCANShapes(t *testing.T) {
	for name, g := range shapeGraphs(t) {
		t.Run(name, func(t *testing.T) {
			dist, err := matrix.PointDistances(g)
			if err != nil {
				t.Fatal(err)
			}
			for _, minPts := range []int{1, 2, 3, 4, 5} {
				for _, eps := range []float64{0.125, 0.5, 0.875, 1, 1.5, 2, 4} {
					checkLabelKernelDBSCAN(t, g, dist, eps, minPts)
				}
			}
		})
	}
}

// TestLabelKernelDBSCANZoo sweeps the generated graph zoo, store-compiled
// snapshot included.
func TestLabelKernelDBSCANZoo(t *testing.T) {
	for name, g := range instances(t) {
		t.Run(name, func(t *testing.T) {
			dist, err := matrix.PointDistances(g)
			if err != nil {
				t.Fatal(err)
			}
			for _, minPts := range []int{1, 2, 3, 5} {
				for _, eps := range []float64{0.1, 0.3, 0.6, 1.2, 2.4} {
					checkLabelKernelDBSCAN(t, g, dist, eps, minPts)
				}
			}
			want, err := core.DBSCAN(g, core.DBSCANOptions{Eps: 0.6, MinPts: 3})
			if err != nil {
				t.Fatal(err)
			}
			got, err := core.DBSCAN(storeCompile(t, g), core.DBSCANOptions{Eps: 0.6, MinPts: 3})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.Labels, got.Labels) || !reflect.DeepEqual(want.Core, got.Core) {
				t.Fatal("store-compiled snapshot diverged")
			}
		})
	}
}

// TestLabelKernelShapesAreWhatTheyClaim pins the structure the shapes were
// built for at eps = 1, so an edit to a shape cannot silently stop it from
// exercising the mask logic.
func TestLabelKernelShapesAreWhatTheyClaim(t *testing.T) {
	run := func(name string, minPts int) *core.DBSCANResult {
		t.Helper()
		for _, s := range testnet.Shapes {
			if s.Name == name {
				res, err := core.DBSCAN(compile(t, buildShape(t, s, testnet.AsWritten)), core.DBSCANOptions{Eps: 1, MinPts: minPts})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
		}
		t.Fatalf("no shape %q", name)
		return nil
	}
	// One cluster of exactly two cores (c1, c2) with x between them as a
	// border: indices follow ascending offset on the single edge.
	res := run("noncore-between-cores-seed-edge", 5)
	if res.NumClusters != 1 || res.CorePoints != 2 || !res.Core[3] || res.Core[4] || !res.Core[5] || res.Labels[4] != 0 {
		t.Fatalf("seed-edge shape: %+v", res)
	}
	res = run("noncore-between-cores-chain", 4)
	if res.NumClusters != 1 || res.Core[4] || !res.Core[3] || !res.Core[5] || res.Labels[5] != 0 {
		t.Fatalf("chain shape: cores %v labels %v", res.Core, res.Labels)
	}
	// c1 is point 3, x point 4, c2 point 5; only c1 and c2 are core at 5.
	res = run("coreless-group-on-the-path", 5)
	if res.NumClusters != 1 || res.CorePoints != 2 || !res.Core[3] || res.Core[4] || !res.Core[5] {
		t.Fatalf("coreless-group shape: cores %v labels %v", res.Core, res.Labels)
	}
	res = run("border-of-two-clusters", 4)
	if res.NumClusters != 2 || res.Core[4] || res.Labels[4] != 0 || res.Labels[3] != 0 || res.Labels[5] != 1 {
		t.Fatalf("border shape: cores %v labels %v", res.Core, res.Labels)
	}
	res = run("all-noise", 2)
	if res.NumClusters != 0 || res.CorePoints != 0 {
		t.Fatalf("all-noise shape: %d clusters, %d cores", res.NumClusters, res.CorePoints)
	}
	res = run("all-core", 5)
	if res.NumClusters != 1 || res.CorePoints != len(res.Labels) {
		t.Fatalf("all-core shape: %d clusters, %d cores", res.NumClusters, res.CorePoints)
	}
	res = run("disconnected", 3)
	if res.NumClusters != 3 {
		t.Fatalf("disconnected shape: %d clusters, labels %v", res.NumClusters, res.Labels)
	}
}

// TestLabelKernelEpsLinkShapes checks that threading the selection state
// through the growth left the unmasked run alone: ε-Link on the snapshot still
// equals the generic Fig. 6 run and the brute-force ε-components.
func TestLabelKernelEpsLinkShapes(t *testing.T) {
	ctx := context.Background()
	for name, g := range shapeGraphs(t) {
		t.Run(name, func(t *testing.T) {
			dist, err := matrix.PointDistances(g)
			if err != nil {
				t.Fatal(err)
			}
			sn := compile(t, g)
			for _, minSup := range []int{1, 3} {
				for _, eps := range []float64{0.125, 0.5, 1, 2} {
					want, err := core.EpsLinkCtx(ctx, g, core.EpsLinkOptions{Eps: eps, MinSup: minSup})
					if err != nil {
						t.Fatal(err)
					}
					// The oracle renumbers what survives min_sup; Fig. 6 does not.
					if brute := matrix.EpsComponents(dist, eps, 1); minSup == 1 && !reflect.DeepEqual(brute, want.Labels) {
						t.Fatalf("eps=%v minSup=%d: generic run diverged from the matrix oracle", eps, minSup)
					}
					got, err := core.EpsLinkCtx(ctx, sn, core.EpsLinkOptions{Eps: eps, MinSup: minSup})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(want.Labels, got.Labels) || want.NumClusters != got.NumClusters || want.ClustersFound != got.ClustersFound {
						t.Fatalf("eps=%v minSup=%d: labels\nwant %v\ngot  %v", eps, minSup, want.Labels, got.Labels)
					}
				}
			}
		})
	}
}

// TestLabelKernelZeroAlloc gates the steady state of both labellers: the
// growth pass (EpsLinkLabels is exactly that) and the whole three-pass DBSCAN
// run on pooled state.
func TestLabelKernelZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector shadow updates allocate")
	}
	g, err := testnet.Random(7, 40, 90)
	if err != nil {
		t.Fatal(err)
	}
	sn := compile(t, g)
	ctx := context.Background()
	labels := make([]int32, g.NumPoints())
	flags := make([]bool, g.NumPoints())
	for name, run := range map[string]func() error{
		"EpsLinkLabels": func() error {
			_, _, err := sn.EpsLinkLabels(ctx, 1.2, 3, labels)
			return err
		},
		"DBSCANLabels": func() error {
			_, _, _, err := sn.DBSCANLabels(ctx, 1.2, 3, labels, flags)
			return err
		},
	} {
		if err := run(); err != nil {
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(20, func() {
			if err := run(); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Fatalf("%s allocates %v per run, want 0", name, avg)
		}
	}
}

// TestLabelKernelValidation covers DBSCANLabels' argument checks.
func TestLabelKernelValidation(t *testing.T) {
	g, err := testnet.Random(7, 40, 90)
	if err != nil {
		t.Fatal(err)
	}
	sn := compile(t, g)
	n := g.NumPoints()
	ctx := context.Background()
	for name, call := range map[string]func() error{
		"short labels": func() error {
			_, _, _, err := sn.DBSCANLabels(ctx, 1, 3, make([]int32, n-1), make([]bool, n))
			return err
		},
		"short core": func() error {
			_, _, _, err := sn.DBSCANLabels(ctx, 1, 3, make([]int32, n), make([]bool, n-1))
			return err
		},
		"eps": func() error {
			_, _, _, err := sn.DBSCANLabels(ctx, 0, 3, make([]int32, n), make([]bool, n))
			return err
		},
		"minPts": func() error {
			_, _, _, err := sn.DBSCANLabels(ctx, 1, 0, make([]int32, n), make([]bool, n))
			return err
		},
	} {
		if err := call(); err == nil {
			t.Fatalf("%s: no error", name)
		}
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, _, err := sn.DBSCANLabels(cctx, 1, 3, make([]int32, n), make([]bool, n)); err == nil {
		t.Fatal("cancelled context: no error")
	}
}
