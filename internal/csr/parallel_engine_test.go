// Tests for clustering on the compiled snapshot: the label kernel (see
// label_kernel_test.go for its differential suite) must be byte-identical to
// the generic labeller on the pointer network at every Workers value (which
// DBSCAN and ε-Link accept and ignore), Snapshot.CoreFlags must agree with
// brute-force neighbourhood counting at every worker count, and its
// sequential steady state must not allocate.
package csr_test

import (
	"context"
	"reflect"
	"testing"

	"netclus/internal/core"
	"netclus/internal/csr"
	"netclus/internal/lbound"
	"netclus/internal/matrix"
	"netclus/internal/network"
	"netclus/internal/testnet"
)

// TestParallelEngineByteIdentical sweeps DBSCAN and ε-Link over the graph
// zoo: the snapshot must reproduce the generic run on the pointer network
// exactly — labels, core flags, cluster counts — on both the memory-compiled
// and the store-compiled snapshot, and the Workers value the options carry
// must change nothing.
func TestParallelEngineByteIdentical(t *testing.T) {
	ctx := context.Background()
	for name, g := range instances(t) {
		t.Run(name, func(t *testing.T) {
			backends := map[string]network.Graph{
				"mem":   compile(t, g),
				"store": storeCompile(t, g),
			}
			wantDB, err := core.DBSCANCtx(ctx, g, core.DBSCANOptions{Eps: 1.2, MinPts: 3})
			if err != nil {
				t.Fatal(err)
			}
			wantEL, err := core.EpsLinkCtx(ctx, g, core.EpsLinkOptions{Eps: 1.2, MinSup: 2})
			if err != nil {
				t.Fatal(err)
			}
			for bk, b := range backends {
				for _, workers := range []int{1, 2, 4} {
					db, err := core.DBSCANCtx(ctx, b, core.DBSCANOptions{Eps: 1.2, MinPts: 3, Workers: workers})
					if err != nil {
						t.Fatalf("%s workers=%d: DBSCAN: %v", bk, workers, err)
					}
					if !reflect.DeepEqual(wantDB.Labels, db.Labels) || !reflect.DeepEqual(wantDB.Core, db.Core) ||
						wantDB.NumClusters != db.NumClusters || wantDB.CorePoints != db.CorePoints {
						t.Fatalf("%s workers=%d: DBSCAN diverged from the network run", bk, workers)
					}
					el, err := core.EpsLinkCtx(ctx, b, core.EpsLinkOptions{Eps: 1.2, MinSup: 2, Workers: workers})
					if err != nil {
						t.Fatalf("%s workers=%d: EpsLink: %v", bk, workers, err)
					}
					if !reflect.DeepEqual(wantEL.Labels, el.Labels) || wantEL.NumClusters != el.NumClusters ||
						wantEL.ClustersFound != el.ClustersFound {
						t.Fatalf("%s workers=%d: EpsLink diverged from the network run", bk, workers)
					}
				}
			}
		})
	}
}

// TestParallelEnginePrunedByteIdentical installs a landmark bounder: the
// snapshot then leaves its label kernel for the generic labeller over its
// filter-and-refine scratch, and the labels must not move.
func TestParallelEnginePrunedByteIdentical(t *testing.T) {
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
	want, err := core.DBSCANCtx(ctx, g, core.DBSCANOptions{Eps: 1.2, MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		got, err := core.DBSCANCtx(ctx, sn, core.DBSCANOptions{Eps: 1.2, MinPts: 3, Workers: workers, Prune: b})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(want.Labels, got.Labels) || !reflect.DeepEqual(want.Core, got.Core) {
			t.Fatalf("workers=%d: pruned kernel DBSCAN diverged from plain run", workers)
		}
		if got.Stats.Prune.Candidates == 0 {
			t.Fatalf("workers=%d: pruned kernel DBSCAN never used the bounder", workers)
		}
	}
}

// TestCoreFlagsMatchesBruteForce checks the fused early-exiting core-flag
// pass against literal neighbourhood counting for a spread of (eps, minPts)
// including thresholds right at and past the neighbourhood sizes.
func TestCoreFlagsMatchesBruteForce(t *testing.T) {
	ctx := context.Background()
	for name, g := range instances(t) {
		t.Run(name, func(t *testing.T) {
			sn := compile(t, g)
			n := g.NumPoints()
			ref := network.NewRangeScratch(g)
			for _, eps := range []float64{0.3, 1.2} {
				for _, minPts := range []int{1, 2, 4, 9} {
					want := make([]bool, n)
					for p := 0; p < n; p++ {
						nb, err := ref.RangeQueryCtx(ctx, g, network.PointID(p), eps)
						if err != nil {
							t.Fatal(err)
						}
						want[p] = len(nb) >= minPts
					}
					for _, workers := range []int{1, 3} {
						got := make([]bool, n)
						if _, err := sn.CoreFlags(ctx, eps, minPts, workers, nil, got); err != nil {
							t.Fatalf("eps=%v minPts=%d workers=%d: %v", eps, minPts, workers, err)
						}
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("eps=%v minPts=%d workers=%d: core flags differ", eps, minPts, workers)
						}
					}
				}
			}
		})
	}
}

// TestCoreFlagsZeroAlloc gates the sequential fused pass: after warm-up the
// pooled scratches must make CoreFlags at workers=1 allocation-free.
func TestCoreFlagsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector shadow updates allocate")
	}
	g, err := testnet.Random(7, 40, 90)
	if err != nil {
		t.Fatal(err)
	}
	sn := compile(t, g)
	ctx := context.Background()
	core := make([]bool, g.NumPoints())
	if _, err := sn.CoreFlags(ctx, 1.2, 3, 1, nil, core); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(20, func() {
		if _, err := sn.CoreFlags(ctx, 1.2, 3, 1, nil, core); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("CoreFlags workers=1 allocates %v per run, want 0", avg)
	}
}

// FuzzParallelDBSCAN derives (network, eps, minPts, workers) from the fuzz
// input and checks DBSCAN on the compiled snapshot against the brute-force
// oracle and against the other family, the generic labeller on the source
// network, and each family's range-query count against matrix.FlagQueries;
// the Workers value, accepted and ignored, must change none of them. A
// non-negative seed generates a random network; a negative one picks a
// shared hand-built shape (testnet.Shapes; -1, -2, -3 are the first shape as
// written, mirrored and twisted, and so on), so mutation starts from the
// inputs the mask logic can get wrong.
func FuzzParallelDBSCAN(f *testing.F) {
	f.Add(int64(1), float64(0.8), uint8(3), uint8(2))
	f.Add(int64(7), float64(1.5), uint8(1), uint8(4))
	f.Add(int64(42), float64(0.2), uint8(9), uint8(1))
	for i := range testnet.Shapes {
		for numbering := 0; numbering < 3; numbering++ {
			// MinPts 5, 4, 5 (minPts%9+1) at Workers 1, 4, 2 (workers%6+1).
			f.Add(int64(-1-3*i-numbering), float64(1), uint8(4-numbering%2), uint8(3*numbering%5))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, eps float64, minPts, workers uint8) {
		if !(eps > 0) || eps > 1e6 {
			t.Skip()
		}
		var g *network.Network
		if seed < 0 {
			k := int((-(seed + 1)) % int64(3*len(testnet.Shapes)))
			g = buildShape(t, testnet.Shapes[k/3], k%3)
		} else {
			var err error
			if g, err = testnet.Random(seed%64, 25, 60); err != nil {
				t.Skip()
			}
		}
		sn, err := csr.Compile(g)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		ctx := context.Background()
		opts := core.DBSCANOptions{Eps: eps, MinPts: int(minPts)%9 + 1, Workers: int(workers)%6 + 1}
		dist, err := matrix.PointDistances(g)
		if err != nil {
			t.Fatal(err)
		}
		want := matrix.DBSCAN(dist, eps, opts.MinPts)
		got, err := core.DBSCANCtx(ctx, sn, opts)
		if err != nil {
			t.Fatal(err)
		}
		other, err := core.DBSCANCtx(ctx, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got.Labels) || got.NumClusters != core.CountClusters(want) {
			t.Fatalf("seed=%d eps=%v minPts=%d workers=%d: snapshot DBSCAN diverged from the matrix oracle",
				seed, eps, opts.MinPts, opts.Workers)
		}
		if !reflect.DeepEqual(other.Labels, got.Labels) || !reflect.DeepEqual(other.Core, got.Core) {
			t.Fatalf("seed=%d eps=%v minPts=%d workers=%d: the flat kernel and the generic labeller disagree",
				seed, eps, opts.MinPts, opts.Workers)
		}
		for _, run := range []struct {
			res  *core.DBSCANResult
			flat bool
		}{{got, true}, {other, false}} {
			short, err := matrix.FlagQueries(g, eps, opts.MinPts, run.flat)
			if err != nil {
				t.Fatal(err)
			}
			if run.res.Stats.RangeQueries != short {
				t.Fatalf("seed=%d eps=%v minPts=%d workers=%d flat=%v: %d range queries, %d points are short on their edge",
					seed, eps, opts.MinPts, opts.Workers, run.flat, run.res.Stats.RangeQueries, short)
			}
		}
	})
}
