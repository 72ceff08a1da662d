package shard

import (
	"context"
	"reflect"
	"testing"

	"netclus/internal/core"
	"netclus/internal/csr"
	"netclus/internal/lbound"
	"netclus/internal/matrix"
	"netclus/internal/testnet"
)

// TestShardParallelClusterEquivalence runs DBSCAN and ε-Link on partitioned
// and adversarially scattered sets against the other labeller family — the
// flat kernel of one snapshot of the whole network — and, for DBSCAN, the
// brute-force oracle. The Workers values, some past the shard count, are
// accepted and ignored, so none may change a label.
func TestShardParallelClusterEquivalence(t *testing.T) {
	ctx := context.Background()
	g := testNetwork(t, 21, 80, 260)
	sn, err := csr.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	wantDB, err := core.DBSCANCtx(ctx, sn, core.DBSCANOptions{Eps: 0.5, MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := matrix.PointDistances(g)
	if err != nil {
		t.Fatal(err)
	}
	if brute := matrix.DBSCAN(dist, 0.5, 3); !reflect.DeepEqual(brute, wantDB.Labels) {
		t.Fatal("flat DBSCAN diverged from the matrix oracle")
	}
	wantEL, err := core.EpsLinkCtx(ctx, sn, core.EpsLinkOptions{Eps: 0.5, MinSup: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 4} {
		for ai, assign := range assignments(t, g, k, 210+int64(k)) {
			set, err := Build(g, assign, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 1, 2, 6} {
				db, err := core.DBSCANCtx(ctx, set, core.DBSCANOptions{Eps: 0.5, MinPts: 3, Workers: workers})
				if err != nil {
					t.Fatalf("k=%d assign=%d workers=%d: DBSCAN: %v", k, ai, workers, err)
				}
				if !reflect.DeepEqual(wantDB.Labels, db.Labels) || !reflect.DeepEqual(wantDB.Core, db.Core) ||
					wantDB.NumClusters != db.NumClusters {
					t.Fatalf("k=%d assign=%d workers=%d: shard DBSCAN diverged from the flat kernel", k, ai, workers)
				}
				el, err := core.EpsLinkCtx(ctx, set, core.EpsLinkOptions{Eps: 0.5, MinSup: 2, Workers: workers})
				if err != nil {
					t.Fatalf("k=%d assign=%d workers=%d: EpsLink: %v", k, ai, workers, err)
				}
				if !reflect.DeepEqual(wantEL.Labels, el.Labels) || wantEL.NumClusters != el.NumClusters {
					t.Fatalf("k=%d assign=%d workers=%d: shard EpsLink diverged from the flat kernel", k, ai, workers)
				}
			}
		}
	}
}

// TestShardParallelPrunedEquivalence runs DBSCAN on the set under a Bounder:
// a landmark bounder built over the compiled snapshot prunes by the same
// global point IDs the set serves, so the labels must equal the flat kernel's
// unpruned ones and the bounder must actually be consulted.
func TestShardParallelPrunedEquivalence(t *testing.T) {
	ctx := context.Background()
	// testnet graphs keep edge weights above the straight-line endpoint
	// distance, so the Euclidean candidate filter — the path that actually
	// exercises filter-and-refine — is available; testNetwork's random
	// weights would silently fall back to the plain expansion.
	g, err := testnet.Random(25, 70, 160)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := csr.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := lbound.Build(sn, lbound.Options{Landmarks: 4, EuclideanLB: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.DBSCANCtx(ctx, sn, core.DBSCANOptions{Eps: 0.5, MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}
	for ai, assign := range assignments(t, g, 3, 220) {
		set, err := Build(g, assign, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			got, err := core.DBSCANCtx(ctx, set, core.DBSCANOptions{Eps: 0.5, MinPts: 3, Workers: workers, Prune: b})
			if err != nil {
				t.Fatalf("assign=%d workers=%d: %v", ai, workers, err)
			}
			if !reflect.DeepEqual(want.Labels, got.Labels) || !reflect.DeepEqual(want.Core, got.Core) {
				t.Fatalf("assign=%d workers=%d: pruned shard DBSCAN diverged from plain run", ai, workers)
			}
			if got.Stats.Prune.Candidates == 0 {
				t.Fatalf("assign=%d workers=%d: pruned shard DBSCAN never used the bounder", ai, workers)
			}
		}
	}
}
