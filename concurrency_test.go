package netclus_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"netclus"
)

// buildDemoStore materializes the demo network into a store directory and
// opens it.
func buildDemoStore(t testing.TB) *netclus.Store {
	t.Helper()
	g := buildDemoNetwork(t)
	dir := t.TempDir()
	if err := netclus.BuildStore(dir, g, netclus.StoreOptions{}); err != nil {
		t.Fatal(err)
	}
	st, err := netclus.OpenStore(dir, netclus.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestStoreParallelMatchesSequential runs DBSCAN and ε-Link at Workers 4
// over one shared disk store and checks the labels are identical to the
// Workers 0 run — the determinism guarantee, exercised under -race in CI.
func TestStoreParallelMatchesSequential(t *testing.T) {
	st := buildDemoStore(t)
	cfg := netclus.DefaultClusterConfig(400, 3, 0.08)
	ctx := context.Background()

	seqEL, err := netclus.EpsLink(st, netclus.EpsLinkOptions{Eps: cfg.Eps(), MinSup: 3})
	if err != nil {
		t.Fatal(err)
	}
	parEL, err := netclus.EpsLinkCtx(ctx, st, netclus.EpsLinkOptions{Eps: cfg.Eps(), MinSup: 3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seqEL.Labels {
		if parEL.Labels[i] != seqEL.Labels[i] {
			t.Fatalf("eps-link: label mismatch at point %d: parallel %d, sequential %d",
				i, parEL.Labels[i], seqEL.Labels[i])
		}
	}

	seqDB, err := netclus.DBSCAN(st, netclus.DBSCANOptions{Eps: cfg.Eps(), MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}
	parDB, err := netclus.DBSCANCtx(ctx, st, netclus.DBSCANOptions{Eps: cfg.Eps(), MinPts: 3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seqDB.Labels {
		if parDB.Labels[i] != seqDB.Labels[i] {
			t.Fatalf("dbscan: label mismatch at point %d: parallel %d, sequential %d",
				i, parDB.Labels[i], seqDB.Labels[i])
		}
	}
}

// TestStoreConcurrentReaders queries one shared store from many goroutines,
// each through its own read view, and checks the answers match a sequential
// baseline.
func TestStoreConcurrentReaders(t *testing.T) {
	st := buildDemoStore(t)
	const probes = 64
	want := make([]float64, probes)
	for i := 0; i < probes; i++ {
		d, err := netclus.PointDistance(st, netclus.PointID(i), netclus.PointID(i+100))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = d
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			view := st.Reader()
			for i := 0; i < probes; i++ {
				d, err := netclus.PointDistance(view, netclus.PointID(i), netclus.PointID(i+100))
				if err != nil {
					errs[w] = err
					return
				}
				if d != want[i] {
					errs[w] = errors.New("distance mismatch under concurrency")
					return
				}
				if _, err := netclus.KNearestNeighbors(view, netclus.PointID(i), 5); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	bs := st.BufferStats()
	if bs.LogicalReads == 0 {
		t.Fatal("buffer pool recorded no traffic")
	}
	if hr := bs.HitRatio(); hr <= 0 || hr > 1 {
		t.Fatalf("hit ratio %v out of (0, 1]", hr)
	}
}

// TestCancellation checks that cancelled contexts surface context errors
// promptly and leave the store usable.
func TestCancellation(t *testing.T) {
	st := buildDemoStore(t)
	cfg := netclus.DefaultClusterConfig(400, 3, 0.08)

	// Pre-cancelled context: every entry point fails with context.Canceled.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := netclus.EpsLinkCtx(ctx, st, netclus.EpsLinkOptions{Eps: cfg.Eps(), Workers: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("EpsLinkCtx: got %v, want context.Canceled chain", err)
	}
	if _, err := netclus.DBSCANCtx(ctx, st, netclus.DBSCANOptions{Eps: cfg.Eps(), MinPts: 3}); !errors.Is(err, context.Canceled) {
		t.Fatalf("DBSCANCtx: got %v, want context.Canceled chain", err)
	}
	if _, err := netclus.SingleLinkCtx(ctx, st, netclus.SingleLinkOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SingleLinkCtx: got %v, want context.Canceled chain", err)
	}
	if _, err := netclus.OPTICSCtx(ctx, st, netclus.OPTICSOptions{Eps: cfg.Eps(), MinPts: 3}); !errors.Is(err, context.Canceled) {
		t.Fatalf("OPTICSCtx: got %v, want context.Canceled chain", err)
	}
	if _, err := netclus.KMedoidsCtx(ctx, st, netclus.KMedoidsOptions{K: 3}); !errors.Is(err, context.Canceled) {
		t.Fatalf("KMedoidsCtx: got %v, want context.Canceled chain", err)
	}
	if _, err := netclus.PointDistanceCtx(ctx, st, 0, 100); !errors.Is(err, context.Canceled) {
		t.Fatalf("PointDistanceCtx: got %v, want context.Canceled chain", err)
	}
	if _, err := netclus.KNearestNeighborsCtx(ctx, st, 0, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("KNearestNeighborsCtx: got %v, want context.Canceled chain", err)
	}

	// Mid-run cancellation via deadline: DeadlineExceeded is also a context
	// error and must not corrupt the store.
	dctx, dcancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer dcancel()
	if _, err := netclus.DBSCANCtx(dctx, st, netclus.DBSCANOptions{Eps: cfg.Eps(), MinPts: 3, Workers: 4}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("DBSCANCtx deadline: got %v, want context.DeadlineExceeded chain", err)
	}

	// The store keeps serving after cancelled runs.
	if _, err := netclus.PointDistance(st, 0, 100); err != nil {
		t.Fatalf("store unusable after cancellation: %v", err)
	}
	if _, err := netclus.EpsLink(st, netclus.EpsLinkOptions{Eps: cfg.Eps()}); err != nil {
		t.Fatalf("clustering unusable after cancellation: %v", err)
	}
}

// TestSentinelErrors checks the errors.Is classification of the public
// sentinels.
func TestSentinelErrors(t *testing.T) {
	st := buildDemoStore(t)
	if _, err := netclus.PointDistance(st, -1, 0); !errors.Is(err, netclus.ErrPointNotFound) {
		t.Fatalf("bad point: got %v, want ErrPointNotFound chain", err)
	}
	if _, err := netclus.NodeDistances(st, netclus.NodeID(1<<30)); !errors.Is(err, netclus.ErrNodeNotFound) {
		t.Fatalf("bad node: got %v, want ErrNodeNotFound chain", err)
	}
	if _, err := netclus.EpsLink(st, netclus.EpsLinkOptions{}); !errors.Is(err, netclus.ErrInvalidOptions) {
		t.Fatalf("bad options: got %v, want ErrInvalidOptions chain", err)
	}
	if _, err := netclus.KMedoids(st, netclus.KMedoidsOptions{K: 3, Restarts: -1}); !errors.Is(err, netclus.ErrInvalidOptions) {
		t.Fatalf("negative restarts: got %v, want ErrInvalidOptions chain", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := netclus.PointDistance(st, 0, 100); !errors.Is(err, netclus.ErrStoreClosed) {
		t.Fatalf("closed store: got %v, want ErrStoreClosed chain", err)
	}
	if _, err := st.Reader().Neighbors(0); !errors.Is(err, netclus.ErrStoreClosed) {
		t.Fatalf("closed store view: got %v, want ErrStoreClosed chain", err)
	}
}
