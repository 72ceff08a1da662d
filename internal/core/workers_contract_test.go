package core_test

import (
	"context"
	"reflect"
	"testing"

	"netclus/internal/core"
	"netclus/internal/csr"
	"netclus/internal/network"
	"netclus/internal/storage"
	"netclus/internal/testnet"
)

// TestLabelKernelWorkersContract pins the Workers contract: Workers is a
// concurrency knob, and 0 and 1 are the same run — identical labels, core
// flags, counts and Stats.RangeQueries — on the compiled snapshot, the disk
// store and the pointer network; 4 workers change nothing but the wall clock.
// On the snapshot every value expands each point exactly once.
func TestLabelKernelWorkersContract(t *testing.T) {
	ctx := context.Background()
	g, _, err := testnet.RandomClustered(11, 60, 240, 4)
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
	defer st.Close()

	for _, bk := range []struct {
		name string
		g    network.Graph
	}{{"snapshot", sn}, {"store", st}, {"network", g}} {
		for _, minPts := range []int{1, 2, 3, 5} {
			for _, eps := range []float64{0.05, 0.15, 0.4} {
				opts := core.DBSCANOptions{Eps: eps, MinPts: minPts}
				ref, err := core.DBSCANCtx(ctx, g, opts)
				if err != nil {
					t.Fatal(err)
				}
				var w0 *core.DBSCANResult
				for _, workers := range []int{0, 1, 4} {
					opts.Workers = workers
					got, err := core.DBSCANCtx(ctx, bk.g, opts)
					if err != nil {
						t.Fatalf("%s eps=%v minPts=%d workers=%d: %v", bk.name, eps, minPts, workers, err)
					}
					if !reflect.DeepEqual(ref.Labels, got.Labels) || !reflect.DeepEqual(ref.Core, got.Core) ||
						ref.NumClusters != got.NumClusters || ref.CorePoints != got.CorePoints {
						t.Fatalf("%s eps=%v minPts=%d workers=%d: DBSCAN diverged from the sequential network run", bk.name, eps, minPts, workers)
					}
					switch {
					case workers == 0:
						w0 = got
					case workers == 1 && got.Stats.RangeQueries != w0.Stats.RangeQueries:
						t.Fatalf("%s eps=%v minPts=%d: Workers 1 ran %d range queries, Workers 0 %d",
							bk.name, eps, minPts, got.Stats.RangeQueries, w0.Stats.RangeQueries)
					}
					if bk.name == "snapshot" && got.Stats.RangeQueries != g.NumPoints() {
						t.Fatalf("snapshot eps=%v minPts=%d workers=%d: %d expansions for %d points",
							eps, minPts, workers, got.Stats.RangeQueries, g.NumPoints())
					}
				}
			}
		}
		for _, eps := range []float64{0.05, 0.15, 0.4} {
			opts := core.EpsLinkOptions{Eps: eps, MinSup: 3}
			ref, err := core.EpsLinkCtx(ctx, g, opts)
			if err != nil {
				t.Fatal(err)
			}
			var w0 *core.EpsLinkResult
			for _, workers := range []int{0, 1, 4} {
				opts.Workers = workers
				got, err := core.EpsLinkCtx(ctx, bk.g, opts)
				if err != nil {
					t.Fatalf("%s eps=%v workers=%d: %v", bk.name, eps, workers, err)
				}
				if !reflect.DeepEqual(ref.Labels, got.Labels) || ref.NumClusters != got.NumClusters || ref.ClustersFound != got.ClustersFound {
					t.Fatalf("%s eps=%v workers=%d: eps-Link diverged from the sequential network run", bk.name, eps, workers)
				}
				switch {
				case workers == 0:
					w0 = got
				case workers == 1 && got.Stats.RangeQueries != w0.Stats.RangeQueries:
					t.Fatalf("%s eps=%v: Workers 1 ran %d range queries, Workers 0 %d",
						bk.name, eps, got.Stats.RangeQueries, w0.Stats.RangeQueries)
				}
			}
		}
	}
}
