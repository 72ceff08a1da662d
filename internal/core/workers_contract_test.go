package core_test

import (
	"context"
	"reflect"
	"testing"

	"netclus/internal/core"
	"netclus/internal/matrix"
	"netclus/internal/testnet"
)

// TestLabelKernelWorkersContract pins what both labellers — the snapshot's
// flat kernel and the generic three-pass engine — report besides their
// labels, on every backend, against the brute-force oracle: DBSCAN's cluster
// and core counts, ε-Link's min_sup filter with its found and kept counts,
// and the work and timing stats. Workers is accepted and ignored, so 0, 1
// and 4 are the same run: identical labels, core flags, counts and
// Stats.RangeQueries.
//
// Stats.RangeQueries tells the truth: DBSCAN queries exactly the points whose
// own edge leaves them short of MinPts under its labeller's same-edge
// relation (matrix.FlagQueries counts them by brute force), on every backend,
// pruned or not; ε-Link issues none. CritNs/WallNs are the flat kernel's
// native timing model — the snapshot's and the delta view's, which is a
// snapshot derived from it — and stay zero on the generic labeller.
func TestLabelKernelWorkersContract(t *testing.T) {
	ctx := context.Background()
	g, _, err := testnet.RandomClustered(11, 60, 240, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, bk := range densityBackends(t, g, 4, true) {
		prunes := []bool{false}
		if bk.bounds != nil {
			prunes = append(prunes, true)
		}
		for _, pruned := range prunes {
			// The flat kernel, with its native timing, only without a Bounder.
			flat := !pruned && (bk.name == "snapshot" || bk.name == "delta-view")
			for _, minPts := range []int{1, 2, 3, 5} {
				for _, eps := range []float64{0.05, 0.15, 0.4} {
					want, err := matrix.FlagQueries(bk.g, eps, minPts, flat)
					if err != nil {
						t.Fatal(err)
					}
					labels := matrix.DBSCAN(bk.dist, eps, minPts)
					opts := core.DBSCANOptions{Eps: eps, MinPts: minPts}
					if pruned {
						opts.Prune = bk.bounds
					}
					var w0 *core.DBSCANResult
					for _, workers := range []int{0, 1, 4} {
						opts.Workers = workers
						got, err := core.DBSCANCtx(ctx, bk.g, opts)
						if err != nil {
							t.Fatalf("%s eps=%v minPts=%d workers=%d pruned=%v: %v", bk.name, eps, minPts, workers, pruned, err)
						}
						if workers == 0 {
							w0 = got
						} else if !reflect.DeepEqual(w0.Labels, got.Labels) || !reflect.DeepEqual(w0.Core, got.Core) ||
							w0.NumClusters != got.NumClusters || w0.CorePoints != got.CorePoints ||
							w0.Stats.RangeQueries != got.Stats.RangeQueries {
							t.Fatalf("%s eps=%v minPts=%d pruned=%v: Workers %d is not the Workers 0 run (%d vs %d range queries)",
								bk.name, eps, minPts, pruned, workers, got.Stats.RangeQueries, w0.Stats.RangeQueries)
						}
						cores := 0
						for _, c := range got.Core {
							if c {
								cores++
							}
						}
						if !reflect.DeepEqual(labels, got.Labels) || got.NumClusters != core.CountClusters(labels) || got.CorePoints != cores {
							t.Fatalf("%s eps=%v minPts=%d workers=%d pruned=%v: %d clusters and %d core points (%d flagged), the oracle %d clusters",
								bk.name, eps, minPts, workers, pruned, got.NumClusters, got.CorePoints, cores, core.CountClusters(labels))
						}
						if q := got.Stats.RangeQueries; q != want {
							t.Fatalf("%s eps=%v minPts=%d workers=%d pruned=%v: %d range queries, %d of %d points are short on their edge",
								bk.name, eps, minPts, workers, pruned, q, want, bk.g.NumPoints())
						}
						if st := got.Stats; flat != (st.CritNs > 0) || flat != (st.WallNs > 0) {
							t.Fatalf("%s eps=%v minPts=%d workers=%d pruned=%v: CritNs=%d WallNs=%d, native timing expected: %v",
								bk.name, eps, minPts, workers, pruned, st.CritNs, st.WallNs, flat)
						}
					}
				}
			}
		}
		for _, eps := range []float64{0.05, 0.15, 0.4} {
			want := matrix.EpsComponents(bk.dist, eps, 1)
			sizes := make(map[int32]int)
			for _, l := range want {
				sizes[l]++
			}
			kept := 0
			for _, size := range sizes {
				if size >= 3 {
					kept++
				}
			}
			for i, l := range want {
				if sizes[l] < 3 {
					want[i] = core.Noise
				}
			}
			opts := core.EpsLinkOptions{Eps: eps, MinSup: 3}
			for _, workers := range []int{0, 1, 4} {
				opts.Workers = workers
				got, err := core.EpsLinkCtx(ctx, bk.g, opts)
				if err != nil {
					t.Fatalf("%s eps=%v workers=%d: %v", bk.name, eps, workers, err)
				}
				if !reflect.DeepEqual(want, got.Labels) || got.NumClusters != kept || got.ClustersFound != len(sizes) {
					t.Fatalf("%s eps=%v workers=%d: found %d/%d clusters, the oracle %d/%d, or the labels differ",
						bk.name, eps, workers, got.NumClusters, got.ClustersFound, kept, len(sizes))
				}
				if got.Stats.RangeQueries != 0 {
					t.Fatalf("%s eps=%v workers=%d: eps-Link booked %d range queries", bk.name, eps, workers, got.Stats.RangeQueries)
				}
			}
		}
	}
}
