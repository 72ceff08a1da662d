package server

import (
	"context"
	"fmt"
	"net/http"
	"reflect"
	"testing"
	"time"

	"netclus"
	"netclus/internal/server/api"
)

// TestRegistryHotDatasetsBuildNoBounds pins the registry rule: a dataset with
// a compiled replica — a hot store, a hot network, a snapshot file, whatever
// landmarks says — builds no pruning tables, so its default kNN runs the CSR
// kernel through the batcher and its default clustering the snapshot's label
// kernel, with answers equal to the engine's and to the cold datasets'; cold
// store and pointer-network datasets still build bounds and answer pruned.
func TestRegistryHotDatasetsBuildNoBounds(t *testing.T) {
	n := testNetwork(t)
	dir := t.TempDir()
	opts := netclus.StoreOptions{PageSize: 1024, BufferBytes: 32 * 1024}
	if err := netclus.BuildStore(dir, n, opts); err != nil {
		t.Fatal(err)
	}
	sn, err := netclus.Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	must := func(d *Dataset, err error) *Dataset {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	reg := NewRegistry()
	hot := map[string]bool{"hot-disk": true, "hot-mem": true, "snap": true, "cold-disk": false, "cold-mem": false}
	for _, d := range []*Dataset{
		must(NewStoreDataset("hot-disk", dir, opts, 4, true)),
		must(NewNetworkDataset("hot-mem", "test", n, 4, true)),
		must(NewSnapshotDataset("snap", "test", sn, 4)),
		must(NewStoreDataset("cold-disk", dir, opts, 4, false)),
		must(NewNetworkDataset("cold-mem", "test", n, 4, false)),
	} {
		if got := d.Bounds() == nil; got != hot[d.Name] {
			t.Fatalf("%s: Bounds() == nil is %v, want %v", d.Name, got, hot[d.Name])
		}
		if d.Hot() != hot[d.Name] {
			t.Fatalf("%s: Hot() = %v", d.Name, d.Hot())
		}
		if err := reg.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	h := s.Handler()
	ctx := context.Background()

	const clusterQ = "/cluster?algo=dbscan&eps=15&minpts=3&labels=1"
	var cold api.ClusterResponse
	getJSON(t, h, "/v1/cold-mem"+clusterQ, http.StatusOK, &cold)
	if cold.Prune == nil || cold.Clusters < 1 {
		t.Fatalf("cold-mem: default clustering ran unpruned or found nothing: %+v", cold)
	}
	for name, isHot := range hot {
		d, _ := reg.Get(name)
		if (d.knnb != nil) != isHot {
			t.Fatalf("%s: kNN batcher wired = %v", name, d.knnb != nil)
		}
		for p := 0; p < 20; p++ {
			var kr api.KNNResponse
			getJSON(t, h, fmt.Sprintf("/v1/%s/knn?p=%d&k=6", name, p), http.StatusOK, &kr)
			if kr.Pruned == isHot {
				t.Fatalf("%s: default kNN answered pruned=%v", name, kr.Pruned)
			}
			want, err := netclus.KNearestNeighborsCtx(ctx, d.View(), netclus.PointID(p), 6)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(api.PointDists(want), kr.Results) {
				t.Fatalf("%s p=%d: kNN differs from the engine\nwant %v\ngot  %v", name, p, want, kr.Results)
			}
		}
		for _, workers := range []int{0, 1, 4} {
			var cr api.ClusterResponse
			getJSON(t, h, fmt.Sprintf("/v1/%s%s&workers=%d", name, clusterQ, workers), http.StatusOK, &cr)
			if (cr.Prune == nil) != isHot {
				t.Fatalf("%s workers=%d: prune block present = %v", name, workers, cr.Prune != nil)
			}
			if !reflect.DeepEqual(cold.Labels, cr.Labels) || cold.Clusters != cr.Clusters || cold.CorePoints != cr.CorePoints {
				t.Fatalf("%s workers=%d: clustering differs from the cold dataset's", name, workers)
			}
			if isHot && cr.Stats.RangeQueries != n.NumPoints() {
				t.Fatalf("%s workers=%d: %d range queries for %d points", name, workers, cr.Stats.RangeQueries, n.NumPoints())
			}
		}
	}

	var ds api.DatasetsResponse
	getJSON(t, h, "/v1/datasets", http.StatusOK, &ds)
	if len(ds.Datasets) != len(hot) {
		t.Fatalf("%d datasets listed", len(ds.Datasets))
	}
	for _, info := range ds.Datasets {
		if info.Bounds == hot[info.Name] || info.Hot != hot[info.Name] {
			t.Fatalf("%s: listed with bounds=%v hot=%v", info.Name, info.Bounds, info.Hot)
		}
	}
}
