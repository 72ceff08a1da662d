package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"netclus"
	"netclus/internal/matrix"
	"netclus/internal/server/api"
)

// TestBackendContract holds every constructor to its row of the dataset-kind
// table in DESIGN.md §8: which kinds build bounds, accept writes or carry a
// compiled replica; that a default kNN is pruned exactly where bounds exist
// and answers like the engine; that a k beyond any point count answers like
// k = N on every kind; that a default DBSCAN reports a prune block exactly
// where bounds exist and labels identically everywhere, at every worker count;
// that every read-only kind refuses a mutation with the same envelope; that
// every kind's result-cache counters sum to the cache-wide totals; and that
// Server.Shutdown followed by Dataset.Close — the order the benchmark uses —
// is clean on every kind.
func TestBackendContract(t *testing.T) {
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
	set, err := netclus.PartitionNetwork(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	must := mustDataset(t)
	rows := []struct {
		d                 *Dataset
		bounds, hot, live bool
	}{
		{d: must(NewStoreDataset("cold-disk", dir, opts, 4, false)), bounds: true},
		{d: must(NewNetworkDataset("cold-mem", "test", n, 4, false)), bounds: true},
		{d: must(NewStoreDataset("hot-disk", dir, opts, 4, true)), hot: true},
		{d: must(NewNetworkDataset("hot-mem", "test", n, 4, true)), hot: true},
		{d: must(NewSnapshotDataset("snap", "test", sn, 4)), hot: true},
		{d: must(NewShardedDataset("sharded", "test", set))},
		{d: must(NewLiveDataset("live", "test", sn, netclus.LiveOptions{})), live: true},
	}
	reg := NewRegistry()
	for _, row := range rows {
		d := row.d
		if got := d.Bounds() != nil; got != row.bounds {
			t.Fatalf("%s: Bounds() != nil is %v", d.Name, got)
		}
		if got := d.Live() != nil; got != row.live {
			t.Fatalf("%s: Live() != nil is %v", d.Name, got)
		}
		if got := d.HotSnapshot() != nil; got != row.hot {
			t.Fatalf("%s: HotSnapshot() != nil is %v", d.Name, got)
		}
		if err := reg.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	ctx := context.Background()

	const clusterQ = "/cluster?algo=dbscan&eps=15&minpts=3&labels=1"
	var cold api.ClusterResponse
	getJSON(t, h, "/v1/cold-mem"+clusterQ, http.StatusOK, &cold)
	if cold.Prune == nil || cold.Clusters < 1 {
		t.Fatalf("cold-mem: default clustering ran unpruned or found nothing: %+v", cold)
	}
	// A hot dataset labels on its snapshot, whose flag pass queries only the
	// points their own edge leaves short of minpts (clusterQ's eps and minpts).
	hotQueries, err := matrix.FlagQueries(n, 15, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	var refusal string
	for _, row := range rows {
		name := row.d.Name
		for p := 0; p < 20; p++ {
			var kr api.KNNResponse
			getJSON(t, h, fmt.Sprintf("/v1/%s/knn?p=%d&k=6", name, p), http.StatusOK, &kr)
			if kr.Pruned != row.bounds {
				t.Fatalf("%s: default kNN answered pruned=%v", name, kr.Pruned)
			}
			want, err := netclus.KNearestNeighborsCtx(ctx, row.d.View(), netclus.PointID(p), 6)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(api.PointDists(want), kr.Results) {
				t.Fatalf("%s p=%d: kNN differs from the engine\nwant %v\ngot  %v", name, p, want, kr.Results)
			}
		}
		// A hostile k answers like k = N: every reachable point, and a
		// server that is still up (sized by k, a hot dataset's result
		// storage was an unrecoverable out-of-memory abort).
		var atN api.KNNResponse
		getJSON(t, h, fmt.Sprintf("/v1/%s/knn?p=1&k=%d", name, n.NumPoints()), http.StatusOK, &atN)
		if len(atN.Results) == 0 || len(atN.Results) > n.NumPoints()-1 {
			t.Fatalf("%s: k=N answered %d results", name, len(atN.Results))
		}
		hostile := []int64{math.MaxInt32, 1<<32 + 5, math.MaxInt64}
		for _, k := range hostile {
			var kr api.KNNResponse
			getJSON(t, h, fmt.Sprintf("/v1/%s/knn?p=1&k=%d", name, k), http.StatusOK, &kr)
			if !reflect.DeepEqual(atN.Results, kr.Results) {
				t.Fatalf("%s: k=%d answered %d results, k=N %d", name, k, len(kr.Results), len(atN.Results))
			}
		}
		getJSON(t, h, "/v1/"+name+"/knn?p=99999&k=3", http.StatusNotFound, nil)
		// A repeat is a hit and a narrower radius a miss of its own, on every
		// kind: the cache answers exact keys only.
		for _, q := range []string{"eps=25", "eps=25", "eps=12.5"} {
			getJSON(t, h, "/v1/"+name+"/range?p=3&dists=1&"+q, http.StatusOK, nil)
		}
		var cr api.ClusterResponse
		getJSON(t, h, "/v1/"+name+clusterQ, http.StatusOK, &cr)
		if (cr.Prune != nil) != row.bounds {
			t.Fatalf("%s: prune block present = %v", name, cr.Prune != nil)
		}
		if !reflect.DeepEqual(cold.Labels, cr.Labels) || cold.Clusters != cr.Clusters || cold.CorePoints != cr.CorePoints {
			t.Fatalf("%s: clustering differs from the cold dataset's", name)
		}
		if row.hot && cr.Stats.RangeQueries != hotQueries {
			t.Fatalf("%s: %d range queries, %d points are short on their edge", name, cr.Stats.RangeQueries, hotQueries)
		}

		const batch = `{"ops":[{"op":"insert","near":0,"pos":0.5}]}`
		if row.live {
			postJSON(t, h, "/v1/datasets/"+name+"/points", batch, http.StatusOK, nil)
			continue
		}
		var eb api.ErrorBody
		postJSON(t, h, "/v1/datasets/"+name+"/points", batch, http.StatusBadRequest, &eb)
		msg := strings.ReplaceAll(eb.Error.Message, name, "X")
		if refusal == "" {
			refusal = msg
		}
		if eb.Error.Code != api.CodeBadRequest || !strings.Contains(msg, "immutable") || msg != refusal {
			t.Fatalf("%s: write refused with %+v, other kinds said %q", name, eb, refusal)
		}
	}

	var ds api.DatasetsResponse
	getJSON(t, h, "/v1/datasets", http.StatusOK, &ds)
	if len(ds.Datasets) != len(rows) {
		t.Fatalf("%d datasets listed", len(ds.Datasets))
	}
	var sum api.ResultCacheStats
	for _, info := range ds.Datasets {
		rc := info.ResultCache
		sum.Hits += rc.Hits
		sum.Misses += rc.Misses
		sum.SingleflightShared += rc.SingleflightShared
	}
	if sum != ds.ResultCache.ResultCacheStats || sum.Hits < int64(len(rows)) {
		t.Fatalf("per-dataset cache counters sum to %+v, cache-wide totals are %+v", sum, ds.ResultCache.ResultCacheStats)
	}
	for _, info := range ds.Datasets {
		for _, row := range rows {
			if row.d.Name != info.Name {
				continue
			}
			if info.Bounds != row.bounds || info.Hot != row.hot || (info.CSR != nil) != row.hot ||
				(info.Live != nil) != row.live || (info.Shards > 0) != (info.Kind == "sharded") {
				t.Fatalf("%s listed as %+v", info.Name, info)
			}
		}
	}

	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for _, row := range rows {
		if err := row.d.Close(); err != nil {
			t.Fatalf("%s: Close after Shutdown: %v", row.d.Name, err)
		}
	}
}
