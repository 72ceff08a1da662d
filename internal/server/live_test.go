package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netclus"
	"netclus/internal/server/api"
)

const (
	liveEps    = 25.0
	liveMinPts = 3
)

// newLiveServer serves one mutable copy of the test network, with the
// incremental labelling configured for (liveEps, liveMinPts).
func newLiveServer(t *testing.T, cfg Config) (*Server, *Dataset) {
	t.Helper()
	n := testNetwork(t)
	sn, err := netclus.Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewLiveDataset("live", "test", sn, netclus.LiveOptions{
		Live: &netclus.LiveClusterOptions{Eps: liveEps, MinPts: liveMinPts},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Add(d); err != nil {
		t.Fatal(err)
	}
	cfg.Registry = reg
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, d
}

// postJSON posts body to url and decodes the response into out.
func postJSON(t *testing.T, h http.Handler, url, body string, wantCode int, out any) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, url, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != wantCode {
		t.Fatalf("POST %s %s: code = %d, want %d; body %s", url, body, rec.Code, wantCode, rec.Body)
	}
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("POST %s: bad JSON %q: %v", url, rec.Body, err)
		}
	}
	return rec
}

// TestServeLiveWrites drives the write path end to end: inserts, moves and
// deletes through the DTO layer commit atomically, bump the epoch exactly
// once per batch, and are visible to the very next query.
func TestServeLiveWrites(t *testing.T) {
	s, d := newLiveServer(t, Config{})
	h := s.Handler()
	before := d.View().NumPoints()

	var mr api.MutateResponse
	postJSON(t, h, "/v1/datasets/live/points",
		`{"ops":[{"op":"insert","near":0,"pos":0.5,"tag":7},{"op":"insert","near":1,"pos":0.25}]}`,
		http.StatusOK, &mr)
	if mr.Epoch != 2 || mr.Applied != 2 || mr.Points != before+2 {
		t.Fatalf("insert batch: %+v, want epoch 2, applied 2, points %d", mr, before+2)
	}

	// The new points are immediately queryable, stamped with the new epoch.
	newest := mr.Points - 1
	var rr api.RangeResponse
	getJSON(t, h, fmt.Sprintf("/v1/live/range?p=%d&eps=%g&dists=1", newest, liveEps), http.StatusOK, &rr)
	if rr.Epoch != 2 || rr.Count == 0 {
		t.Fatalf("range over inserted point: epoch %d count %d", rr.Epoch, rr.Count)
	}

	// Move and delete in one batch: one more bump, net one point fewer.
	postJSON(t, h, "/v1/datasets/live/points",
		fmt.Sprintf(`{"ops":[{"op":"move","point":%d,"pos":0.1},{"op":"delete","point":3}]}`, newest),
		http.StatusOK, &mr)
	if mr.Epoch != 3 || mr.Points != before+1 {
		t.Fatalf("move+delete batch: %+v, want epoch 3, points %d", mr, before+1)
	}
	if va := d.viewAt(); va.epoch != 3 || va.graph.NumPoints() != before+1 {
		t.Fatalf("dataset sees epoch %d / %d points", va.epoch, va.graph.NumPoints())
	}

	// /v1/datasets reports the live view's point count and the write stats.
	var doc api.DatasetsResponse
	getJSON(t, h, "/v1/datasets", http.StatusOK, &doc)
	if doc.Datasets[0].Points != before+1 || doc.Datasets[0].Epoch != 3 {
		t.Fatalf("datasets entry: %+v", doc.Datasets[0])
	}
	if st := doc.Datasets[0].Live; st == nil || st.Batches != 2 || st.Ops != 4 {
		t.Fatalf("live stats: %+v", doc.Datasets[0].Live)
	}
	if got := s.metrics.RequestCount("write", http.StatusOK); got != 2 {
		t.Fatalf("write endpoint observed %d requests, want 2", got)
	}
}

// TestServeLiveClusterReflectsWrites asserts the served clustering answer
// tracks mutations: the live fast path's labels equal a full engine recompute
// on the same published view, for both maintained algorithms.
func TestServeLiveClusterReflectsWrites(t *testing.T) {
	s, d := newLiveServer(t, Config{})
	h := s.Handler()
	postJSON(t, h, "/v1/datasets/live/points",
		`{"ops":[{"op":"insert","near":5,"pos":0.9},{"op":"delete","point":10},{"op":"move","point":20,"pos":0.3}]}`,
		http.StatusOK, nil)

	view := d.View()
	for _, algo := range []string{"dbscan", "epslink"} {
		var cr api.ClusterResponse
		getJSON(t, h, fmt.Sprintf("/v1/live/cluster?algo=%s&eps=%g&minpts=%d&labels=1", algo, liveEps, liveMinPts),
			http.StatusOK, &cr)
		if cr.Epoch != 2 {
			t.Fatalf("%s: epoch %d, want 2", algo, cr.Epoch)
		}
		// The fast path never traverses; zero stats are its fingerprint.
		if cr.Stats.RangeQueries != 0 || cr.Stats.NodesSettled != 0 {
			t.Fatalf("%s: live path ran a traversal: %+v", algo, cr.Stats)
		}
		var want []int32
		switch algo {
		case "dbscan":
			res, err := netclus.DBSCANCtx(context.Background(), view, netclus.DBSCANOptions{Eps: liveEps, MinPts: liveMinPts})
			if err != nil {
				t.Fatal(err)
			}
			want = res.Labels
			if cr.CorePoints != res.CorePoints {
				t.Fatalf("dbscan: core points %d, want %d", cr.CorePoints, res.CorePoints)
			}
		case "epslink":
			res, err := netclus.EpsLinkCtx(context.Background(), view, netclus.EpsLinkOptions{Eps: liveEps})
			if err != nil {
				t.Fatal(err)
			}
			want = res.Labels
		}
		if !reflect.DeepEqual(cr.Labels, want) {
			t.Fatalf("%s: served labels diverge from full recompute", algo)
		}
		if cr.Clusters != netclus.CountClusters(want) {
			t.Fatalf("%s: clusters %d, want %d", algo, cr.Clusters, netclus.CountClusters(want))
		}
	}

	// Mismatched parameters fall back to the engine (and report its work).
	var cr api.ClusterResponse
	getJSON(t, h, fmt.Sprintf("/v1/live/cluster?algo=dbscan&eps=%g&minpts=%d", liveEps/2, liveMinPts),
		http.StatusOK, &cr)
	if cr.Stats.RangeQueries == 0 {
		t.Fatalf("fallback path reported no traversal work: %+v", cr.Stats)
	}
}

// TestServeLiveReadsUncached: a live dataset's reads never touch the result
// cache. Repeated range, kNN and cluster reads interleaved with writes and a
// refused batch leave the cache's counters where they were, carry no
// X-Netclusd-Cache tag, and carry the epoch of the view published by the last
// acked write.
func TestServeLiveReadsUncached(t *testing.T) {
	s, _ := newLiveServer(t, Config{})
	h := s.Handler()
	before := s.ResultCache().Stats()
	urls := []string{
		fmt.Sprintf("/v1/live/range?p=3&eps=%g", liveEps),
		"/v1/live/knn?p=3&k=5",
		fmt.Sprintf("/v1/live/cluster?algo=dbscan&eps=%g&minpts=%d&labels=1", liveEps, liveMinPts),
	}
	reads := func(step string, epoch int64) (labels int) {
		t.Helper()
		for _, url := range urls {
			for i := 0; i < 2; i++ {
				rec, body := getRaw(t, h, url)
				if tag, ok := rec.Header()["X-Netclusd-Cache"]; ok {
					t.Fatalf("%s: %s carries X-Netclusd-Cache %q", step, url, tag)
				}
				var resp struct {
					Epoch  int64   `json:"epoch"`
					Labels []int32 `json:"labels"`
				}
				if err := json.Unmarshal(body, &resp); err != nil {
					t.Fatal(err)
				}
				if resp.Epoch != epoch {
					t.Fatalf("%s: %s at epoch %d, want %d", step, url, resp.Epoch, epoch)
				}
				labels = max(labels, len(resp.Labels))
			}
		}
		if got := s.ResultCache().Stats(); got != before {
			t.Fatalf("%s: live reads moved the result cache: %+v, was %+v", step, got, before)
		}
		return labels
	}
	write := func(body string) int64 {
		t.Helper()
		var mr api.MutateResponse
		postJSON(t, h, "/v1/datasets/live/points", body, http.StatusOK, &mr)
		return mr.Epoch
	}

	n0 := reads("base view", 1)
	acked := write(`{"ops":[{"op":"insert","near":2,"pos":0.4}]}`)
	if n := reads("after a write", acked); n != n0+1 {
		t.Fatalf("labels after an insert: %d, want %d", n, n0+1)
	}
	postJSON(t, h, "/v1/datasets/live/points", `{"ops":[{"op":"delete","point":999999}]}`, http.StatusNotFound, nil)
	reads("after a refused batch", acked)
	acked = write(`{"ops":[{"op":"delete","point":0}]}`)
	if n := reads("after a second write", acked); n != n0 {
		t.Fatalf("labels after a delete: %d, want %d", n, n0)
	}
}

// TestServeMutateErrors pins the error envelope on the write path: malformed
// batches, unresolvable targets, and writes to immutable datasets all come
// back as the uniform {"error":{...}} body with the right code.
func TestServeMutateErrors(t *testing.T) {
	s, _ := newLiveServer(t, Config{})
	h := s.Handler()
	cases := []struct {
		name, body string
		wantStatus int
		wantCode   string
	}{
		{"empty batch", `{"ops":[]}`, http.StatusBadRequest, api.CodeBadRequest},
		{"unknown op", `{"ops":[{"op":"upsert","near":0,"pos":0.5}]}`, http.StatusBadRequest, api.CodeBadRequest},
		{"insert missing placement", `{"ops":[{"op":"insert","pos":0.5}]}`, http.StatusBadRequest, api.CodeBadRequest},
		{"insert n1 without n2", `{"ops":[{"op":"insert","n1":0,"pos":0.5}]}`, http.StatusBadRequest, api.CodeBadRequest},
		{"move without point", `{"ops":[{"op":"move","pos":0.5}]}`, http.StatusBadRequest, api.CodeBadRequest},
		{"delete unknown point", `{"ops":[{"op":"delete","point":999999}]}`, http.StatusNotFound, api.CodeNotFound},
		{"insert on missing edge", `{"ops":[{"op":"insert","n1":0,"n2":0,"pos":0}]}`, http.StatusBadRequest, api.CodeBadRequest},
		{"duplicate target", `{"ops":[{"op":"delete","point":1},{"op":"delete","point":1}]}`, http.StatusBadRequest, api.CodeBadRequest},
		{"not json", `{"ops":`, http.StatusBadRequest, api.CodeBadRequest},
	}
	for _, tc := range cases {
		var eb api.ErrorBody
		postJSON(t, h, "/v1/datasets/live/points", tc.body, tc.wantStatus, &eb)
		if eb.Error.Code != tc.wantCode {
			t.Errorf("%s: code %q, want %q (message %q)", tc.name, eb.Error.Code, tc.wantCode, eb.Error.Message)
		}
	}
	// A rejected batch must not burn an epoch.
	var doc api.DatasetsResponse
	getJSON(t, h, "/v1/datasets", http.StatusOK, &doc)
	if doc.Datasets[0].Epoch != 1 {
		t.Fatalf("rejected batches moved the epoch to %d", doc.Datasets[0].Epoch)
	}

	// Writes to an immutable dataset are a 400, same envelope.
	s2 := newTestServer(t, Config{})
	var eb api.ErrorBody
	postJSON(t, s2.Handler(), "/v1/datasets/mem/points",
		`{"ops":[{"op":"delete","point":1}]}`, http.StatusBadRequest, &eb)
	if eb.Error.Code != api.CodeBadRequest || !strings.Contains(eb.Error.Message, "immutable") {
		t.Fatalf("immutable dataset write: %+v", eb)
	}
}

// TestServeMutateOpsCap: a batch of api.MaxMutateOps inserts commits; one op
// more is the 400 envelope naming the cap, and burns no epoch.
func TestServeMutateOpsCap(t *testing.T) {
	s, d := newLiveServer(t, Config{})
	h := s.Handler()
	batch := func(n int) string {
		ops := make([]string, n)
		for i := range ops {
			ops[i] = fmt.Sprintf(`{"op":"insert","near":0,"pos":%g}`, float64(i)/float64(n))
		}
		return `{"ops":[` + strings.Join(ops, ",") + `]}`
	}
	before := d.View().NumPoints()
	var mr api.MutateResponse
	postJSON(t, h, "/v1/datasets/live/points", batch(api.MaxMutateOps), http.StatusOK, &mr)
	if mr.Applied != api.MaxMutateOps || mr.Points != before+api.MaxMutateOps || mr.Epoch != 2 {
		t.Fatalf("batch at the cap: %+v", mr)
	}
	var eb api.ErrorBody
	postJSON(t, h, "/v1/datasets/live/points", batch(api.MaxMutateOps+1), http.StatusBadRequest, &eb)
	if eb.Error.Code != api.CodeBadRequest || !strings.Contains(eb.Error.Message, fmt.Sprint(api.MaxMutateOps)) {
		t.Fatalf("batch over the cap: %+v", eb)
	}
	if e := d.viewAt().epoch; e != 2 {
		t.Fatalf("the refused batch moved the epoch to %d", e)
	}
}

// TestLiveScratchPool (run under -race in CI) reads through the live
// backend's scratch pool while a writer grows the point count past the
// head-room of the pooled kernel scratch. Every view is a snapshot of one
// family, so any pooled box serves any of them; every reply must equal a
// direct call, on fresh scratch, on the view the request pinned.
func TestLiveScratchPool(t *testing.T) {
	s, d := newLiveServer(t, Config{})
	ov := d.Live()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(99))
	grow := func() {
		n := ov.Current().Points
		ops := make([]netclus.LiveOp, 16)
		for i := range ops {
			ops[i] = netclus.LiveInsertNear(netclus.PointID(rng.Intn(n)), rng.Float64(), 0)
		}
		if _, err := ov.Apply(ctx, ops); err != nil {
			t.Fatalf("Apply: %v", err)
		}
	}

	// First, without the scheduler's say: a box pooled for one view serves a
	// view that has outgrown it, answering the grown view's last point.
	grow()
	small := d.viewAt()
	box := d.backend.scratch(small.graph)
	if _, err := box.sc.RangeQueryCtx(ctx, small.graph, 0, liveEps); err != nil {
		t.Fatal(err)
	}
	for ov.Current().Points <= small.graph.NumPoints()*2 {
		grow()
	}
	big := d.viewAt()
	last := netclus.PointID(big.graph.NumPoints() - 1)
	got, err := box.sc.RangeQueryDistCtx(ctx, big.graph, last, liveEps)
	if err != nil {
		t.Fatalf("a box pooled for %d points, on a view of %d: %v", small.graph.NumPoints(), big.graph.NumPoints(), err)
	}
	want, err := netclus.ScratchFor(big.graph).RangeQueryDistCtx(ctx, big.graph, last, liveEps)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("a box pooled for %d points answers a view of %d differently (%v)", small.graph.NumPoints(), big.graph.NumPoints(), err)
	}
	d.putScratch(box)

	var (
		wg    sync.WaitGroup
		stop  atomic.Bool
		reads atomic.Int64
	)
	halt := func() {
		stop.Store(true)
		wg.Wait()
	}
	defer halt()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				va := d.viewAt()
				req := api.RangeRequest{Point: netclus.PointID(rng.Intn(va.graph.NumPoints())), Eps: liveEps, Dists: true}
				got, err := s.computeRange(ctx, d, va, req)
				if err != nil {
					t.Errorf("epoch %d: range: %v", va.epoch, err)
					return
				}
				want, err := netclus.ScratchFor(va.graph).RangeQueryDistCtx(ctx, va.graph, req.Point, req.Eps)
				if err != nil || !reflect.DeepEqual(got.Results, api.PointDists(want)) {
					t.Errorf("epoch %d: range(%d) through the pool differs from a direct call on the pinned view (%v)", va.epoch, req.Point, err)
					return
				}
				reads.Add(1)
			}
		}(int64(r) + 1)
	}

	// The writer waits for one more read after each batch, so the readers
	// meet every view it publishes, and boxes pooled at the start are still
	// around when the view has outgrown them.
	for start := ov.Current().Points; ov.Current().Points <= start+start/8+64+100; {
		grow()
		for seen, deadline := reads.Load(), time.Now().Add(10*time.Second); reads.Load() == seen; {
			if time.Now().After(deadline) || t.Failed() {
				t.Fatalf("readers stopped (failed=%v)", t.Failed())
			}
			runtime.Gosched()
		}
	}
}
