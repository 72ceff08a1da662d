package server

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netclus"
	"netclus/internal/server/api"

	"context"
)

// testNetwork builds a small connected grid with points for serving tests.
func testNetwork(t testing.TB) *netclus.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	base, err := netclus.GridNetwork(12, 12, 10, 2, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	n, err := netclus.GenerateUniform(base, 400, rng)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// newTestServer serves one in-memory and one store-backed copy of the same
// network, both with pruning bounds.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	n := testNetwork(t)
	reg := NewRegistry()
	mem, err := NewNetworkDataset("mem", "test", n, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(mem); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := netclus.StoreOptions{PageSize: 1024, BufferBytes: 32 * 1024}
	if err := netclus.BuildStore(dir, n, opts); err != nil {
		t.Fatal(err)
	}
	disk, err := NewStoreDataset("disk", dir, opts, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(disk); err != nil {
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
	return s
}

func getJSON(t *testing.T, h http.Handler, url string, wantCode int, out any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != wantCode {
		t.Fatalf("GET %s: code = %d, want %d; body %s", url, rec.Code, wantCode, rec.Body)
	}
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, rec.Body, err)
		}
	}
}

func TestServeQueries(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	for _, ds := range []string{"mem", "disk"} {
		// Range, both flavours, pruned and plain, must agree on the count.
		var pruned, plain, dists api.RangeResponse
		getJSON(t, h, "/v1/"+ds+"/range?p=3&eps=25", http.StatusOK, &pruned)
		getJSON(t, h, "/v1/"+ds+"/range?p=3&eps=25&prune=0", http.StatusOK, &plain)
		getJSON(t, h, "/v1/"+ds+"/range?p=3&eps=25&dists=1", http.StatusOK, &dists)
		if pruned.Count == 0 || pruned.Count != plain.Count || pruned.Count != dists.Count {
			t.Fatalf("%s: range counts disagree: pruned=%d plain=%d dists=%d",
				ds, pruned.Count, plain.Count, dists.Count)
		}
		for _, pd := range dists.Results {
			if pd.Dist > 25 {
				t.Fatalf("%s: range dist %v > eps", ds, pd.Dist)
			}
		}

		// kNN pruned vs plain must return identical distances.
		var kp, kf api.KNNResponse
		getJSON(t, h, "/v1/"+ds+"/knn?p=3&k=7", http.StatusOK, &kp)
		getJSON(t, h, "/v1/"+ds+"/knn?p=3&k=7&prune=0", http.StatusOK, &kf)
		if !kp.Pruned || kf.Pruned {
			t.Fatalf("%s: pruned flags = %v/%v", ds, kp.Pruned, kf.Pruned)
		}
		if len(kp.Results) != 7 || len(kf.Results) != 7 {
			t.Fatalf("%s: knn lengths %d/%d", ds, len(kp.Results), len(kf.Results))
		}
		for i := range kp.Results {
			if kp.Results[i].Dist != kf.Results[i].Dist {
				t.Fatalf("%s: knn dist mismatch at %d: %v vs %v",
					ds, i, kp.Results[i].Dist, kf.Results[i].Dist)
			}
		}

		// Clustering via GET and POST.
		var cg api.ClusterResponse
		getJSON(t, h, "/v1/"+ds+"/cluster?algo=dbscan&eps=15&minpts=3", http.StatusOK, &cg)
		if cg.Clusters < 1 {
			t.Fatalf("%s: dbscan found no clusters", ds)
		}
		body := strings.NewReader(`{"algo":"kmedoids","k":4,"labels":true}`)
		req := httptest.NewRequest(http.MethodPost, "/v1/"+ds+"/cluster", body)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: POST cluster: %d %s", ds, rec.Code, rec.Body)
		}
		var cp api.ClusterResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &cp); err != nil {
			t.Fatal(err)
		}
		if cp.Clusters != 4 || len(cp.Labels) == 0 {
			t.Fatalf("%s: kmedoids clusters=%d labels=%d", ds, cp.Clusters, len(cp.Labels))
		}
	}
}

func TestServeErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	cases := []struct {
		url  string
		code int
	}{
		{"/v1/nope/knn?p=0&k=3", http.StatusNotFound},      // unknown dataset
		{"/v1/mem/knn?p=99999&k=3", http.StatusNotFound},   // unknown point
		{"/v1/mem/knn?p=0&k=0", http.StatusBadRequest},     // bad k
		{"/v1/mem/range?p=0&eps=0", http.StatusBadRequest}, // bad eps
		{"/v1/mem/range?p=x&eps=5", http.StatusBadRequest},
		{"/v1/mem/cluster?algo=wat&eps=5", http.StatusBadRequest},
		// A negative restart count panicked the engine; the largest int32
		// sized four arrays by it.
		{"/v1/mem/cluster?algo=kmedoids&k=3&restarts=-1", http.StatusBadRequest},
		{"/v1/mem/cluster?algo=kmedoids&k=3&restarts=2147483647", http.StatusBadRequest},
		{"/v1/mem/knn?p=0&k=3&timeout_ms=bogus", http.StatusBadRequest},
		// Huge timeouts clamp to MaxTimeout; multiplied out to a Duration
		// first, these two wrapped to a negative deadline and to 448µs.
		{"/v1/mem/knn?p=0&k=3&timeout_ms=9223372036855", http.StatusOK},
		{"/v1/mem/knn?p=1&k=3&timeout_ms=18446744073710", http.StatusOK},
		{fmt.Sprintf("/v1/mem/knn?p=2&k=3&timeout_ms=%d", math.MaxInt64), http.StatusOK},
	}
	for _, c := range cases {
		getJSON(t, h, c.url, c.code, nil)
	}
	var eb api.ErrorBody
	getJSON(t, h, "/v1/mem/cluster?algo=kmedoids&k=3&restarts=257", http.StatusBadRequest, &eb)
	if eb.Error.Code != api.CodeBadRequest || !strings.Contains(eb.Error.Message, "restarts") {
		t.Fatalf("restarts=257: envelope %+v", eb)
	}
	if n := s.Metrics().RequestCount("", http.StatusNotFound); n != 2 {
		t.Fatalf("404 count = %d, want 2", n)
	}
}

// TestServeRefusesNonFiniteDensityParams: a NaN or infinite eps and a
// minpts below 1 are refused with a 400 envelope on /range and on both
// flavours of /cluster, before the engine or the result cache see them.
func TestServeRefusesNonFiniteDensityParams(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	refused := func(method, url, body string) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, url, strings.NewReader(body)))
		var eb api.ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || rec.Code != http.StatusBadRequest || eb.Error.Code != api.CodeBadRequest {
			t.Fatalf("%s %s %s: %d %s", method, url, body, rec.Code, rec.Body)
		}
	}
	for _, ds := range []string{"mem", "disk"} {
		for _, eps := range []string{"NaN", "Inf", "-Inf", "%2BInf"} {
			refused(http.MethodGet, "/v1/"+ds+"/range?p=1&eps="+eps, "")
			refused(http.MethodGet, "/v1/"+ds+"/range?p=1&dists=1&eps="+eps, "")
			refused(http.MethodGet, "/v1/"+ds+"/cluster?algo=dbscan&eps="+eps, "")
			refused(http.MethodGet, "/v1/"+ds+"/cluster?algo=kmedoids&k=3&eps="+eps, "")
		}
		refused(http.MethodGet, "/v1/"+ds+"/cluster?algo=dbscan&eps=15&minpts=-5", "")
		refused(http.MethodPost, "/v1/"+ds+"/cluster", `{"algo":"dbscan","eps":15,"minpts":-5}`)
		refused(http.MethodPost, "/v1/"+ds+"/cluster", `{"algo":"epslink","eps":0}`)
	}
	if cs := s.cache.Stats(); cs.Misses != 0 || cs.Entries != 0 {
		t.Fatalf("refused requests reached the result cache: %+v", cs)
	}
	getJSON(t, h, "/healthz", http.StatusOK, nil)
}

func TestServeDatasetsAndHealth(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	getJSON(t, h, "/v1/disk/knn?p=1&k=3", http.StatusOK, nil)
	var dl struct {
		Datasets []api.DatasetInfo `json:"datasets"`
	}
	getJSON(t, h, "/v1/datasets", http.StatusOK, &dl)
	if len(dl.Datasets) != 2 {
		t.Fatalf("datasets = %d, want 2", len(dl.Datasets))
	}
	// Name-sorted: disk, mem.
	if dl.Datasets[0].Name != "disk" || dl.Datasets[1].Name != "mem" {
		t.Fatalf("order: %s, %s", dl.Datasets[0].Name, dl.Datasets[1].Name)
	}
	d := dl.Datasets[0]
	if d.Kind != "store" || !d.Bounds || d.Queries != 1 || d.Store == nil {
		t.Fatalf("disk info = %+v", d)
	}
	if d.Store.Buffer.LogicalReads == 0 {
		t.Fatal("serving the kNN query moved no buffer counters")
	}
	if dl.Datasets[1].Kind != "memory" || dl.Datasets[1].Store != nil {
		t.Fatalf("mem info = %+v", dl.Datasets[1])
	}

	var hr api.HealthResponse
	getJSON(t, h, "/healthz", http.StatusOK, &hr)
	if hr.Status != "ok" || hr.Datasets != 2 {
		t.Fatalf("health = %+v", hr)
	}
}

func TestServeMetricsExposition(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	getJSON(t, h, "/v1/disk/knn?p=1&k=3", http.StatusOK, nil)
	getJSON(t, h, "/v1/mem/range?p=1&eps=20", http.StatusOK, nil)
	getJSON(t, h, "/v1/nope/knn?p=1&k=3", http.StatusNotFound, nil)

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`netclusd_requests_total{endpoint="knn",dataset="disk",code="200"} 1`,
		`netclusd_requests_total{endpoint="knn",dataset="nope",code="404"} 1`,
		`netclusd_request_seconds_bucket{endpoint="range",le="+Inf"} 1`,
		`netclusd_request_seconds_count{endpoint="knn"} 2`,
		"netclusd_admission_capacity",
		// The /metrics request itself is the one in flight.
		"netclusd_inflight_requests 1",
		"netclusd_panics_total 0",
		`netclusd_dataset_queries_total{dataset="disk"} 1`,
		`netclusd_store_logical_reads_total{dataset="disk"}`,
		`netclusd_store_cache_hits_total{dataset="disk",cache="adj"}`,
		`netclusd_prune_candidates_total{dataset="mem"}`,
		"netclusd_result_cache_hits_total 0",
		"netclusd_result_cache_misses_total 2",
		"netclusd_result_cache_evictions_total 0",
		"netclusd_result_cache_singleflight_shared_total 0",
		"netclusd_result_cache_bytes",
		"netclusd_result_cache_capacity_bytes",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", body)
	}

	checkExposition(t, body)
}

func TestServeAdmissionSheds(t *testing.T) {
	// Capacity 1, queue 1: with the unit held and the queue slot taken, the
	// next request must shed with 429 and a Retry-After hint.
	s := newTestServer(t, Config{Capacity: 1, MaxQueue: 1, RetryAfter: 3 * time.Second})
	h := s.Handler()

	// Hold the only admission unit by hand, then park one waiter to fill
	// the queue.
	if err := s.Admission().Acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := s.Admission().Acquire(context.Background(), 1); err != nil {
			t.Error(err)
			return
		}
		<-release
		s.Admission().Release(1)
	}()
	waitFor(t, func() bool { return s.Admission().Stats().Waiting == 1 })

	req := httptest.NewRequest(http.MethodGet, "/v1/mem/knn?p=1&k=3", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("code = %d, want 429; body %s", rec.Code, rec.Body)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want 3", ra)
	}
	s.Admission().Release(1) // free the held unit; the parked waiter gets it
	close(release)
	wg.Wait()

	if s.Admission().Stats().Rejected != 1 {
		t.Fatalf("rejected = %d", s.Admission().Stats().Rejected)
	}
	// Capacity free again: requests flow.
	getJSON(t, h, "/v1/mem/knn?p=1&k=3", http.StatusOK, nil)
}

func TestServeDeadline(t *testing.T) {
	// The deadline must flow into the engine and come back as 504. The
	// standard fixture's 400-point clustering job can finish inside a 1ms
	// budget on a fast host, so this test serves a dedicated larger network
	// whose unpruned whole-network DBSCAN reliably outlives the deadline:
	// minpts above the point count, so no expansion can stop early.
	rng := rand.New(rand.NewSource(7))
	base, err := netclus.GridNetwork(50, 50, 10, 2, 80, rng)
	if err != nil {
		t.Fatal(err)
	}
	n, err := netclus.GenerateUniform(base, 5000, rng)
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewNetworkDataset("big", "test", n, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Add(big); err != nil {
		t.Fatal(err)
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
	req := httptest.NewRequest(http.MethodGet,
		"/v1/big/cluster?algo=dbscan&eps=1e9&minpts=6000&prune=0&timeout_ms=1", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("code = %d, want 504; body %s", rec.Code, rec.Body)
	}
}

func TestServePanicIsolation(t *testing.T) {
	s := newTestServer(t, Config{})
	s.mux.HandleFunc("GET /boom", s.instrumented("boom", "", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	}))
	h := s.Handler()
	getJSON(t, h, "/boom", http.StatusInternalServerError, nil)
	if s.Metrics().Panics() != 1 {
		t.Fatalf("panics = %d", s.Metrics().Panics())
	}
	// The process — and the mux — must keep serving.
	getJSON(t, h, "/v1/mem/knn?p=1&k=3", http.StatusOK, nil)
}

// TestServeDrainUnderLoad drives concurrent traffic through a real listener,
// then shuts down mid-flight: every request accepted before the drain must
// complete (200), later ones are refused at the TCP or handler level — never
// dropped with a 5xx other than the draining 503.
func TestServeDrainUnderLoad(t *testing.T) {
	s := newTestServer(t, Config{Addr: "127.0.0.1:0"})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ok, refused, other atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				url := fmt.Sprintf("%s/v1/mem/knn?p=%d&k=5", ts.URL, (w*31+i)%400)
				resp, err := http.Get(url)
				if err != nil {
					refused.Add(1)
					continue
				}
				switch resp.StatusCode {
				case http.StatusOK:
					ok.Add(1)
				case http.StatusServiceUnavailable:
					refused.Add(1)
				default:
					other.Add(1)
					t.Errorf("unexpected status %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(w)
	}

	time.Sleep(100 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	close(stop)
	wg.Wait()

	if ok.Load() == 0 {
		t.Fatal("no requests succeeded before the drain")
	}
	if other.Load() != 0 {
		t.Fatalf("%d requests got an unexpected status", other.Load())
	}
	// After the drain the stores are closed; a straggler request through the
	// in-process handler reports draining, not a panic or a raw store error.
	req := httptest.NewRequest(http.MethodGet, "/v1/disk/knn?p=1&k=3", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain code = %d, want 503", rec.Code)
	}
	t.Logf("drain: ok=%d refused=%d", ok.Load(), refused.Load())
}

// TestServeConcurrentMixed hammers all endpoints concurrently; meant for
// -race. Every response must be a known status and the scratch pool must not
// cross wires (range counts stay consistent).
func TestServeConcurrentMixed(t *testing.T) {
	s := newTestServer(t, Config{Capacity: 4, MaxQueue: 256})
	h := s.Handler()
	var want api.RangeResponse
	getJSON(t, h, "/v1/disk/range?p=9&eps=22", http.StatusOK, &want)

	var wg sync.WaitGroup
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				var rec *httptest.ResponseRecorder
				switch (w + i) % 4 {
				case 0:
					var got api.RangeResponse
					getJSON(t, h, "/v1/disk/range?p=9&eps=22", http.StatusOK, &got)
					if got.Count != want.Count {
						t.Errorf("range count %d, want %d", got.Count, want.Count)
					}
				case 1:
					getJSON(t, h, "/v1/mem/knn?p=2&k=4", http.StatusOK, nil)
				case 2:
					getJSON(t, h, "/v1/disk/knn?p=5&k=4&prune=0", http.StatusOK, nil)
				case 3:
					req := httptest.NewRequest(http.MethodGet, "/v1/mem/cluster?algo=epslink&eps=12", nil)
					rec = httptest.NewRecorder()
					h.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						t.Errorf("cluster: %d %s", rec.Code, rec.Body)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := s.Metrics().RequestCount("", 0); got < 12*15 {
		t.Fatalf("request count %d < %d", got, 12*15)
	}
}

// TestServeHotReplica registers the same store twice — cold and as a hot CSR
// replica — and checks the hot dataset answers point queries identically,
// reports zero buffer/page-read deltas in /metrics (queries bypassed the
// page buffer), and exposes the compile-time and resident-bytes gauges.
func TestServeHotReplica(t *testing.T) {
	n := testNetwork(t)
	dir := t.TempDir()
	opts := netclus.StoreOptions{PageSize: 1024, BufferBytes: 32 * 1024}
	if err := netclus.BuildStore(dir, n, opts); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	cold, err := NewStoreDataset("cold", dir, opts, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(cold); err != nil {
		t.Fatal(err)
	}
	hot, err := NewStoreDataset("hot", dir, opts, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(hot); err != nil {
		t.Fatal(err)
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

	for p := 0; p < 40; p++ {
		var cr, hr api.RangeResponse
		getJSON(t, h, fmt.Sprintf("/v1/cold/range?p=%d&eps=25&dists=1", p), http.StatusOK, &cr)
		getJSON(t, h, fmt.Sprintf("/v1/hot/range?p=%d&eps=25&dists=1", p), http.StatusOK, &hr)
		if len(cr.Results) == 0 && p == 0 {
			t.Fatal("empty range result")
		}
		if fmt.Sprint(cr.Results) != fmt.Sprint(hr.Results) {
			t.Fatalf("p=%d: hot range differs from cold\ncold %v\nhot  %v", p, cr.Results, hr.Results)
		}
		var ck, hk api.KNNResponse
		getJSON(t, h, fmt.Sprintf("/v1/cold/knn?p=%d&k=5&prune=0", p), http.StatusOK, &ck)
		getJSON(t, h, fmt.Sprintf("/v1/hot/knn?p=%d&k=5&prune=0", p), http.StatusOK, &hk)
		if fmt.Sprint(ck.Results) != fmt.Sprint(hk.Results) {
			t.Fatalf("p=%d: hot knn differs from cold", p)
		}
	}

	var ds struct {
		Datasets []api.DatasetInfo `json:"datasets"`
	}
	getJSON(t, h, "/v1/datasets", http.StatusOK, &ds)
	for _, info := range ds.Datasets {
		switch info.Name {
		case "hot":
			if !info.Hot || info.CSR == nil {
				t.Fatalf("hot dataset not reported hot: %+v", info)
			}
			if info.Store == nil || info.Store.Buffer.LogicalReads != 0 {
				t.Fatalf("hot dataset touched the page buffer: %+v", info.Store)
			}
		case "cold":
			if info.Hot || info.CSR != nil {
				t.Fatalf("cold dataset reported hot: %+v", info)
			}
			if info.Store == nil || info.Store.Buffer.LogicalReads == 0 {
				t.Fatal("cold dataset should have buffer traffic")
			}
		}
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	body := rec.Body.String()
	for _, want := range []string{
		`netclusd_dataset_hot{dataset="cold"} 0`,
		`netclusd_dataset_hot{dataset="hot"} 1`,
		`netclusd_csr_compile_seconds{dataset="hot"}`,
		`netclusd_csr_resident_bytes{dataset="hot"}`,
		`netclusd_store_logical_reads_total{dataset="hot"} 0`,
		`netclusd_store_physical_reads_total{dataset="hot"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", body)
	}
}

// newMemServer serves the deterministic test network as one in-memory dataset
// named "mem". cacheBytes < 0 disables the result cache, so two such servers
// give a cached/uncached pair over byte-identical data.
func newMemServer(t *testing.T, cacheBytes int64) *Server {
	t.Helper()
	reg := NewRegistry()
	mem, err := NewNetworkDataset("mem", "test", testNetwork(t), 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(mem); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Registry: reg, ResultCacheBytes: cacheBytes})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func getRaw(t *testing.T, h http.Handler, url string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: code = %d; body %s", url, rec.Code, rec.Body)
	}
	return rec, rec.Body.Bytes()
}

// TestServeCacheByteIdentical: a cached response must be byte-for-byte the
// response an uncached server computes for the same request, and repeats must
// be served from cache. A narrower radius after a wider one for the same point
// is a miss of its own: the cache answers exact keys only.
func TestServeCacheByteIdentical(t *testing.T) {
	cached := newMemServer(t, 0)  // default budget
	direct := newMemServer(t, -1) // caching off
	urls := []string{
		"/v1/mem/range?p=3&eps=25",
		"/v1/mem/range?p=3&eps=25&dists=1",
		"/v1/mem/range?p=3&eps=12.5&dists=1",
		"/v1/mem/knn?p=3&k=7",
		"/v1/mem/cluster?algo=dbscan&eps=15&minpts=3",
	}
	for _, url := range urls {
		rec1, body1 := getRaw(t, cached.Handler(), url)
		if got := rec1.Header().Get("X-Netclusd-Cache"); got != "miss" {
			t.Fatalf("%s: first X-Netclusd-Cache = %q, want miss", url, got)
		}
		rec2, body2 := getRaw(t, cached.Handler(), url)
		if got := rec2.Header().Get("X-Netclusd-Cache"); got != "hit" {
			t.Fatalf("%s: second X-Netclusd-Cache = %q, want hit", url, got)
		}
		if string(body1) != string(body2) {
			t.Fatalf("%s: hit body differs from miss body\n%s\n%s", url, body1, body2)
		}
		recD, bodyD := getRaw(t, direct.Handler(), url)
		if got := recD.Header().Get("X-Netclusd-Cache"); got != "" {
			t.Fatalf("%s: uncached server tagged X-Netclusd-Cache %q", url, got)
		}
		if string(body1) != string(bodyD) {
			t.Fatalf("%s: cached body differs from uncached compute\n%s\n%s", url, body1, bodyD)
		}
	}
	st := cached.ResultCache().Stats()
	if st.Hits != int64(len(urls)) || st.Misses == 0 {
		t.Fatalf("cache stats = %+v", st)
	}
	if direct.ResultCache() != nil {
		t.Fatal("direct server has a cache")
	}
}

// TestServeCacheEpochBump: bumping a dataset's epoch strands every cached
// answer — the next request misses and reports the new epoch.
func TestServeCacheEpochBump(t *testing.T) {
	s := newMemServer(t, 0)
	d, _ := s.reg.Get("mem")
	url := "/v1/mem/knn?p=3&k=5"

	_, _ = getRaw(t, s.Handler(), url)
	rec, body := getRaw(t, s.Handler(), url)
	if got := rec.Header().Get("X-Netclusd-Cache"); got != "hit" {
		t.Fatalf("X-Netclusd-Cache = %q, want hit", got)
	}
	var before api.KNNResponse
	if err := json.Unmarshal(body, &before); err != nil {
		t.Fatal(err)
	}
	if before.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", before.Epoch)
	}

	if e := d.BumpEpoch(); e != 2 {
		t.Fatalf("BumpEpoch = %d, want 2", e)
	}
	rec, body = getRaw(t, s.Handler(), url)
	if got := rec.Header().Get("X-Netclusd-Cache"); got != "miss" {
		t.Fatalf("post-bump X-Netclusd-Cache = %q, want miss", got)
	}
	var after api.KNNResponse
	if err := json.Unmarshal(body, &after); err != nil {
		t.Fatal(err)
	}
	if after.Epoch != 2 {
		t.Fatalf("post-bump epoch = %d, want 2", after.Epoch)
	}
}

// TestServeCacheOptOut: a server run with its cache off (ResultCacheBytes
// < 0, which -result-cache-mb 0 maps to) computes every request, tags none,
// and reports no result-cache block in /v1/datasets or /metrics.
func TestServeCacheOptOut(t *testing.T) {
	s := newMemServer(t, -1)
	if s.ResultCache() != nil {
		t.Fatal("server with the cache off has a cache")
	}
	for i := 0; i < 2; i++ {
		rec, _ := getRaw(t, s.Handler(), "/v1/mem/knn?p=3&k=5")
		if got := rec.Header().Get("X-Netclusd-Cache"); got != "" {
			t.Fatalf("uncached server tagged X-Netclusd-Cache %q", got)
		}
	}
	var dl api.DatasetsResponse
	getJSON(t, s.Handler(), "/v1/datasets", http.StatusOK, &dl)
	if dl.ResultCache != nil || len(dl.Datasets) != 1 || dl.Datasets[0].ResultCache != nil {
		t.Fatalf("uncached server reports cache stats: %+v", dl)
	}
	_, metrics := getRaw(t, s.Handler(), "/metrics")
	if strings.Contains(string(metrics), "netclusd_result_cache_") {
		t.Fatal("uncached server exports result-cache families")
	}
}

// TestServeUnencodableNotCached: a kNN whose second distance overflows to
// +Inf (two edges of weight 1e308 between the points) has no JSON body. It
// answers 500 internal in the error envelope on every request, cached server
// or not, and nothing is put into the cache.
func TestServeUnencodableNotCached(t *testing.T) {
	b := netclus.NewBuilder()
	b.AddNodes(3)
	b.AddEdge(0, 1, 1e308)
	b.AddEdge(1, 2, 1e308)
	b.AddPoint(0, 1, 0, 0)
	b.AddPoint(1, 2, 1e308, 0)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, cacheBytes := range []int64{0, -1} {
		ds, err := NewNetworkDataset("x", "test", n, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		reg := NewRegistry()
		if err := reg.Add(ds); err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Registry: reg, ResultCacheBytes: cacheBytes})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			var env api.ErrorBody
			getJSON(t, s.Handler(), "/v1/x/knn?p=0&k=2&prune=0", http.StatusInternalServerError, &env)
			if env.Error.Code != api.CodeInternal || !strings.Contains(env.Error.Message, "+Inf") {
				t.Fatalf("cache %d, request %d: envelope = %+v", cacheBytes, i, env)
			}
		}
		if c := s.ResultCache(); c != nil {
			if st := c.Stats(); st.Entries != 0 || st.Hits != 0 {
				t.Fatalf("unencodable body reached the cache: %+v", st)
			}
		}
		// A query that stays finite still answers.
		getJSON(t, s.Handler(), "/v1/x/range?p=0&eps=1&dists=1", http.StatusOK, nil)
	}
}

// TestServeBodyLimit: both POST endpoints read at most maxBodyBytes. A body
// of exactly that size is served; one byte more is a 413 in the uniform
// error envelope, whatever the bytes are.
func TestServeBodyLimit(t *testing.T) {
	s, _ := newLiveServer(t, Config{})
	h := s.Handler()
	for _, tc := range []struct{ url, open string }{
		{"/v1/live/cluster", `{"algo":"dbscan","eps":15,"minpts":3`},
		{"/v1/datasets/live/points", `{"ops":[{"op":"insert","near":0,"pos":0.5}]`},
	} {
		// Padding sits inside the JSON value, so the decoder has to read all
		// of it to reach the closing brace.
		body := tc.open + strings.Repeat(" ", maxBodyBytes-len(tc.open)-1) + "}"
		postJSON(t, h, tc.url, body, http.StatusOK, nil)
		var eb api.ErrorBody
		postJSON(t, h, tc.url, " "+body, http.StatusRequestEntityTooLarge, &eb)
		if eb.Error.Code != api.CodeBadRequest || eb.Error.Message == "" {
			t.Errorf("%s: oversized body answered %+v", tc.url, eb)
		}
	}
}

// BenchmarkServeCacheHit is one result-cache hit per endpoint through
// Server.Handler(); -benchmem reports the allocations the cached-read path
// costs on top of the recorder and URL parsing.
func BenchmarkServeCacheHit(b *testing.B) {
	reg := NewRegistry()
	mem, err := NewNetworkDataset("mem", "test", testNetwork(b), 4, false)
	if err != nil {
		b.Fatal(err)
	}
	if err := reg.Add(mem); err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{Registry: reg})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	for _, url := range []string{
		"/v1/mem/range?p=3&eps=25&dists=1",
		"/v1/mem/knn?p=3&k=7",
		"/v1/mem/cluster?algo=dbscan&eps=15&minpts=3",
	} {
		req := httptest.NewRequest(http.MethodGet, url, nil)
		h.ServeHTTP(httptest.NewRecorder(), req)
		b.Run(strings.SplitN(strings.TrimPrefix(url, "/v1/mem/"), "?", 2)[0], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.ServeHTTP(httptest.NewRecorder(), req)
			}
		})
	}
}

// TestServeErrorEnvelope pins the uniform error payload shape:
// {"error":{"code","message"[,"retry_after_ms"]}}.
func TestServeErrorEnvelope(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	cases := []struct {
		url      string
		code     int
		wantCode string
	}{
		{"/v1/nope/knn?p=0&k=3", http.StatusNotFound, "not_found"},
		{"/v1/mem/knn?p=99999&k=3", http.StatusNotFound, "not_found"},
		{"/v1/mem/range?p=0&eps=0", http.StatusBadRequest, "bad_request"},
		{"/v1/mem/cluster?algo=wat&eps=5", http.StatusBadRequest, "bad_request"},
	}
	for _, c := range cases {
		var env api.ErrorBody
		getJSON(t, h, c.url, c.code, &env)
		if env.Error.Code != c.wantCode || env.Error.Message == "" {
			t.Errorf("%s: envelope = %+v, want code %s", c.url, env, c.wantCode)
		}
	}
}

// TestDatasetsGolden pins the /v1/datasets JSON contract: every key the
// pre-cache API exposed is still there under the same name, and the new keys
// ride alongside.
func TestDatasetsGolden(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	getJSON(t, h, "/v1/disk/knn?p=1&k=3", http.StatusOK, nil)
	var doc struct {
		Datasets []map[string]json.RawMessage `json:"datasets"`
	}
	getJSON(t, h, "/v1/datasets", http.StatusOK, &doc)
	if len(doc.Datasets) != 2 {
		t.Fatalf("datasets = %d", len(doc.Datasets))
	}
	for _, d := range doc.Datasets {
		legacy := []string{
			"name", "kind", "source", "nodes", "edges", "points",
			"bounds", "hot", "queries", "prune",
		}
		for _, k := range legacy {
			if _, ok := d[k]; !ok {
				t.Errorf("dataset %s: legacy key %q missing", d["name"], k)
			}
		}
		for _, k := range []string{"epoch", "result_cache"} {
			if _, ok := d[k]; !ok {
				t.Errorf("dataset %s: new key %q missing", d["name"], k)
			}
		}
	}
	// The store-backed entry keeps its nested store stats block.
	var disk map[string]json.RawMessage
	for _, d := range doc.Datasets {
		if string(d["name"]) == `"disk"` {
			disk = d
		}
	}
	if disk == nil {
		t.Fatal("no disk dataset")
	}
	if _, ok := disk["store"]; !ok {
		t.Error("disk dataset lost its store key")
	}
}
