package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"netclus"
	"netclus/internal/server"
	"netclus/internal/server/api"
)

// writeTestData writes a small grid network with points both as text files
// (prefix) and as a disk store (dir), and returns the two paths.
func writeTestData(t *testing.T) (prefix, dir string) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	base, err := netclus.GridNetwork(10, 10, 10, 2, 15, rng)
	if err != nil {
		t.Fatal(err)
	}
	n, err := netclus.GenerateUniform(base, 300, rng)
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	prefix = filepath.Join(tmp, "net")
	nodes, err := os.Create(prefix + ".node")
	if err != nil {
		t.Fatal(err)
	}
	defer nodes.Close()
	edges, err := os.Create(prefix + ".edge")
	if err != nil {
		t.Fatal(err)
	}
	defer edges.Close()
	pts, err := os.Create(prefix + ".pnt")
	if err != nil {
		t.Fatal(err)
	}
	defer pts.Close()
	if err := netclus.WriteNetwork(n, nodes, edges, pts); err != nil {
		t.Fatal(err)
	}
	dir = filepath.Join(tmp, "store")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	// Default page size: buildRegistry opens stores with default options.
	if err := netclus.BuildStore(dir, n, netclus.StoreOptions{}); err != nil {
		t.Fatal(err)
	}
	return prefix, dir
}

func TestDataFlagsAndStoreDetection(t *testing.T) {
	var d dataFlags
	if err := d.Set("ol=data/ol"); err != nil {
		t.Fatal(err)
	}
	if err := d.Set("sf=data/sf.store"); err != nil {
		t.Fatal(err)
	}
	if err := d.Set("hotsf=data/sf.store,hot"); err != nil {
		t.Fatal(err)
	}
	if got := d.String(); got != "ol=data/ol sf=data/sf.store hotsf=data/sf.store,hot" {
		t.Fatalf("String = %q", got)
	}
	// String echoes what was accepted, defaults left unspelled.
	var l dataFlags
	if err := l.Set("live=data/ol,live,eps=5"); err != nil {
		t.Fatal(err)
	}
	if got := l.String(); got != "live=data/ol,live,eps=5" || l[0].eps != 5 || l[0].minpts != 0 {
		t.Fatalf("String = %q for %+v", got, l[0])
	}
	if !d[2].hot || d[0].hot || d[1].hot {
		t.Fatalf("hot flags = %+v", d)
	}
	for _, bad := range []string{"nope", "=path", "name=", "x=p,warm"} {
		if err := d.Set(bad); err == nil {
			t.Fatalf("Set(%q) succeeded", bad)
		}
	}
	// compact=N went with compaction: it is an unknown option now.
	if err := l.Set("x=/tmp/smoke,live,compact=8"); err == nil || !strings.Contains(err.Error(), `unknown dataset option "compact=8"`) {
		t.Fatalf("Set(compact=8): %v, want an unknown-option error", err)
	}
	prefix, dir := writeTestData(t)
	if isStoreDir(prefix) {
		t.Error("text prefix detected as store")
	}
	if !isStoreDir(dir) {
		t.Error("store dir not detected")
	}
	// An adj.idx value past the end of adj.dat is refused when the store
	// opens, not found by the first query that reads the node. The index's
	// leftmost leaf is page 2 of 4096 bytes; its first value is node 0's.
	path := filepath.Join(dir, "adj.idx")
	idx, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if key := binary.LittleEndian.Uint64(idx[2*4096+3:]); key != 0 {
		t.Fatalf("adj.idx page 2 starts with key %d, want 0: the layout this test pokes has changed", key)
	}
	binary.LittleEndian.PutUint64(idx[2*4096+3+8:], math.MaxUint32)
	if err := os.WriteFile(path, idx, 0o644); err != nil {
		t.Fatal(err)
	}
	reg, err := buildRegistry([]dataSpec{{name: "bad", path: dir}}, 256, 0, log.New(io.Discard, "", 0))
	if err == nil {
		reg.Close()
		t.Fatal("a store whose adj.idx points past adj.dat was served")
	}
	if !strings.Contains(err.Error(), "corrupt record") || !strings.Contains(err.Error(), "adj.idx") {
		t.Fatalf("damaged adj.idx: %v, want the corrupt-record error naming it", err)
	}
}

func TestBuildRegistryBothKinds(t *testing.T) {
	prefix, dir := writeTestData(t)
	logger := log.New(os.Stderr, "", 0)
	reg, err := buildRegistry([]dataSpec{
		{name: "mem", path: prefix},
		{name: "disk", path: dir},
	}, 256, 4, logger)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	list := reg.List()
	if len(list) != 2 {
		t.Fatalf("datasets = %d", len(list))
	}
	for _, d := range list {
		if d.Bounds() == nil {
			t.Errorf("dataset %s has no bounds", d.Name)
		}
		if d.View().NumPoints() != 300 {
			t.Errorf("dataset %s points = %d", d.Name, d.View().NumPoints())
		}
	}
	if _, err := buildRegistry([]dataSpec{{name: "x", path: filepath.Join(t.TempDir(), "missing")}},
		256, 0, logger); err == nil {
		t.Fatal("missing dataset path did not error")
	}
	// A format-1 store (bytes 24-27 of meta.bin zero) is never served: every
	// serving form refuses it with the storage layer's rebuild message.
	meta, err := os.ReadFile(filepath.Join(dir, "meta.bin"))
	if err != nil {
		t.Fatal(err)
	}
	clear(meta[24:28])
	if err := os.WriteFile(filepath.Join(dir, "meta.bin"), meta, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []dataSpec{
		{name: "old", path: dir},
		{name: "old", path: dir, hot: true},
		{name: "old", path: dir, shards: 2},
		{name: "old", path: dir, live: true},
	} {
		_, err := buildRegistry([]dataSpec{spec}, 256, 0, logger)
		if err == nil || !strings.Contains(err.Error(), "rebuild it with `netclus store`") {
			t.Fatalf("%+v on a format-1 store: %v", spec, err)
		}
	}
}

func TestParseMixAndPercentiles(t *testing.T) {
	mix, err := parseMix("knn:8,range:4,cluster:1")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 3 {
		t.Fatalf("mix = %v", mix)
	}
	rng := rand.New(rand.NewSource(1))
	counts := map[string]int{}
	for i := 0; i < 13000; i++ {
		counts[pickEndpoint(mix, rng)]++
	}
	if counts["knn"] < counts["range"] || counts["range"] < counts["cluster"] {
		t.Fatalf("weights not respected: %v", counts)
	}
	for _, bad := range []string{"", "knn", "knn:x", "warp:1", "knn:0"} {
		if _, err := parseMix(bad); err == nil {
			t.Fatalf("parseMix(%q) succeeded", bad)
		}
	}
	lats := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := percentile(lats, 50); p != 5 {
		t.Fatalf("p50 = %v", p)
	}
	if p := percentile(lats, 99); p != 10 {
		t.Fatalf("p99 = %v", p)
	}
	if p := percentile(nil, 50); p != 0 {
		t.Fatalf("p50 of empty = %v", p)
	}
}

// TestLoadtestAgainstServer boots the serving stack in-process, drives the
// loadtest core at it, and then drains mid-traffic: the summary must show
// zero transport errors and only 200s before the drain begins.
func TestLoadtestAgainstServer(t *testing.T) {
	prefix, dir := writeTestData(t)
	logger := log.New(os.Stderr, "", 0)
	reg, err := buildRegistry([]dataSpec{
		{name: "mem", path: prefix},
		{name: "disk", path: dir},
	}, 256, 4, logger)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	points, cacheStats, _, err := datasetProbe(client, ts.URL, "disk")
	if err != nil {
		t.Fatal(err)
	}
	if points != 300 {
		t.Fatalf("points = %d", points)
	}
	if cacheStats == nil {
		t.Fatal("no result-cache stats for a cached dataset")
	}
	if _, _, _, err := datasetProbe(client, ts.URL, "nope"); err == nil {
		t.Fatal("unknown dataset did not error")
	}

	mix, err := parseMix("knn:6,range:3,cluster:1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ltConfig{
		target: ts.URL, dataset: "disk", points: points, workers: 4,
		duration: 400 * time.Millisecond, mix: mix, eps: 20, k: 5, seed: 1,
	}
	sum := runLoadtest(client, cfg)
	if sum.Errors != 0 {
		t.Fatalf("%d transport errors", sum.Errors)
	}
	if sum.Requests == 0 {
		t.Fatal("no requests ran")
	}
	for ep, es := range sum.Endpoints {
		for code, n := range es.Status {
			if code != "200" {
				t.Errorf("%s: %d requests got status %s", ep, n, code)
			}
		}
		if es.P50MS <= 0 || es.MaxMS < es.P99MS || es.P99MS < es.P50MS {
			t.Errorf("%s: implausible latencies %+v", ep, es)
		}
	}

	if sum.ResultCache == nil {
		t.Fatal("summary has no result-cache delta")
	}
	if total := sum.ResultCache.Hits + sum.ResultCache.Misses + sum.ResultCache.SingleflightShared; total == 0 {
		t.Fatal("result-cache delta saw no traffic")
	}

	// Drain while a second loadtest is in flight: nothing may fail with a
	// transport error or a non-(200|503) status.
	done := make(chan ltSummary, 1)
	go func() {
		cfg2 := cfg
		cfg2.duration = 2 * time.Second
		cfg2.seed = 2
		done <- runLoadtest(client, cfg2)
	}()
	time.Sleep(150 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	sum = <-done
	if sum.Errors != 0 {
		t.Fatalf("drain dropped %d requests with transport errors", sum.Errors)
	}
	okSeen := false
	for ep, es := range sum.Endpoints {
		for code, n := range es.Status {
			switch code {
			case "200":
				okSeen = true
			case "503": // refused after the drain began
			default:
				t.Errorf("%s: %d requests got status %s during drain", ep, n, code)
			}
		}
	}
	if !okSeen {
		t.Fatal("no request completed before the drain")
	}
	if got := summarize("t", "d", 1, 0, nil); got.Requests != 0 || got.PerSecond != 0 {
		t.Fatalf("empty summarize = %+v", got)
	}
}

func TestServeFlagValidation(t *testing.T) {
	if err := serve([]string{"-addr", "127.0.0.1:0"}); err == nil {
		t.Fatal("serve without -data did not error")
	}
	if err := loadtest([]string{"-duration", "1ms"}); err == nil {
		t.Fatal("loadtest without -dataset did not error")
	}
}

// TestServeSignalDrain runs the real serve() entry point and delivers a
// SIGTERM: it must come back nil (clean drain) while requests succeed
// beforehand.
func TestServeSignalDrain(t *testing.T) {
	prefix, _ := writeTestData(t)
	const addr = "127.0.0.1:39181"
	errCh := make(chan error, 1)
	go func() {
		errCh <- serve([]string{
			"-addr", addr,
			"-data", "mem=" + prefix,
			"-landmarks", "4",
			"-drain-timeout", "5s",
		})
	}()
	// Wait for the listener, then check a query round-trips.
	var resp *http.Response
	var err error
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err = http.Get("http://" + addr + "/healthz")
		if err == nil || time.Now().After(deadline) {
			break
		}
		select {
		case serveErr := <-errCh:
			t.Fatalf("serve exited early: %v", serveErr)
		default:
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("healthz never came up: %v", err)
	}
	resp.Body.Close()
	resp, err = http.Get("http://" + addr + "/v1/mem/knn?p=1&k=3")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("knn: %v %v", err, resp)
	}
	resp.Body.Close()

	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("serve after signal: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not drain after signal")
	}
}

// TestLoadtestCompareHotCold boots cold and hot replicas of the same store,
// runs the same mix against both, and checks the delta report is well formed.
func TestLoadtestCompareHotCold(t *testing.T) {
	_, dir := writeTestData(t)
	logger := log.New(os.Stderr, "", 0)
	reg, err := buildRegistry([]dataSpec{
		{name: "cold", path: dir},
		{name: "hot", path: dir, hot: true},
	}, 256, 4, logger)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	points, _, _, err := datasetProbe(client, ts.URL, "hot")
	if err != nil {
		t.Fatal(err)
	}
	mix, err := parseMix("knn:6,range:3")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ltConfig{
		target: ts.URL, dataset: "cold", points: points, workers: 4,
		duration: 300 * time.Millisecond, mix: mix, eps: 20, k: 5, seed: 1,
	}
	cold := runLoadtest(client, cfg)
	cfg.dataset = "hot"
	cfg.run = 1
	hot := runLoadtest(client, cfg)
	if cold.Errors != 0 || hot.Errors != 0 {
		t.Fatalf("transport errors: cold %d, hot %d", cold.Errors, hot.Errors)
	}
	cmp := compareSummaries(cold, hot)
	if len(cmp.Delta) == 0 {
		t.Fatal("empty delta report")
	}
	for ep, d := range cmp.Delta {
		if d.P50Speedup <= 0 || d.MeanSpeedup <= 0 || d.Throughput <= 0 {
			t.Errorf("%s: implausible delta %+v", ep, d)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestLoadtestWriteMix drives a read-write mix against a live dataset and
// checks the summary: write latencies recorded, applied batches counted from
// the server's own delta stats, and at least some mutations acknowledged.
func TestLoadtestWriteMix(t *testing.T) {
	prefix, _ := writeTestData(t)
	logger := log.New(os.Stderr, "", 0)
	reg, err := buildRegistry([]dataSpec{
		{name: "live", path: prefix, live: true},
	}, 256, 4, logger)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	points, _, live, err := datasetProbe(client, ts.URL, "live")
	if err != nil {
		t.Fatal(err)
	}
	if live == nil {
		t.Fatal("live dataset reports no delta stats")
	}
	mix, err := parseMix("knn:4,range:2,write:3")
	if err != nil {
		t.Fatal(err)
	}
	writeMix, err := parseWriteMix("insert:2,move:1,delete:1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ltConfig{
		target: ts.URL, dataset: "live", points: points, workers: 4,
		duration: 400 * time.Millisecond, mix: mix, writeMix: writeMix,
		eps: 20, k: 5, seed: 1,
	}
	sum := runLoadtest(client, cfg)
	if sum.Errors != 0 {
		t.Fatalf("transport errors: %d", sum.Errors)
	}
	es, ok := sum.Endpoints["write"]
	if !ok || es.Requests == 0 {
		t.Fatalf("no write samples recorded: %+v", sum.Endpoints)
	}
	if es.P50MS <= 0 || es.P99MS < es.P50MS {
		t.Fatalf("implausible write latencies: %+v", es)
	}
	if es.Status["200"] == 0 {
		t.Fatalf("no write succeeded: %+v", es.Status)
	}
	if sum.Writes == nil {
		t.Fatal("summary has no write stats for a live dataset")
	}
	if sum.Writes.Batches == 0 || sum.Writes.Ops < sum.Writes.Batches {
		t.Fatalf("implausible write stats: %+v", *sum.Writes)
	}
	if int64(es.Status["200"]) != sum.Writes.Batches {
		t.Fatalf("acked writes %d != applied batches %d", es.Status["200"], sum.Writes.Batches)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestSubstreams: same inputs reproduce the same seed; changing seed, run or
// worker gives a distinct one. The old seed+worker derivation collided across
// -compare legs (run was not an input at all).
func TestSubstreams(t *testing.T) {
	if substream(1, 0, 3) != substream(1, 0, 3) {
		t.Fatal("substream is not deterministic")
	}
	seen := map[int64]string{}
	for seed := int64(1); seed <= 3; seed++ {
		for run := 0; run < 2; run++ {
			for w := 0; w < 8; w++ {
				s := substream(seed, run, w)
				if prev, dup := seen[s]; dup {
					t.Fatalf("substream collision: (%d,%d,%d) and %s", seed, run, w, prev)
				}
				seen[s] = fmt.Sprintf("(%d,%d,%d)", seed, run, w)
			}
		}
	}
}

// TestZipfPicker: with s > 1 the draw must be heavily skewed (the top point
// rank dominates) and deterministic for a fixed stream; every produced URL
// must decode through the same api DTOs the server uses.
func TestZipfPicker(t *testing.T) {
	mix, err := parseMix("knn:6,range:3,cluster:1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := &ltConfig{points: 300, mix: mix, eps: 20, k: 5, zipf: 1.2}
	draw := func(seed int64) (map[string]int, map[string]int) {
		rng := rand.New(rand.NewSource(seed))
		p := newReqPicker(rng, cfg)
		eps, urls := map[string]int{}, map[string]int{}
		for i := 0; i < 4000; i++ {
			ep, vals := p.pick()
			eps[ep]++
			urls[ep+"?"+vals.Encode()]++
			switch ep {
			case "range":
				if _, err := api.DecodeRange(vals); err != nil {
					t.Fatalf("picker range values do not decode: %v", err)
				}
			case "knn":
				if _, err := api.DecodeKNN(vals); err != nil {
					t.Fatalf("picker knn values do not decode: %v", err)
				}
			case "cluster":
				if _, err := api.DecodeClusterValues(vals); err != nil {
					t.Fatalf("picker cluster values do not decode: %v", err)
				}
			}
		}
		return eps, urls
	}
	eps1, urls1 := draw(7)
	_, urls2 := draw(7)
	if fmt.Sprint(urls1) != fmt.Sprint(urls2) {
		t.Fatal("same stream produced different requests")
	}
	// knn carries the top mix weight, so under zipf it must dominate hard.
	if eps1["knn"] <= eps1["range"] || eps1["range"] < eps1["cluster"] {
		t.Fatalf("zipf mix skew not respected: %v", eps1)
	}
	// Skew concentrates requests: far fewer distinct URLs than draws.
	if len(urls1) > 1500 {
		t.Fatalf("zipf draw too flat: %d distinct URLs of 4000", len(urls1))
	}
	// Uniform mode spreads much wider over the same point space.
	cfg.zipf = 0
	rng := rand.New(rand.NewSource(7))
	p := newReqPicker(rng, cfg)
	uni := map[string]bool{}
	for i := 0; i < 4000; i++ {
		ep, vals := p.pick()
		uni[ep+"?"+vals.Encode()] = true
	}
	if len(uni) <= len(urls1) {
		t.Fatalf("uniform (%d) not wider than zipf (%d)", len(uni), len(urls1))
	}
}

// TestLoadtestCacheCompare serves the same store from two servers — one with
// the result cache, one with it off — and drives a skewed mix at both: the
// cached leg must report a result-cache delta with hits, the uncached leg
// none.
func TestLoadtestCacheCompare(t *testing.T) {
	_, dir := writeTestData(t)
	logger := log.New(os.Stderr, "", 0)
	serveStore := func(cacheBytes int64) *httptest.Server {
		reg, err := buildRegistry([]dataSpec{{name: "sf", path: dir, hot: true}}, 256, 4, logger)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{Registry: reg, ResultCacheBytes: cacheBytes})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Errorf("shutdown: %v", err)
			}
		})
		return ts
	}
	cached, uncached := serveStore(0), serveStore(-1)
	client := cached.Client()

	points, rc, _, err := datasetProbe(client, cached.URL, "sf")
	if err != nil {
		t.Fatal(err)
	}
	if rc == nil {
		t.Fatal("cached server reports no cache stats")
	}
	if _, rc, _, err := datasetProbe(client, uncached.URL, "sf"); err != nil || rc != nil {
		t.Fatalf("uncached server probe = %+v, %v", rc, err)
	}
	mix, err := parseMix("knn:6,range:3")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ltConfig{
		target: uncached.URL, dataset: "sf", points: points, workers: 4,
		duration: 300 * time.Millisecond, mix: mix, eps: 20, k: 5, seed: 1, zipf: 1.2,
	}
	cold := runLoadtest(client, cfg)
	cfg.target = cached.URL
	cfg.run = 1
	hot := runLoadtest(client, cfg)
	if cold.Errors != 0 || hot.Errors != 0 {
		t.Fatalf("transport errors: cold %d, hot %d", cold.Errors, hot.Errors)
	}
	if cold.ResultCache != nil {
		t.Fatalf("uncached leg reported cache stats %+v", cold.ResultCache)
	}
	if hot.ResultCache == nil {
		t.Fatal("cached leg reported no cache stats")
	}
	if hot.ResultCache.Hits == 0 || hot.ResultCache.HitRatio <= 0 {
		t.Fatalf("zipf run produced no cache reuse: %+v", hot.ResultCache)
	}
	cmp := compareSummaries(cold, hot)
	if len(cmp.Delta) == 0 {
		t.Fatal("empty delta report")
	}
}
