package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"netclus"
)

var updateGolden = flag.Bool("update", false, "rewrite internal/server/testdata/*.golden from this run")

// mustDataset returns the unwrapper of a dataset constructor's result.
func mustDataset(t testing.TB) func(*Dataset, error) *Dataset {
	return func(d *Dataset, err error) *Dataset {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
}

// newGoldenServer serves the test network as one dataset of every kind —
// cold store, cold memory, hot (a compiled store, so it carries the csr and
// the store block), sharded and live — with every machine-dependent default
// (the admission capacity) pinned. The cold datasets'
// bounds are built before the script runs: their reads are booked to startup,
// so the store counters pin serving traffic over the record cache the build
// leaves warm, whichever request of the script happens to prune first (the
// lazy build itself is TestColdBoundsLazy's).
func newGoldenServer(t *testing.T) (*Server, string) {
	t.Helper()
	n := testNetwork(t)
	dir := t.TempDir()
	opts := netclus.StoreOptions{PageSize: 1024, BufferBytes: 32 * 1024}
	if err := netclus.BuildStore(dir, n, opts); err != nil {
		t.Fatal(err)
	}
	set, err := netclus.PartitionNetwork(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := netclus.Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	must := mustDataset(t)
	reg := NewRegistry()
	for _, d := range []*Dataset{
		must(NewStoreDataset("cold-disk", dir, opts, 4, false)),
		must(NewNetworkDataset("cold-mem", "test", n, 4, false)),
		must(NewStoreDataset("hot-disk", dir, opts, 4, true)),
		must(NewShardedDataset("sharded", "test", set)),
		must(NewLiveDataset("live", "test", sn, netclus.LiveOptions{
			Live: &netclus.LiveClusterOptions{Eps: liveEps, MinPts: liveMinPts},
		})),
	} {
		if d.HasBounds() && d.Bounds() == nil {
			t.Fatalf("%s: bounds build failed", d.Name)
		}
		if err := reg.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(Config{Registry: reg, Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, dir
}

// goldenScript is the fixed request sequence behind the golden files: every
// endpoint on every kind (miss, hit, two radii for one point, pruned and plain, GET and
// POST clustering, the live dataset's maintained labels), the error classes,
// and one committed plus one rejected write batch.
func goldenScript() [][2]string {
	var script [][2]string
	for _, ds := range []string{"cold-disk", "cold-mem", "hot-disk", "sharded", "live"} {
		for _, q := range []string{
			"range?p=3&eps=25&dists=1",
			"range?p=3&eps=12.5&dists=1",
			"range?p=3&eps=15",
			"range?p=7&eps=20",
			"range?p=7&eps=20",
			"range?p=7&eps=20&prune=0",
			"knn?p=3&k=7",
			"knn?p=3&k=7&prune=0",
			"knn?k=7&p=3",
			"cluster?algo=dbscan&eps=15&minpts=3",
			"cluster?algo=dbscan&eps=15&minpts=3&workers=1&minsup=3",
			"cluster?algo=epslink&eps=12&minsup=2",
			fmt.Sprintf("cluster?algo=dbscan&eps=%g&minpts=%d", liveEps, liveMinPts),
			fmt.Sprintf("cluster?algo=epslink&eps=%g", liveEps),
		} {
			script = append(script, [2]string{"/v1/" + ds + "/" + q, ""})
		}
		script = append(script, [2]string{"/v1/" + ds + "/cluster", `{"algo":"kmedoids","k":4,"seed":5}`})
	}
	return append(script,
		[2]string{"/v1/nope/knn?p=1&k=3", ""},
		[2]string{"/v1/cold-mem/knn?p=99999&k=3", ""},
		[2]string{"/v1/cold-mem/knn?p=0&k=0", ""},
		[2]string{"/v1/cold-mem/knn?p=0&k=3&timeout_ms=bogus", ""},
		[2]string{"/v1/hot-disk/cluster", `{"algo":`},
		[2]string{"/v1/datasets/live/points", `{"ops":[{"op":"insert","near":0,"pos":0.5,"tag":7},{"op":"move","point":20,"pos":0.3},{"op":"delete","point":10}]}`},
		[2]string{"/v1/datasets/live/points", `{"ops":[{"op":"delete","point":999999}]}`},
		[2]string{"/v1/datasets/live/points", `{"ops":[]}`},
		[2]string{"/v1/datasets/cold-mem/points", `{"ops":[{"op":"delete","point":1}]}`},
		[2]string{"/v1/datasets/sharded/points", `{"ops":`},
		[2]string{"/v1/live/range?p=3&eps=25&dists=1", ""},
		[2]string{fmt.Sprintf("/v1/live/cluster?algo=dbscan&eps=%g&minpts=%d&labels=1", liveEps, liveMinPts), ""},
		[2]string{"/v1/datasets", ""},
		[2]string{"/metrics", ""},
	)
}

var (
	// Values derived from a clock: latency histograms and sums, compile and
	// pause gauges.
	timedSample = regexp.MustCompile(`(?m)^(netclusd_\w*_seconds\w*(?:\{[^}]*\})?) .*$`)
	timedField  = regexp.MustCompile(`"(compile_ns|live_maintain_ns)":[^,}\]]+`)
)

// runGoldenScript plays the script and returns the transcript (one
// "METHOD url -> status [cache tag]" line plus the body per request) and the
// two documents the last two requests fetched, all with clock-derived values
// and the store's temp directory normalised.
func runGoldenScript(t *testing.T) (transcript, datasets, metrics string) {
	t.Helper()
	s, dir := newGoldenServer(t)
	h := s.Handler()
	var out strings.Builder
	for _, step := range goldenScript() {
		method, body := http.MethodGet, strings.NewReader(step[1])
		if step[1] != "" {
			method = http.MethodPost
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, step[0], body))
		text := strings.ReplaceAll(rec.Body.String(), dir, "STORE")
		switch step[0] {
		case "/metrics":
			metrics = timedSample.ReplaceAllString(text, "$1 T")
			continue
		case "/v1/datasets":
			var pretty bytes.Buffer
			if err := json.Indent(&pretty, []byte(timedField.ReplaceAllString(text, `"$1":0`)), "", " "); err != nil {
				t.Fatalf("/v1/datasets: %v\n%s", err, text)
			}
			datasets = pretty.String()
			continue
		}
		fmt.Fprintf(&out, "%s %s %s -> %d", method, step[0], step[1], rec.Code)
		for _, hdr := range []string{"Content-Type", "X-Netclusd-Cache", "Retry-After"} {
			if v := rec.Header().Get(hdr); v != "" {
				fmt.Fprintf(&out, " %s=%s", hdr, v)
			}
		}
		fmt.Fprintf(&out, "\n%s", text)
	}
	return out.String(), datasets, metrics
}

// TestGoldenExposition pins, byte for byte, what the serving tier says about
// a registry holding every dataset kind after a fixed request script: each
// response of the script, the /v1/datasets document and the /metrics
// exposition. Run with -update to rewrite the files after an intended change.
func TestGoldenExposition(t *testing.T) {
	transcript, datasets, metrics := runGoldenScript(t)
	for name, got := range map[string]string{
		"script.golden":   transcript,
		"datasets.golden": datasets,
		"metrics.golden":  metrics,
	} {
		path := filepath.Join("testdata", name)
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s differs from this run (go test ./internal/server -run TestGoldenExposition -update rewrites it):\n%s",
				path, firstDiff(string(want), got))
		}
	}
	checkExposition(t, metrics)
}

// firstDiff reports the first line on which two texts differ.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n want %s\n got  %s", i+1, wl, gl)
		}
	}
	return "no difference"
}

// checkExposition asserts the text exposition is well formed: every family is
// declared by exactly one # TYPE line, above all of its samples, and the
// samples of one family are contiguous.
func checkExposition(t *testing.T, body string) {
	t.Helper()
	declared := map[string]bool{}
	closed := map[string]bool{} // families whose sample run has ended
	current := ""
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fam := strings.Fields(rest)[0]
			if declared[fam] {
				t.Errorf("duplicate # TYPE %s", fam)
			}
			declared[fam] = true
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fam := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			fam = line[:i]
		}
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if cut, ok := strings.CutSuffix(fam, suf); ok && declared[cut] {
				fam = cut
				break
			}
		}
		if !declared[fam] {
			t.Errorf("sample %q before its # TYPE header", line)
		}
		if fam != current {
			if closed[fam] {
				t.Errorf("samples of %s are not contiguous: %q", fam, line)
			}
			closed[current] = true
			current = fam
		}
	}
}
