package netclus_test

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsCiteBenchJSON keeps the one perf story honest. BENCH.json is the
// committed output of `benchmark -all`; the docs quote performance only as
// `workload:metric` citations of its keys, so a renamed metric, a dropped
// workload or a results file from another benchmark version fails here
// instead of leaving a stale number behind. The retired per-suite reports
// and the code only they reached must not be named outside the change log.
func TestDocsCiteBenchJSON(t *testing.T) {
	var bench struct {
		Workloads map[string]struct {
			EndToEnd map[string]json.RawMessage `json:"end_to_end"`
			PerLayer map[string]json.RawMessage `json:"per_layer"`
		} `json:"workloads"`
	}
	var manifest struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
	}
	readJSON(t, "BENCH.json", &bench)
	readJSON(t, "BENCHMARK.json", &manifest)

	if len(bench.Workloads) != len(manifest.Workloads) {
		t.Fatalf("BENCH.json has %d workloads, BENCHMARK.json declares %d", len(bench.Workloads), len(manifest.Workloads))
	}
	for _, w := range manifest.Workloads {
		got, ok := bench.Workloads[w.Name]
		if !ok {
			t.Fatalf("BENCH.json lacks workload %s", w.Name)
		}
		if len(got.EndToEnd) != len(manifest.EndToEnd) {
			t.Fatalf("%s: BENCH.json has %d end-to-end metrics, BENCHMARK.json declares %d", w.Name, len(got.EndToEnd), len(manifest.EndToEnd))
		}
		for _, m := range manifest.EndToEnd {
			if _, ok := got.EndToEnd[m.Name]; !ok {
				t.Fatalf("%s: BENCH.json lacks end-to-end metric %s", w.Name, m.Name)
			}
		}
	}

	cite := regexp.MustCompile("`([a-z]+-[a-z]+):([a-z0-9_.]+)`")
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		cites := cite.FindAllStringSubmatch(string(text), -1)
		if len(cites) == 0 {
			t.Errorf("%s cites no BENCH.json key", doc)
		}
		for _, c := range cites {
			w, ok := bench.Workloads[c[1]]
			_, e2e := w.EndToEnd[c[2]]
			_, layer := w.PerLayer[c[2]]
			if !ok || !(e2e || layer) {
				t.Errorf("%s cites %s, which is not a key of BENCH.json", doc, c[0])
			}
		}
	}

	// Spelled in pieces so that this file passes its own scan.
	retired := regexp.MustCompile("BENCH" + "_|Benchmark(CSR|Delta|Prune|Shard|Store)" + "Suite|KNNBatch" + "Ctx")
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == ".git" || path == ".bench_build" || path == filepath.Join("benchmark", "out") {
				return fs.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".md", ".yml", ".go":
		default:
			return nil
		}
		if path == "CHANGES.md" || path == "ISSUE.md" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		text := string(data)
		if path == "ROADMAP.md" { // its "Recent" section is history
			text, _, _ = strings.Cut(text, "\n## Recent")
		}
		if m := retired.FindString(text); m != "" {
			t.Errorf("%s still mentions %q", path, m)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
