package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeConfig runs four cycles of a workload at 1/64 of its scale, so the
// operation stream — and every counter that depends only on it — repeats
// exactly under one seed. Every burst holds a clustering job.
func smokeConfig(t *testing.T, workload string, trace bool) runConfig {
	return runConfig{
		Workload: workload, Seed: 7, Seconds: 0.2, Trace: trace, OutDir: t.TempDir(),
		Scale: 1.0 / 64, Cycles: 4,
	}
}

func checkMetrics(t *testing.T, what string, got values, defs []metricDef, wantNonZero bool) {
	t.Helper()
	tg, err := tagged(got, defs)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for _, d := range defs {
		mv := tg[d.Name]
		if mv.Unit == "" {
			t.Errorf("%s: %s has no unit", what, d.Name)
		}
		if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
			t.Errorf("%s: %s = %v", what, d.Name, mv.Value)
		}
		if wantNonZero && !(mv.Value > 0) {
			t.Errorf("%s: %s = %v, want > 0", what, d.Name, mv.Value)
		}
	}
}

// exactCounters are the per-layer metrics that depend only on the operation
// stream: two runs with one seed must print the same value.
func exactCounters() []string {
	names := []string{"lbound.settled_ratio", "delta.epoch_end", "shard.cut_edges", "server.admission_admitted"}
	for _, d := range perLayer {
		if strings.HasPrefix(d.Name, "core.") && d.Unit == "count" {
			names = append(names, d.Name)
		}
	}
	return names
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := run(ctx, smokeConfig(t, w.Name, false))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("untraced: correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			checkMetrics(t, "end-to-end", res.Metrics, endToEnd, true)

			cfg := smokeConfig(t, w.Name, true)
			first, err := run(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !first.Correct {
				t.Fatalf("traced: %d of %d operations failed: %v", first.Failed, first.Attempted, first.Failures)
			}
			checkMetrics(t, "per-layer", first.Metrics, perLayer, false)
			checkSpansNest(t, filepath.Join(cfg.OutDir, "trace-"+w.Name+".json"))

			second, err := run(ctx, smokeConfig(t, w.Name, true))
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range exactCounters() {
				if a, b := first.Metrics[name], second.Metrics[name]; a != b {
					t.Errorf("%s differs between two runs with one seed: %v vs %v", name, a, b)
				}
			}
		})
	}
}

// checkSpansNest asserts that every recorded span closed and lies within the
// span that caused it.
func checkSpansNest(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) == 0 || len(tf.SelfMS) == 0 {
		t.Fatalf("%s: %d spans, %d self times", path, len(tf.Spans), len(tf.SelfMS))
	}
	for _, s := range tf.Spans {
		if s.End < s.Start {
			t.Fatalf("span %d (%s) never closed", s.ID, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		if p := tf.Spans[s.Parent]; s.Start < p.Start || s.End > p.End {
			t.Fatalf("span %d (%s) [%d,%d] is outside its parent %d (%s) [%d,%d]", s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	for name, ms := range tf.SelfMS {
		if ms < 0 {
			t.Errorf("self time of %s is %v ms", name, ms)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the code from drifting: the
// file's workloads and metric lists must be exactly what the binary prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the code", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: file has %q, code has %q", i, file.Workloads[i], w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	sameDefs := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the file, %d in the code", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: file has %+v, code has %+v", what, i, got[i], want[i])
			}
		}
	}
	sameDefs("end_to_end", file.EndToEnd, endToEnd)
	sameDefs("per_layer", file.PerLayer, perLayer)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the driver takes 128", len(perLayer))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	if len(file.Paths) != 1 || file.Paths[0] != "benchmark" || file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", file.Paths, file.RunSeconds)
	}
}

func TestWorseBy(t *testing.T) {
	lower, higher := metricDef{Better: "lower"}, metricDef{Better: "higher"}
	for _, c := range []struct {
		d    metricDef
		a, b float64
		want float64
	}{
		{lower, 10, 11, 0.1}, {lower, 10, 9, -0.1}, {higher, 100, 90, 0.1}, {higher, 100, 120, -0.2}, {lower, 0, 5, 0},
	} {
		if got := worseBy(c.d, c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("worseBy(%s, %v, %v) = %v, want %v", c.d.Better, c.a, c.b, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 0, Parent: -1, Name: "round", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "job", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "job", Start: 30, End: 60}, // overlaps span 1
		{ID: 3, Parent: 1, Name: "kernel", Start: 15, End: 25},
	}
	self := tr.selfTimes()
	if self["round"] != 50 || self["job"] != 20+30 || self["kernel"] != 10 {
		t.Errorf("self times %v", self)
	}
}
