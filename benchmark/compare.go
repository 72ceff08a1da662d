package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
)

// resultsFile is what -all writes: every workload's numbers from one
// untraced and one traced run, with enough context to compare two of them.
type resultsFile struct {
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	// Claim is what the change that produced the file says it gained; the
	// change that defined the benchmark claims nothing.
	Claim     *string                     `json:"claim"`
	Workloads map[string]*workloadResults `json:"workloads"`
}

type workloadResults struct {
	Why       string                 `json:"why"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
}

// runAll runs every workload untraced, then traced — each run a process of
// its own, as the driver's are, so that no run inherits another's heap —
// prints every metric by name and writes them to path.
func runAll(cfg runConfig, path string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	out := resultsFile{
		Go: runtime.Version(), GOMAXPROCS: gomaxprocs(), Seed: cfg.Seed, Seconds: cfg.Seconds,
		Workloads: make(map[string]*workloadResults),
	}
	failed := 0
	for _, w := range workloads {
		wr := &workloadResults{Why: w.Why}
		out.Workloads[w.Name] = wr
		for trace, dst := range []*map[string]metricValue{&wr.EndToEnd, &wr.PerLayer} {
			cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(cfg.Seed),
				"-seconds", fmt.Sprint(cfg.Seconds), "-trace", fmt.Sprint(trace), "-out", cfg.OutDir)
			cmd.Stderr = os.Stderr
			// A run with failed operations still prints its result line
			// before it exits non-zero; only a run without one is fatal.
			stdout, runErr := cmd.Output()
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var line resultLine
			if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
				return fmt.Errorf("%s --trace %d printed no result line: %v", w.Name, trace, runErr)
			}
			for _, l := range lines[:len(lines)-1] {
				fmt.Printf("%-12s %s\n", w.Name, l)
			}
			*dst = line.Metrics
			if trace == 0 {
				wr.Attempted, wr.Failed = line.Attempted, line.Failed
			}
			failed += line.Failed
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// worseBy is how much worse b reads than a, as a share of a: positive when b
// is the worse one in the metric's better-direction.
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints, per workload and end-to-end metric, both files' values
// and how much worse the second reads than the first. A single pair of runs
// cannot tell a regression from spread, so a difference beyond the metric's
// bound reads "unresolved", not "regressed"; any unresolved row is an error.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %-16s %14s %14s %9s %6s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "verdict")
	unresolved := 0
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil {
			return fmt.Errorf("workload %s is missing from one of the files", wl.Name)
		}
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.Name].Value, wb.EndToEnd[d.Name].Value
			diff := worseBy(d, va, vb)
			verdict := "pass"
			if diff > d.Bound {
				verdict = "unresolved"
				unresolved++
			}
			fmt.Fprintf(w, "%-12s %-16s %14.6g %14.6g %+8.1f%% %5.0f%%  %s\n", wl.Name, d.Name, va, vb, 100*diff, 100*d.Bound, verdict)
		}
	}
	if unresolved > 0 {
		return fmt.Errorf("%d metrics differ by more than their bound", unresolved)
	}
	return nil
}
