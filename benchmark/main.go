// Command benchmark is the one benchmark of netclus: four workloads, each
// reporting the same end-to-end metrics from an untraced run and per-layer
// metrics from a traced one. The driver runs
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// from the repository root; the last line of standard output is one JSON
// object {correct, attempted, failed, metrics}. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// tagged attaches each declared metric's unit to its value; a declared
// metric the run did not set reads 0, an undeclared one is a bug.
func tagged(v values, defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: v[d.Name], Unit: d.Unit}
	}
	for name := range v {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q is not declared", name)
		}
	}
	return out, nil
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.Workload, "workload", "", "workload to run: batch-mem, batch-disk, serve-read or serve-write")
	flag.Int64Var(&cfg.Seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&cfg.Seconds, "seconds", runSeconds, "seconds to measure for")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&cfg.OutDir, "out", "out", "directory for trace files and temporary store files")
	all := flag.String("all", "", "run every workload untraced and traced and write the results to this file")
	compare := flag.Bool("compare", false, "compare two -all result files given as arguments")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json, the driver's manifest of this benchmark")
	flag.Parse()
	cfg.Trace = trace != 0

	var err error
	switch {
	case *manifest:
		err = printManifest(os.Stdout)
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare wants two result files")
			break
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *all != "":
		err = runAll(cfg, *all)
	default:
		err = runOne(context.Background(), cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne runs one workload and prints its result line. A run whose outputs
// were wrong still prints its line — with correct false and the failures
// counted — and then exits non-zero.
func runOne(ctx context.Context, cfg runConfig) error {
	res, err := run(ctx, cfg)
	if err != nil {
		return err
	}
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	metrics, err := tagged(res.Metrics, defs)
	if err != nil {
		return err
	}
	info, _ := json.Marshal(res.Info)
	fmt.Fprintf(os.Stderr, "%s\n", info)
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "FAILED:", f)
	}
	for _, d := range defs {
		fmt.Printf("%-40s %16.6g %s\n", d.Name, res.Metrics[d.Name], d.Unit)
	}
	line, err := json.Marshal(resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	return nil
}

// printManifest writes BENCHMARK.json: the command, the directory that holds
// the benchmark, the run length, and the workloads and metrics declared in
// spec.go and layers.go.
func printManifest(w io.Writer) error {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []metricDef     `json:"end_to_end"`
		PerLayer   []metricDef     `json:"per_layer"` // no bounds: Bound is omitted when 0
	}{
		Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds,
		EndToEnd: endToEnd, PerLayer: perLayer,
	}
	for _, wl := range workloads {
		m.Workloads = append(m.Workloads, workloadEntry{wl.Name, wl.Why})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
