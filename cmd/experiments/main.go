// Command experiments regenerates every table and figure of the paper's
// evaluation section (Yiu & Mamoulis, SIGMOD 2004, §5) plus the design
// ablations, at a configurable scale.
//
// Usage:
//
//	experiments [-scale 0.0625] [-k 10] [-seed 1] [-exp all] [-svg dir] [-o file]
//
// -exp selects a comma-separated subset of: fig10, fig11, fig12, table1,
// table2, fig13, fig14, fig15, storage, prune, extensions. -scale 1
// reproduces the paper's dataset sizes (|V| up to 175 K, N up to 1 M); the
// default 1/16 finishes in seconds. With -svg, the Figure 10 network maps,
// the Figure 11 per-method clustering maps and the Figure 15 merge-distance
// plot are written into the given directory.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"netclus/internal/exp"
	"netclus/internal/viz"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	scale := fs.Float64("scale", exp.DefaultScale, "dataset scale relative to the paper's sizes (1 = full)")
	k := fs.Int("k", 10, "number of clusters")
	seed := fs.Int64("seed", 1, "random seed")
	expsel := fs.String("exp", "all", "comma-separated experiments: fig10,fig11,fig12,table1,table2,fig13,fig14,fig15,storage,prune,extensions")
	svgDir := fs.String("svg", "", "directory to write SVG maps/plots into (optional)")
	outPath := fs.String("o", "", "write the report to this file instead of stdout")
	fs.Parse(args)

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	cfg := exp.Config{Scale: *scale, K: *k, Seed: *seed, Out: out}

	want := map[string]bool{}
	for _, name := range strings.Split(*expsel, ",") {
		want[strings.TrimSpace(strings.ToLower(name))] = true
	}
	all := want["all"]
	sep := func() { fmt.Fprintln(out) }
	writeSVG := func(name string, render func(io.Writer) error) error {
		if *svgDir == "" {
			return nil
		}
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(*svgDir, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		err = render(f)
		f.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", path)
		return nil
	}

	if all || want["fig10"] {
		rows, err := exp.Fig10Datasets(cfg)
		if err != nil {
			return err
		}
		for _, row := range rows {
			row := row
			err := writeSVG("fig10-"+strings.ToLower(row.Name)+".svg", func(w io.Writer) error {
				return viz.Render(w, row.Network, nil, viz.Options{
					Title: row.Name, HideEdges: false, PointRadius: 0.1,
				})
			})
			if err != nil {
				return err
			}
		}
		sep()
	}
	if all || want["fig11"] {
		res, err := exp.Fig11Effectiveness(cfg)
		if err != nil {
			return err
		}
		if *svgDir != "" {
			if err := os.MkdirAll(*svgDir, 0o755); err != nil {
				return err
			}
			for _, row := range res.Rows {
				name := strings.Map(func(r rune) rune {
					switch {
					case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
						return r
					case r == ' ', r == '(', r == ')':
						return '-'
					default:
						return -1
					}
				}, strings.ToLower(row.Method))
				path := filepath.Join(*svgDir, "fig11-"+name+".svg")
				f, err := os.Create(path)
				if err != nil {
					return err
				}
				err = viz.Render(f, res.Network, row.Labels, viz.Options{
					Title:          row.Method,
					MinClusterSize: 20,
				})
				f.Close()
				if err != nil {
					return err
				}
				fmt.Fprintf(out, "wrote %s\n", path)
			}
		}
		sep()
	}
	if all || want["fig12"] {
		if _, err := exp.Fig12IncrementalSpeedup(cfg, nil); err != nil {
			return err
		}
		sep()
	}
	if all || want["table1"] {
		if _, err := exp.Table1KMedoids(cfg); err != nil {
			return err
		}
		sep()
	}
	if all || want["table2"] {
		if _, err := exp.Table2Algorithms(cfg); err != nil {
			return err
		}
		sep()
	}
	if all || want["fig13"] {
		if _, err := exp.Fig13ScalabilityN(cfg); err != nil {
			return err
		}
		sep()
	}
	if all || want["fig14"] {
		if _, err := exp.Fig14ScalabilityV(cfg); err != nil {
			return err
		}
		sep()
	}
	if all || want["fig15"] {
		res, err := exp.Fig15MergeDistances(cfg)
		if err != nil {
			return err
		}
		err = writeSVG("fig15-merge-distances.svg", func(w io.Writer) error {
			return viz.PlotSeries(w, res.LastDistances, viz.PlotOptions{
				Title:  "Figure 15 — merge distance of the last merges",
				XLabel: "merge (tail)", YLabel: "distance", Bars: true,
				MarkY: res.Eps, MarkYLabel: "eps",
			})
		})
		if err != nil {
			return err
		}
		sep()
	}
	if all || want["storage"] {
		if _, err := exp.StorageAblation(cfg); err != nil {
			return err
		}
		sep()
	}
	if all || want["prune"] {
		if _, err := exp.PruneAblation(cfg); err != nil {
			return err
		}
		sep()
	}
	if all || want["extensions"] {
		if _, err := exp.ExtensionsDemo(cfg); err != nil {
			return err
		}
		sep()
	}
	return nil
}
