// Benchmarks regenerating the paper's evaluation (one per table and figure,
// §5 of Yiu & Mamoulis, SIGMOD 2004) plus the design ablations.
//
// Each benchmark wraps the corresponding internal/exp experiment at a
// benchmark-friendly scale; set NETCLUS_SCALE (relative to the paper's
// dataset sizes, e.g. 0.0625, 1, or up to 16 for order-of-magnitude
// oversize runs) to change it. For the formatted tables
// run `go run ./cmd/experiments`; for the paper-vs-measured comparison see
// EXPERIMENTS.md.
package netclus_test

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"netclus"
	"netclus/internal/exp"
)

// benchScale returns the dataset scale for benchmarks: NETCLUS_SCALE or a
// fast default.
func benchScale() float64 {
	if s := os.Getenv("NETCLUS_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 && v <= netclus.MaxRoadScale {
			return v
		}
	}
	return 1.0 / 64
}

func benchCfg() exp.Config {
	return exp.Config{Scale: benchScale(), K: 10, Seed: 1}
}

// BenchmarkFig11Effectiveness regenerates Figure 11: all five method runs
// (two k-medoids starts, DBSCAN, ε-Link, Single-Link) on the OL dataset,
// scored against ground truth.
func BenchmarkFig11Effectiveness(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig11Effectiveness(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12IncrementalSpeedup regenerates Figure 12: the k-sweep of
// incremental vs from-scratch medoid replacement on SF.
func BenchmarkFig12IncrementalSpeedup(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig12IncrementalSpeedup(cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1KMedoids regenerates Table 1: k-medoids convergence on the
// four road datasets.
func BenchmarkTable1KMedoids(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Table1KMedoids(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Algorithms regenerates Table 2: the four algorithms on the
// four road datasets, as per-dataset/per-method sub-benchmarks so
// `-bench Table2` prints a cost matrix.
func BenchmarkTable2Algorithms(b *testing.B) {
	scale := benchScale()
	for _, spec := range netclus.Roads {
		g, gen, err := netclus.RoadDataset(spec.Name, scale, 10)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(spec.Name+"/k-medoids", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i)))
				if _, err := netclus.KMedoids(g, netclus.KMedoidsOptions{K: 10, Rand: rng}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(spec.Name+"/dbscan", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := netclus.DBSCAN(g, netclus.DBSCANOptions{Eps: gen.Eps(), MinPts: 3}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(spec.Name+"/eps-link", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := netclus.EpsLink(g, netclus.EpsLinkOptions{Eps: gen.Eps(), MinSup: 3}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(spec.Name+"/single-link", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := netclus.SingleLink(g, netclus.SingleLinkOptions{Delta: gen.Delta()}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig13ScalabilityN regenerates Figure 13: the four algorithms as
// N grows on SF. Sub-benchmarks expose the per-N growth that the figure
// plots.
func BenchmarkFig13ScalabilityN(b *testing.B) {
	scale := benchScale()
	base, err := netclus.RoadNetwork("SF", scale)
	if err != nil {
		b.Fatal(err)
	}
	for _, nFull := range []int{100_000, 200_000, 500_000, 1_000_000} {
		n := int(float64(nFull) * scale)
		if n < 100 {
			n = 100
		}
		gen := netclus.DefaultClusterConfig(n, 10, 0.05)
		gen.SInit = sInitOf(base, n, 10)
		g, err := netclus.GeneratePoints(base, gen, rand.New(rand.NewSource(int64(nFull))))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("N=%d/eps-link", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := netclus.EpsLink(g, netclus.EpsLinkOptions{Eps: gen.Eps(), MinSup: 3}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("N=%d/dbscan", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := netclus.DBSCAN(g, netclus.DBSCANOptions{Eps: gen.Eps(), MinPts: 3}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("N=%d/single-link", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := netclus.SingleLink(g, netclus.SingleLinkOptions{Delta: gen.Delta()}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("N=%d/k-medoids", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i)))
				if _, err := netclus.KMedoids(g, netclus.KMedoidsOptions{K: 10, Rand: rng}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sInitOf(base *netclus.Network, n, k int) float64 {
	total := 0.0
	for u := 0; u < base.NumNodes(); u++ {
		adj, err := base.Neighbors(netclus.NodeID(u))
		if err != nil {
			continue
		}
		for _, nb := range adj {
			if netclus.NodeID(u) < nb.Node {
				total += nb.Weight
			}
		}
	}
	s := total * 0.02 / (float64(n) / float64(k) * 3)
	if s <= 0 {
		s = 0.1
	}
	return s
}

// BenchmarkFig14ScalabilityV regenerates Figure 14: the four algorithms on
// 10%..100% connected subnetworks of SF with a fixed N.
func BenchmarkFig14ScalabilityV(b *testing.B) {
	scale := benchScale()
	full, err := netclus.RoadNetwork("SF", scale)
	if err != nil {
		b.Fatal(err)
	}
	n := int(200_000 * scale)
	if n < 100 {
		n = 100
	}
	for _, frac := range []float64{0.1, 0.2, 0.5, 1.0} {
		sub, err := netclus.ExtractConnectedFraction(full, 0, frac)
		if err != nil {
			b.Fatal(err)
		}
		gen := netclus.DefaultClusterConfig(n, 10, sInitOf(sub, n, 10))
		g, err := netclus.GeneratePoints(sub, gen, rand.New(rand.NewSource(int64(frac*100))))
		if err != nil {
			b.Fatal(err)
		}
		for _, algo := range []string{"eps-link", "single-link", "k-medoids"} {
			algo := algo
			b.Run(fmt.Sprintf("V=%d/%s", sub.NumNodes(), algo), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					var err error
					switch algo {
					case "eps-link":
						_, err = netclus.EpsLink(g, netclus.EpsLinkOptions{Eps: gen.Eps(), MinSup: 3})
					case "single-link":
						_, err = netclus.SingleLink(g, netclus.SingleLinkOptions{Delta: gen.Delta()})
					case "k-medoids":
						_, err = netclus.KMedoids(g, netclus.KMedoidsOptions{K: 10, Rand: rand.New(rand.NewSource(int64(i)))})
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig15MergeDistances regenerates Figure 15: the full Single-Link
// dendrogram of the OL dataset plus the interesting-level scan.
func BenchmarkFig15MergeDistances(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig15MergeDistances(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStorageAblation measures the disk-mode runs of DESIGN.md's
// decision 3 (BFS vs node-ID page packing).
func BenchmarkStorageAblation(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := exp.StorageAblation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
