// Package exp reproduces every table and figure of the paper's evaluation
// (§5). Each experiment is a function that builds the paper's workload at a
// configurable scale, runs the algorithms, prints the same rows/series the
// paper reports, and returns the measurements for programmatic use
// (cmd/experiments drives them from the command line; the repository-root
// benchmarks wrap them in testing.B).
//
// Absolute numbers differ from the paper's 2004 C++/Pentium-4 setup; the
// reproduction targets the paper's qualitative claims, which EXPERIMENTS.md
// tracks one by one.
package exp

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"netclus/internal/core"
	"netclus/internal/datagen"
	"netclus/internal/evalx"
	"netclus/internal/network"
)

// Config is shared by all experiments.
type Config struct {
	// Scale multiplies the paper's dataset sizes (1.0 = full size). The
	// default used by benchmarks and cmd/experiments is 1/16.
	Scale float64
	// K is the number of generated/partitioned clusters (paper: 10).
	K int
	// Seed makes runs reproducible.
	Seed int64
	// Out receives the formatted tables; nil discards them.
	Out io.Writer
}

// DefaultScale keeps the full suite in CI-friendly time.
const DefaultScale = 1.0 / 16

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = DefaultScale
	}
	if c.K == 0 {
		c.K = 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

func (c Config) printf(format string, args ...any) {
	fmt.Fprintf(c.Out, format, args...)
}

// ---------------------------------------------------------------------------
// Figure 11 / §5.1 — effectiveness of the four methods on the OL dataset.

// Fig11Result quantifies the paper's visual comparison: ARI/NMI/purity of
// each method against the generator's ground truth.
type Fig11Result struct {
	Network   *network.Network
	Config    datagen.ClusterConfig
	Rows      []Fig11Row
	SingleRes *core.SingleLinkResult
}

// Fig11Row is one method's quality measurement.
type Fig11Row struct {
	Method   string
	Clusters int
	ARI      float64
	NMI      float64
	Purity   float64
	Duration time.Duration
	Labels   []int32
}

// Fig11Effectiveness generates the paper's OL workload (20 K points, 10
// clusters, 1% outliers) and scores k-medoids (random and ideal start),
// DBSCAN, ε-Link and Single-Link (cut at ε) against the ground truth. The
// paper's qualitative claim: the density and hierarchical methods recover
// the clusters; k-medoids splits/merges them and absorbs outliers.
func Fig11Effectiveness(cfg Config) (*Fig11Result, error) {
	cfg = cfg.withDefaults()
	g, gen, err := datagen.RoadDataset("OL", cfg.Scale, cfg.K)
	if err != nil {
		return nil, err
	}
	res := &Fig11Result{Network: g, Config: gen}
	truth := evalx.NoiseAsSingletons(g.Tags(), datagen.OutlierTag)
	rng := rand.New(rand.NewSource(cfg.Seed))

	score := func(method string, labels []int32, d time.Duration) error {
		pred := evalx.NoiseAsSingletons(labels, core.Noise)
		ari, err := evalx.ARI(truth, pred)
		if err != nil {
			return err
		}
		nmi, err := evalx.NMI(truth, pred)
		if err != nil {
			return err
		}
		pur, err := evalx.Purity(truth, pred)
		if err != nil {
			return err
		}
		res.Rows = append(res.Rows, Fig11Row{
			Method: method, Clusters: core.CountClusters(labels),
			ARI: ari, NMI: nmi, Purity: pur, Duration: d, Labels: labels,
		})
		return nil
	}

	// (a) k-medoids from a random start.
	start := time.Now()
	km, err := core.KMedoids(g, core.KMedoidsOptions{K: cfg.K, Rand: rng})
	if err != nil {
		return nil, err
	}
	if err := score("k-medoids (random start)", km.Labels, time.Since(start)); err != nil {
		return nil, err
	}

	// (b) k-medoids seeded inside the true clusters (the paper's "best"
	// case: the initial medoids are the first points of the generated
	// clusters).
	var ideal []network.PointID
	seen := map[int32]bool{}
	for p, tag := range g.Tags() {
		if tag >= 0 && !seen[tag] {
			seen[tag] = true
			ideal = append(ideal, network.PointID(p))
		}
	}
	start = time.Now()
	km2, err := core.KMedoids(g, core.KMedoidsOptions{K: cfg.K, InitialMedoids: ideal, Rand: rng})
	if err != nil {
		return nil, err
	}
	if err := score("k-medoids (ideal start)", km2.Labels, time.Since(start)); err != nil {
		return nil, err
	}

	// (c) DBSCAN and ε-Link with ε = 1.5 s_init F, MinPts = 3.
	start = time.Now()
	db, err := core.DBSCAN(g, core.DBSCANOptions{Eps: gen.Eps(), MinPts: 3})
	if err != nil {
		return nil, err
	}
	if err := score("DBSCAN", db.Labels, time.Since(start)); err != nil {
		return nil, err
	}
	start = time.Now()
	el, err := core.EpsLink(g, core.EpsLinkOptions{Eps: gen.Eps(), MinSup: 3})
	if err != nil {
		return nil, err
	}
	if err := score("eps-link", el.Labels, time.Since(start)); err != nil {
		return nil, err
	}

	// (d-f) Single-Link with δ = s_init F, cut at ε and labelled there.
	start = time.Now()
	sl, err := core.SingleLink(g, core.SingleLinkOptions{Delta: gen.SInit * gen.F})
	if err != nil {
		return nil, err
	}
	slDur := time.Since(start)
	res.SingleRes = sl
	labels := sl.Dendrogram.LabelsAtDistance(gen.Eps())
	core.SuppressSmallClusters(labels, 3)
	if err := score("single-link (cut at eps)", labels, slDur); err != nil {
		return nil, err
	}

	cfg.printf("Figure 11 — effectiveness on OL (N=%d, k=%d, eps=%.3f)\n", g.NumPoints(), cfg.K, gen.Eps())
	cfg.printf("%-28s %9s %8s %8s %8s %12s\n", "method", "clusters", "ARI", "NMI", "purity", "time")
	for _, r := range res.Rows {
		cfg.printf("%-28s %9d %8.3f %8.3f %8.3f %12s\n", r.Method, r.Clusters, r.ARI, r.NMI, r.Purity, r.Duration.Round(time.Millisecond))
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Figure 12 — speedup of incremental medoid replacement vs k.

// Fig12Row is one k's measurement.
type Fig12Row struct {
	K           int
	Incremental time.Duration // mean per swap
	Recompute   time.Duration // mean per swap
	Speedup     float64
}

// Fig12IncrementalSpeedup measures, on the SF dataset (500 K points in k
// clusters), the mean cost of one Fig. 5 incremental update against one
// Fig. 4 recomputation over the same medoid swaps. The paper's claim: the
// speedup grows with k (~4x at k = 10), because a larger k means a smaller
// share of the network is re-assigned per swap.
func Fig12IncrementalSpeedup(cfg Config, ks []int) ([]Fig12Row, error) {
	cfg = cfg.withDefaults()
	if len(ks) == 0 {
		ks = []int{2, 5, 10, 15, 20}
	}
	var rows []Fig12Row
	cfg.printf("Figure 12 — incremental medoid replacement speedup (SF, scale %.3g)\n", cfg.Scale)
	cfg.printf("%6s %14s %14s %9s\n", "k", "incremental", "recompute", "speedup")
	for _, k := range ks {
		g, _, err := datagen.RoadDataset("SF", cfg.Scale, k)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(cfg.Seed + int64(k)))
		ids := samplePointIDs(g.NumPoints(), k, rng)
		infos := make([]network.PointInfo, k)
		for i, id := range ids {
			if infos[i], err = g.PointInfo(id); err != nil {
				return nil, err
			}
		}
		st := core.NewMedoidState(g.NumNodes())
		var stats core.Stats
		if err := core.MedoidDistFind(g, infos, st, &stats); err != nil {
			return nil, err
		}
		const swaps = 8
		var incTotal, recTotal time.Duration
		for s := 0; s < swaps; s++ {
			slot := rng.Intn(k)
			cand := network.PointID(rng.Intn(g.NumPoints()))
			ci, err := g.PointInfo(cand)
			if err != nil {
				return nil, err
			}
			old := infos[slot]
			infos[slot] = ci

			// Both variants run as the swap loop runs them — recording what
			// they overwrite — and are rolled back, so the committed state
			// stays consistent with the old set.
			st.Begin()
			t0 := time.Now()
			if err := core.IncMedoidUpdate(g, infos, slot, st, &stats); err != nil {
				return nil, err
			}
			incTotal += time.Since(t0)
			st.Rollback()

			st.Begin()
			t0 = time.Now()
			if err := core.MedoidDistFind(g, infos, st, &stats); err != nil {
				return nil, err
			}
			recTotal += time.Since(t0)
			st.Rollback()
			infos[slot] = old
		}
		row := Fig12Row{
			K:           k,
			Incremental: incTotal / swaps,
			Recompute:   recTotal / swaps,
		}
		if row.Incremental > 0 {
			row.Speedup = float64(row.Recompute) / float64(row.Incremental)
		}
		rows = append(rows, row)
		cfg.printf("%6d %14s %14s %9.2f\n", k, row.Incremental.Round(time.Microsecond), row.Recompute.Round(time.Microsecond), row.Speedup)
	}
	return rows, nil
}

func samplePointIDs(n, k int, rng *rand.Rand) []network.PointID {
	seen := map[int]bool{}
	out := make([]network.PointID, 0, k)
	for len(out) < k {
		p := rng.Intn(n)
		if !seen[p] {
			seen[p] = true
			out = append(out, network.PointID(p))
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Table 1 — k-medoids convergence cost per dataset.

// Table1Row mirrors the paper's Table 1: iterations to the local optimum,
// cost of the first iteration and mean cost of the incremental ones.
type Table1Row struct {
	Dataset    string
	Points     int
	Nodes      int
	Iterations int
	FirstIter  time.Duration
	NextIter   time.Duration
	R          float64
}

// Table1KMedoids runs k-medoids to one local optimum on each of the four
// road datasets. The paper's claims: convergence within 4-8 committed
// iterations (+15 rejected swaps), and incremental iterations roughly 4x
// cheaper than the first full one.
func Table1KMedoids(cfg Config) ([]Table1Row, error) {
	cfg = cfg.withDefaults()
	var rows []Table1Row
	cfg.printf("Table 1 — k-medoids cost (k=%d, scale %.3g)\n", cfg.K, cfg.Scale)
	cfg.printf("%6s %9s %9s %12s %12s %12s\n", "data", "|V|", "N", "#iters", "first iter", "next iters")
	for _, spec := range datagen.Roads {
		g, _, err := datagen.RoadDataset(spec.Name, cfg.Scale, cfg.K)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		res, err := core.KMedoids(g, core.KMedoidsOptions{K: cfg.K, Rand: rng})
		if err != nil {
			return nil, err
		}
		row := Table1Row{
			Dataset:    spec.Name,
			Points:     g.NumPoints(),
			Nodes:      g.NumNodes(),
			Iterations: res.Iterations,
			FirstIter:  res.FirstIterTime,
			NextIter:   res.AvgSwapIterTime(),
			R:          res.R,
		}
		rows = append(rows, row)
		cfg.printf("%6s %9d %9d %12d %12s %12s\n", row.Dataset, row.Nodes, row.Points,
			row.Iterations, row.FirstIter.Round(time.Microsecond), row.NextIter.Round(time.Microsecond))
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Table 2 — execution cost of the four algorithms per dataset.

// Table2Row mirrors the paper's Table 2.
type Table2Row struct {
	Dataset    string
	KMedoids   time.Duration
	DBSCAN     time.Duration
	EpsLink    time.Duration
	SingleLink time.Duration
}

// Table2Algorithms times one k-medoids local optimum, DBSCAN (MinPts = 3),
// ε-Link and Single-Link (δ = 0.7ε, full dendrogram) on the four road
// datasets. The paper's claims: k-medoids is the most expensive; ε-Link
// beats DBSCAN by a wide margin with identical output; Single-Link costs
// more than ε-Link because it traverses the whole graph.
func Table2Algorithms(cfg Config) ([]Table2Row, error) {
	cfg = cfg.withDefaults()
	var rows []Table2Row
	cfg.printf("Table 2 — execution cost (k=%d, MinPts=3, scale %.3g)\n", cfg.K, cfg.Scale)
	cfg.printf("%6s %14s %14s %14s %14s\n", "data", "k-medoids", "DBSCAN", "eps-link", "single-link")
	for _, spec := range datagen.Roads {
		g, gen, err := datagen.RoadDataset(spec.Name, cfg.Scale, cfg.K)
		if err != nil {
			return nil, err
		}
		row, err := timeAllMethods(g, gen, cfg)
		if err != nil {
			return nil, err
		}
		row.Dataset = spec.Name
		rows = append(rows, row)
		cfg.printf("%6s %14s %14s %14s %14s\n", row.Dataset,
			row.KMedoids.Round(time.Millisecond), row.DBSCAN.Round(time.Millisecond),
			row.EpsLink.Round(time.Millisecond), row.SingleLink.Round(time.Millisecond))
	}
	return rows, nil
}

func timeAllMethods(g network.Graph, gen datagen.ClusterConfig, cfg Config) (Table2Row, error) {
	var row Table2Row
	rng := rand.New(rand.NewSource(cfg.Seed))

	start := time.Now()
	if _, err := core.KMedoids(g, core.KMedoidsOptions{K: cfg.K, Rand: rng}); err != nil {
		return row, err
	}
	row.KMedoids = time.Since(start)

	start = time.Now()
	if _, err := core.DBSCAN(g, core.DBSCANOptions{Eps: gen.Eps(), MinPts: 3}); err != nil {
		return row, err
	}
	row.DBSCAN = time.Since(start)

	start = time.Now()
	if _, err := core.EpsLink(g, core.EpsLinkOptions{Eps: gen.Eps(), MinSup: 3}); err != nil {
		return row, err
	}
	row.EpsLink = time.Since(start)

	start = time.Now()
	if _, err := core.SingleLink(g, core.SingleLinkOptions{Delta: gen.Delta()}); err != nil {
		return row, err
	}
	row.SingleLink = time.Since(start)
	return row, nil
}

// ---------------------------------------------------------------------------
// Figure 13 — scalability with the number of points N.

// ScaleRow is one (x, method costs) measurement of Figures 13/14.
type ScaleRow struct {
	X     int // N for Fig. 13, |V| for Fig. 14
	Costs Table2Row
}

// Fig13ScalabilityN generates 100K..1000K (scaled) points on SF and times
// the four algorithms. The paper's claims: DBSCAN and ε-Link grow linearly
// with N; k-medoids and Single-Link are dominated by the network size and
// grow slowly.
func Fig13ScalabilityN(cfg Config) ([]ScaleRow, error) {
	cfg = cfg.withDefaults()
	base, err := datagen.RoadNetwork("SF", cfg.Scale)
	if err != nil {
		return nil, err
	}
	var rows []ScaleRow
	cfg.printf("Figure 13 — scalability with N (SF, scale %.3g)\n", cfg.Scale)
	cfg.printf("%9s %14s %14s %14s %14s\n", "N", "k-medoids", "DBSCAN", "eps-link", "single-link")
	for _, nFull := range []int{100_000, 200_000, 500_000, 1_000_000} {
		n := int(float64(nFull) * cfg.Scale)
		if n < 100 {
			n = 100
		}
		gen := datagen.DefaultClusterConfig(n, cfg.K, sInitFor(base, n, cfg.K))
		rng := rand.New(rand.NewSource(cfg.Seed + int64(nFull)))
		g, err := datagen.GeneratePoints(base, gen, rng)
		if err != nil {
			return nil, err
		}
		costs, err := timeAllMethods(g, gen, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ScaleRow{X: n, Costs: costs})
		cfg.printf("%9d %14s %14s %14s %14s\n", n,
			costs.KMedoids.Round(time.Millisecond), costs.DBSCAN.Round(time.Millisecond),
			costs.EpsLink.Round(time.Millisecond), costs.SingleLink.Round(time.Millisecond))
	}
	return rows, nil
}

// sInitFor mirrors the road-dataset s_init heuristic for ad-hoc workloads.
func sInitFor(base *network.Network, n, k int) float64 {
	total := 0.0
	for u := 0; u < base.NumNodes(); u++ {
		adj, err := base.Neighbors(network.NodeID(u))
		if err != nil {
			continue
		}
		for _, nb := range adj {
			if network.NodeID(u) < nb.Node {
				total += nb.Weight
			}
		}
	}
	s := total * 0.01 / (float64(n) / float64(k) * 3)
	if s <= 0 {
		s = 0.1
	}
	return s
}

// Fig14ScalabilityV extracts connected subnetworks of SF with 10%, 20%,
// 50% and 100% of its nodes, generates 200 K (scaled) points on each, and
// times the four algorithms. The paper's claims: k-medoids and Single-Link
// grow linearly with |V| (they traverse the whole network); the density
// methods grow slowly (they only visit populated regions).
func Fig14ScalabilityV(cfg Config) ([]ScaleRow, error) {
	cfg = cfg.withDefaults()
	full, err := datagen.RoadNetwork("SF", cfg.Scale)
	if err != nil {
		return nil, err
	}
	n := int(200_000 * cfg.Scale)
	if n < 100 {
		n = 100
	}
	var rows []ScaleRow
	cfg.printf("Figure 14 — scalability with |V| (SF, N=%d, scale %.3g)\n", n, cfg.Scale)
	cfg.printf("%9s %14s %14s %14s %14s\n", "|V|", "k-medoids", "DBSCAN", "eps-link", "single-link")
	for _, frac := range []float64{0.1, 0.2, 0.5, 1.0} {
		sub, err := network.ExtractConnectedFraction(full, 0, frac)
		if err != nil {
			return nil, err
		}
		gen := datagen.DefaultClusterConfig(n, cfg.K, sInitFor(sub, n, cfg.K))
		rng := rand.New(rand.NewSource(cfg.Seed + int64(frac*100)))
		g, err := datagen.GeneratePoints(sub, gen, rng)
		if err != nil {
			return nil, err
		}
		costs, err := timeAllMethods(g, gen, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ScaleRow{X: sub.NumNodes(), Costs: costs})
		cfg.printf("%9d %14s %14s %14s %14s\n", sub.NumNodes(),
			costs.KMedoids.Round(time.Millisecond), costs.DBSCAN.Round(time.Millisecond),
			costs.EpsLink.Round(time.Millisecond), costs.SingleLink.Round(time.Millisecond))
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Figure 15 / §5.3 — merge distances and interesting levels.

// Fig15Result carries the tail of the merge-distance series and the
// automatically detected interesting levels.
type Fig15Result struct {
	LastDistances []float64
	Levels        []core.InterestingLevel
	Eps           float64
	TotalMerges   int
	// PreMerges counts the leading δ-heuristic merges, which are unordered
	// among themselves (§4.4.2); distances ascend from that index on.
	PreMerges int
}

// Fig15MergeDistances runs Single-Link on the Figure 11 OL dataset and
// reports the distances of the last 49 merges plus the §5.3 automatic
// interesting-level hints. The paper's claim: the sharpest jump occurs when
// the merge distance passes ε — the level where the generated clusters have
// just been discovered.
func Fig15MergeDistances(cfg Config) (*Fig15Result, error) {
	cfg = cfg.withDefaults()
	g, gen, err := datagen.RoadDataset("OL", cfg.Scale, cfg.K)
	if err != nil {
		return nil, err
	}
	sl, err := core.SingleLink(g, core.SingleLinkOptions{Delta: gen.SInit * gen.F})
	if err != nil {
		return nil, err
	}
	res := &Fig15Result{
		LastDistances: sl.Dendrogram.LastMergeDistances(49),
		Levels:        sl.Dendrogram.InterestingLevels(8, 3),
		Eps:           gen.Eps(),
		TotalMerges:   len(sl.Dendrogram.Merges),
		PreMerges:     sl.Dendrogram.PreMerges,
	}
	cfg.printf("Figure 15 — last %d merge distances (OL, eps=%.3f, %d merges total)\n",
		len(res.LastDistances), res.Eps, res.TotalMerges)
	for i, d := range res.LastDistances {
		cfg.printf("%6d %10.4f\n", res.TotalMerges-len(res.LastDistances)+i, d)
	}
	cfg.printf("strongest interesting levels (window 8, factor 3):\n")
	top := append([]core.InterestingLevel(nil), res.Levels...)
	sort.Slice(top, func(i, j int) bool { return top[i].Ratio > top[j].Ratio })
	if len(top) > 5 {
		top = top[:5]
	}
	sort.Slice(top, func(i, j int) bool { return top[i].Index < top[j].Index })
	for _, l := range top {
		cfg.printf("  merge %d at distance %.4f (jump ratio %.1f)\n", l.Index, l.Dist, l.Ratio)
	}
	return res, nil
}
