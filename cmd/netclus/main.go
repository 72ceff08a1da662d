// Command netclus is the command-line front end of the library: it
// generates spatial networks and point workloads, builds disk stores, runs
// the three clustering algorithms, and renders SVG maps.
//
// Subcommands:
//
//	netclus gen-network -name SF -scale 0.05 -out data/sf
//	netclus gen-points  -in data/sf -n 20000 -k 10 -out data/sf
//	netclus store       -in data/sf -dir data/sf.store
//	netclus cluster     -in data/sf -algo eps-link -eps 0.5 -out labels.tsv
//	netclus cluster     -store data/sf.store -algo dbscan -eps 0.5 -minpts 3
//	netclus viz         -in data/sf -labels labels.tsv -out map.svg
//	netclus stats       -in data/sf
//
// Networks travel as three text files <prefix>.node, <prefix>.edge and
// <prefix>.pnt (see package netclus for the formats). Run any subcommand
// with -h for its flags.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"netclus"
	"netclus/internal/storage"
)

// storeBounds builds the landmark pruning tables cluster runs DBSCAN and
// k-medoids under on a disk store (a store has no embedding, so there is no
// Euclidean filter), printing the build cost. A network read with -in (st
// nil) is never pruned — in memory a graph access costs less than a table
// lookup — and landmarks <= 0 disables pruning on a store too: both return
// nil.
func storeBounds(st *netclus.Store, landmarks int) (netclus.Bounder, error) {
	if st == nil || landmarks <= 0 {
		return nil, nil
	}
	b, err := netclus.BuildBounds(st, netclus.BoundsOptions{Landmarks: landmarks})
	if err != nil {
		return nil, err
	}
	bs := b.Stats()
	fmt.Printf("bounds: %d landmarks built in %s, %d KB tables\n",
		bs.Landmarks, bs.BuildTime.Round(time.Millisecond), bs.TableBytes/1024)
	return b, nil
}

// reportPrune prints the filter work of a run under bounds; a no-op without.
func reportPrune(bounds netclus.Bounder, ps netclus.PruneStats) {
	if bounds == nil {
		return
	}
	fmt.Printf("pruning: %d candidates (%d accepted / %d rejected by bounds, %d refined), %d zero-traversal queries, %d early stops, %d pruned pushes\n",
		ps.Candidates, ps.FilterAccepted, ps.FilterRejected, ps.FilterUncertain,
		ps.ZeroTraversalQueries, ps.EarlyStops, ps.PrunedPushes)
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "gen-network":
		err = genNetwork(args)
	case "gen-points":
		err = genPoints(args)
	case "store":
		err = buildStore(args)
	case "cluster":
		err = cluster(args)
	case "viz":
		err = vizCmd(args)
	case "knn":
		err = knn(args)
	case "stats":
		err = stats(args)
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "netclus: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "netclus %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `netclus <command> [flags]

commands:
  gen-network   generate a road-network stand-in (NA, SF, TG, OL) or grid
  gen-points    generate clustered points on a network
  store         build the disk store (flat files + B+-trees) for a network
  cluster       run k-medoids, eps-link, dbscan, single-link or optics
  viz           render the network and a labelling to SVG
  knn           k nearest neighbours of a point by network distance
  stats         print network statistics`)
}

// loadNetwork reads <prefix>.node/.edge and optionally .pnt.
func loadNetwork(prefix string, withPoints bool) (*netclus.Network, error) {
	return netclus.LoadNetworkFiles(prefix, withPoints)
}

func saveNetwork(n *netclus.Network, prefix string, withPoints bool) error {
	nodes, err := os.Create(prefix + ".node")
	if err != nil {
		return err
	}
	defer nodes.Close()
	edges, err := os.Create(prefix + ".edge")
	if err != nil {
		return err
	}
	defer edges.Close()
	var pts *os.File
	if withPoints {
		if pts, err = os.Create(prefix + ".pnt"); err != nil {
			return err
		}
		defer pts.Close()
	}
	if pts != nil {
		return netclus.WriteNetwork(n, nodes, edges, pts)
	}
	return netclus.WriteNetwork(n, nodes, edges, nil)
}

func genNetwork(args []string) error {
	fs := flag.NewFlagSet("gen-network", flag.ExitOnError)
	name := fs.String("name", "OL", "road network stand-in: NA, SF, TG, OL, or 'grid'")
	scale := fs.Float64("scale", 0.1, "scale relative to the paper's network size (up to 16)")
	rows := fs.Int("rows", 50, "grid rows (with -name grid)")
	cols := fs.Int("cols", 50, "grid cols (with -name grid)")
	extra := fs.Int("extra", 500, "extra non-tree edges (with -name grid)")
	seed := fs.Int64("seed", 1, "random seed (grid only; road stand-ins are deterministic)")
	out := fs.String("out", "", "output file prefix (required)")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("-out is required")
	}
	var (
		n   *netclus.Network
		err error
	)
	if strings.EqualFold(*name, "grid") {
		n, err = netclus.GridNetwork(*rows, *cols, 1.0, 0.4, *extra, rand.New(rand.NewSource(*seed)))
	} else {
		n, err = netclus.RoadNetwork(*name, *scale)
	}
	if err != nil {
		return err
	}
	if err := saveNetwork(n, *out, false); err != nil {
		return err
	}
	fmt.Printf("wrote %s.node and %s.edge: %d nodes, %d edges\n", *out, *out, n.NumNodes(), n.NumEdges())
	return nil
}

func genPoints(args []string) error {
	fs := flag.NewFlagSet("gen-points", flag.ExitOnError)
	in := fs.String("in", "", "input network prefix (required)")
	out := fs.String("out", "", "output prefix for the .pnt file (default: same as -in)")
	n := fs.Int("n", 10000, "total number of points")
	k := fs.Int("k", 10, "number of clusters")
	sinit := fs.Float64("sinit", 0, "initial in-cluster separation (0 = automatic)")
	f := fs.Float64("f", 5, "magnification factor F")
	outliers := fs.Float64("outliers", 0.01, "outlier fraction")
	seed := fs.Int64("seed", 1, "random seed")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	if *out == "" {
		*out = *in
	}
	base, err := loadNetwork(*in, false)
	if err != nil {
		return err
	}
	cfg := netclus.DefaultClusterConfig(*n, *k, *sinit)
	cfg.F = *f
	cfg.OutlierFrac = *outliers
	if *sinit == 0 {
		cfg.SInit = autoSInit(base, *n, *k)
	}
	g, err := netclus.GeneratePoints(base, cfg, rand.New(rand.NewSource(*seed)))
	if err != nil {
		return err
	}
	pts, err := os.Create(*out + ".pnt")
	if err != nil {
		return err
	}
	defer pts.Close()
	if err := netclus.WriteNetwork(g, nil, nil, pts); err != nil {
		return err
	}
	fmt.Printf("wrote %s.pnt: %d points in %d clusters (s_init %.4g, suggested eps %.4g, delta %.4g)\n",
		*out, g.NumPoints(), *k, cfg.SInit, cfg.Eps(), cfg.Delta())
	return nil
}

// autoSInit mirrors the experiments' heuristic: clusters cover ~1% of the
// total edge length each.
func autoSInit(base *netclus.Network, n, k int) float64 {
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
	s := total * 0.01 / (float64(n) / float64(k) * 3)
	if s <= 0 {
		s = 0.1
	}
	return s
}

func buildStore(args []string) error {
	fs := flag.NewFlagSet("store", flag.ExitOnError)
	in := fs.String("in", "", "input network prefix (required)")
	dir := fs.String("dir", "", "store directory (required; created if missing)")
	pageSize := fs.Int("page", 4096, "page size in bytes")
	noReorder := fs.Bool("no-reorder", false, "disable BFS (connectivity) node packing")
	fs.Parse(args)
	if *in == "" || *dir == "" {
		return fmt.Errorf("-in and -dir are required")
	}
	g, err := loadNetwork(*in, true)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	opts := netclus.StoreOptions{PageSize: *pageSize}
	if *noReorder {
		opts.Layout = storage.LayoutNodeID
	}
	if err := netclus.BuildStore(*dir, g, opts); err != nil {
		return err
	}
	fmt.Printf("built store %s: %d nodes, %d edges, %d points\n", *dir, g.NumNodes(), g.NumEdges(), g.NumPoints())
	return nil
}

func cluster(args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	in := fs.String("in", "", "input network prefix (text files)")
	storeDir := fs.String("store", "", "input store directory (alternative to -in)")
	bufKB := fs.Int("buffer", 1024, "buffer pool size in KB (with -store)")
	algo := fs.String("algo", "eps-link", "algorithm: eps-link, dbscan, k-medoids, single-link, optics")
	eps := fs.Float64("eps", 0, "eps for eps-link/dbscan/optics, cut distance for single-link")
	cutEps := fs.Float64("cut", 0, "optics extraction radius eps' (default: same as -eps)")
	minPts := fs.Int("minpts", 3, "MinPts for dbscan/optics")
	minSup := fs.Int("minsup", 1, "min cluster size; smaller clusters become outliers")
	k := fs.Int("k", 10, "clusters for k-medoids / stop count for single-link with -eps 0")
	delta := fs.Float64("delta", 0, "single-link scalability threshold δ")
	restarts := fs.Int("restarts", 1, "k-medoids restarts")
	seed := fs.Int64("seed", 1, "random seed")
	landmarks := fs.Int("landmarks", netclus.DefaultLandmarks,
		"lower-bound pruning landmarks for dbscan/k-medoids (with -store; 0 disables)")
	out := fs.String("out", "", "write 'pointID<TAB>label' lines to this file")
	fs.Parse(args)

	var (
		g     netclus.Graph
		store *netclus.Store
		err   error
	)
	switch {
	case *storeDir != "":
		st, err := netclus.OpenStore(*storeDir, netclus.StoreOptions{BufferBytes: *bufKB * 1024})
		if err != nil {
			return err
		}
		defer func() {
			stats := st.Stats()
			fmt.Printf("buffer: %d logical reads, %d page faults (%.1f%% hit)\n",
				stats.LogicalReads, stats.PhysicalReads, 100*stats.HitRatio())
			st.Close()
		}()
		g, store = st, st
	case *in != "":
		if g, err = loadNetwork(*in, true); err != nil {
			return err
		}
	default:
		return fmt.Errorf("one of -in or -store is required")
	}

	var labels []int32
	start := time.Now()
	switch *algo {
	case "eps-link":
		if *eps <= 0 {
			return fmt.Errorf("eps-link needs -eps > 0")
		}
		res, err := netclus.EpsLink(g, netclus.EpsLinkOptions{Eps: *eps, MinSup: *minSup})
		if err != nil {
			return err
		}
		labels = res.Labels
		fmt.Printf("eps-link: %d clusters (%d before min_sup) in %s\n",
			res.NumClusters, res.ClustersFound, time.Since(start).Round(time.Millisecond))
	case "dbscan":
		if *eps <= 0 {
			return fmt.Errorf("dbscan needs -eps > 0")
		}
		bounds, err := storeBounds(store, *landmarks)
		if err != nil {
			return err
		}
		start = time.Now() // clustering time, preprocessing reported separately
		res, err := netclus.DBSCAN(g, netclus.DBSCANOptions{Eps: *eps, MinPts: *minPts, Prune: bounds})
		if err != nil {
			return err
		}
		labels = res.Labels
		fmt.Printf("dbscan: %d clusters, %d core points, %d range queries in %s\n",
			res.NumClusters, res.CorePoints, res.Stats.RangeQueries, time.Since(start).Round(time.Millisecond))
		reportPrune(bounds, res.Stats.Prune)
	case "k-medoids":
		bounds, err := storeBounds(store, *landmarks)
		if err != nil {
			return err
		}
		start = time.Now()
		res, err := netclus.KMedoids(g, netclus.KMedoidsOptions{
			K: *k, Restarts: *restarts, Rand: rand.New(rand.NewSource(*seed)), Prune: bounds,
		})
		if err != nil {
			return err
		}
		labels = res.Labels
		fmt.Printf("k-medoids: k=%d, R=%.4g, %d iterations (%d swaps tried) in %s\n",
			*k, res.R, res.Iterations, res.AttemptedSwaps, time.Since(start).Round(time.Millisecond))
		reportPrune(bounds, res.Stats.Prune)
	case "optics":
		if *eps <= 0 {
			return fmt.Errorf("optics needs -eps > 0 (the maximum radius)")
		}
		res, err := netclus.OPTICS(g, netclus.OPTICSOptions{Eps: *eps, MinPts: *minPts})
		if err != nil {
			return err
		}
		cut := *cutEps
		if cut <= 0 {
			cut = *eps
		}
		labels = res.ExtractDBSCAN(cut)
		netclus.SuppressSmallClusters(labels, *minSup)
		fmt.Printf("optics: ordered %d points in %s; extraction at eps'=%g gives %d clusters\n",
			len(res.Order), time.Since(start).Round(time.Millisecond), cut, netclus.CountClusters(labels))
	case "single-link":
		res, err := netclus.SingleLink(g, netclus.SingleLinkOptions{Delta: *delta})
		if err != nil {
			return err
		}
		if *eps > 0 {
			labels = res.Dendrogram.LabelsAtDistance(*eps)
		} else {
			labels = res.Dendrogram.LabelsAtCount(*k)
		}
		netclus.SuppressSmallClusters(labels, *minSup)
		fmt.Printf("single-link: %d merges, cut to %d clusters in %s\n",
			len(res.Dendrogram.Merges), netclus.CountClusters(labels), time.Since(start).Round(time.Millisecond))
		levels := res.Dendrogram.InterestingLevels(8, 3)
		sort.Slice(levels, func(i, j int) bool { return levels[i].Ratio > levels[j].Ratio })
		if len(levels) > 5 {
			levels = levels[:5]
		}
		sort.Slice(levels, func(i, j int) bool { return levels[i].Index < levels[j].Index })
		for _, l := range levels {
			fmt.Printf("  interesting level: merge %d at distance %.4g (jump x%.1f)\n", l.Index, l.Dist, l.Ratio)
		}
	default:
		return fmt.Errorf("unknown algorithm %q", *algo)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w := bufio.NewWriter(f)
		for p, l := range labels {
			fmt.Fprintf(w, "%d\t%d\n", p, l)
		}
		if err := w.Flush(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	return nil
}

func vizCmd(args []string) error {
	fs := flag.NewFlagSet("viz", flag.ExitOnError)
	in := fs.String("in", "", "input network prefix (required)")
	labelsPath := fs.String("labels", "", "labels TSV from 'netclus cluster -out' (optional)")
	out := fs.String("out", "map.svg", "output SVG path")
	width := fs.Int("width", 800, "canvas width")
	height := fs.Int("height", 800, "canvas height")
	minSize := fs.Int("min-size", 1, "hide colors of clusters smaller than this")
	title := fs.String("title", "", "caption")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	g, err := loadNetwork(*in, true)
	if err != nil {
		return err
	}
	var labels []int32
	if *labelsPath != "" {
		if labels, err = readLabels(*labelsPath, g.NumPoints()); err != nil {
			return err
		}
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	err = netclus.RenderSVG(f, g, labels, netclus.RenderOptions{
		Width: *width, Height: *height, MinClusterSize: *minSize, Title: *title,
	})
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *out)
	return nil
}

func readLabels(path string, n int) ([]int32, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	labels := make([]int32, n)
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s:%d: want 'point label'", path, line)
		}
		p, err1 := strconv.Atoi(fields[0])
		l, err2 := strconv.ParseInt(fields[1], 10, 32)
		if err1 != nil || err2 != nil || p < 0 || p >= n {
			return nil, fmt.Errorf("%s:%d: bad entry", path, line)
		}
		labels[p] = int32(l)
	}
	return labels, sc.Err()
}

func knn(args []string) error {
	fs := flag.NewFlagSet("knn", flag.ExitOnError)
	in := fs.String("in", "", "input network prefix (required)")
	p := fs.Int("p", 0, "query point ID")
	k := fs.Int("k", 5, "number of neighbours")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	g, err := loadNetwork(*in, true)
	if err != nil {
		return err
	}
	nn, err := netclus.KNearestNeighbors(g, netclus.PointID(*p), *k)
	if err != nil {
		return err
	}
	pi, err := g.PointInfo(netclus.PointID(*p))
	if err != nil {
		return err
	}
	fmt.Printf("query point %d on edge (%d,%d) at %.4g:\n", *p, pi.N1, pi.N2, pi.Pos)
	for i, q := range nn {
		qi, err := g.PointInfo(q.Point)
		if err != nil {
			return err
		}
		fmt.Printf("  #%d point %d at network distance %.4g (edge (%d,%d) pos %.4g)\n",
			i+1, q.Point, q.Dist, qi.N1, qi.N2, qi.Pos)
	}
	return nil
}

func stats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	in := fs.String("in", "", "input network prefix (required)")
	points := fs.Bool("points", true, "include the .pnt file")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	g, err := loadNetwork(*in, *points)
	if err != nil {
		return err
	}
	totalW := 0.0
	maxDeg := 0
	for u := 0; u < g.NumNodes(); u++ {
		adj, err := g.Neighbors(netclus.NodeID(u))
		if err != nil {
			return err
		}
		if len(adj) > maxDeg {
			maxDeg = len(adj)
		}
		for _, nb := range adj {
			if netclus.NodeID(u) < nb.Node {
				totalW += nb.Weight
			}
		}
	}
	fmt.Printf("nodes:        %d\n", g.NumNodes())
	fmt.Printf("edges:        %d (E/V %.3f, max degree %d)\n",
		g.NumEdges(), float64(g.NumEdges())/float64(g.NumNodes()), maxDeg)
	fmt.Printf("total length: %.4g\n", totalW)
	fmt.Printf("points:       %d in %d groups\n", g.NumPoints(), g.NumGroups())
	return nil
}
