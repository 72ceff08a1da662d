package core_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"netclus/internal/core"
	"netclus/internal/evalx"
	"netclus/internal/matrix"
	"netclus/internal/network"
	"netclus/internal/storage"
	"netclus/internal/testnet"
)

// cutBrute labels points by applying brute-force merges up to distance cut.
func cutBrute(merges []matrix.Merge, n int, cut float64) []int32 {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, m := range merges {
		if m.Dist <= cut {
			parent[find(m.A)] = find(m.B)
		}
	}
	labels := make([]int32, n)
	byRoot := map[int]int32{}
	next := int32(0)
	for i := 0; i < n; i++ {
		r := find(i)
		l, ok := byRoot[r]
		if !ok {
			l = next
			next++
			byRoot[r] = l
		}
		labels[i] = l
	}
	return labels
}

func TestSingleLinkDeltaHeuristicPreservesUpperDendrogram(t *testing.T) {
	g, cfg, err := testnet.RandomClustered(11, 300, 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	full, err := core.SingleLink(g, core.SingleLinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	delta := cfg.Delta()
	fast, err := core.SingleLink(g, core.SingleLinkOptions{Delta: delta})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Dendrogram.PreMerges == 0 {
		t.Fatal("δ heuristic pre-merged nothing; test data too sparse")
	}
	for _, cut := range []float64{delta, delta * 1.5, cfg.Eps(), cfg.Eps() * 2} {
		samePartition(t, full.Dendrogram.LabelsAtDistance(cut),
			fast.Dendrogram.LabelsAtDistance(cut), fmt.Sprintf("cut %v", cut))
	}
}

func TestSingleLinkEqualsEpsLink(t *testing.T) {
	// §5.1: Single-Link stopped at merge distance > ε discovers exactly the
	// ε-Link clusters.
	for seed := int64(20); seed < 24; seed++ {
		g, err := testnet.Random(seed, 60, 120)
		if err != nil {
			t.Fatal(err)
		}
		sl, err := core.SingleLink(g, core.SingleLinkOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{0.4, 0.9, 2.0} {
			el, err := core.EpsLink(g, core.EpsLinkOptions{Eps: eps})
			if err != nil {
				t.Fatal(err)
			}
			samePartition(t, el.Labels, sl.Dendrogram.LabelsAtDistance(eps),
				fmt.Sprintf("seed %d eps %v", seed, eps))
		}
	}
}

func TestSingleLinkStopAtClusters(t *testing.T) {
	g, err := testnet.Random(9, 40, 70)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, 10} {
		res, err := core.SingleLink(g, core.SingleLinkOptions{StopAtClusters: k})
		if err != nil {
			t.Fatal(err)
		}
		if res.FinalClusters != k {
			t.Fatalf("StopAtClusters=%d: ended with %d clusters", k, res.FinalClusters)
		}
		if want := g.NumPoints() - k; len(res.Dendrogram.Merges) != want {
			t.Fatalf("StopAtClusters=%d: %d merges, want %d", k, len(res.Dendrogram.Merges), want)
		}
	}
}

func TestSingleLinkLabelsAtCount(t *testing.T) {
	g, err := testnet.Random(13, 30, 25)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.SingleLink(g, core.SingleLinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 5, 25} {
		labels := res.Dendrogram.LabelsAtCount(k)
		if got := evalx.NumClusters(labels, -999); got != k {
			t.Fatalf("LabelsAtCount(%d) produced %d clusters", k, got)
		}
	}
}

func TestInterestingLevels(t *testing.T) {
	// A dendrogram with two sharp jumps: many small merges, a jump to 10,
	// more small steps, a jump to 100.
	d := &core.Dendrogram{NumPoints: 21}
	dist := []float64{1, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 10, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9, 100}
	for i, x := range dist {
		d.Merges = append(d.Merges, core.MergeStep{A: 0, B: 0, Dist: x, Size: int32(i + 2)})
	}
	levels := d.InterestingLevels(5, 3)
	if len(levels) != 2 {
		t.Fatalf("found %d interesting levels (%v), want 2", len(levels), levels)
	}
	if levels[0].Index != 9 || levels[1].Index != 19 {
		t.Fatalf("interesting levels at %d and %d, want 9 and 19", levels[0].Index, levels[1].Index)
	}
	if levels[0].Ratio <= 3 || levels[1].Ratio <= 3 {
		t.Fatalf("ratios %v, %v should exceed the factor", levels[0].Ratio, levels[1].Ratio)
	}
}

func TestSingleLinkEmptyAndTiny(t *testing.T) {
	g, err := testnet.Random(2, 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.SingleLink(g, core.SingleLinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dendrogram.Merges) != 0 || res.FinalClusters != 0 {
		t.Fatalf("empty network: %+v", res)
	}
	g1, err := testnet.Random(3, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err = core.SingleLink(g1, core.SingleLinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dendrogram.Merges) != 0 || res.FinalClusters != 1 {
		t.Fatalf("single point: %+v", res)
	}
	// Delta: NaN is refused (every gap comparison would be false and the run
	// would silently ignore δ); -0 is 0 and +Inf pre-merges every group.
	g2, err := testnet.Random(4, 12, 30)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.SingleLink(g2, core.SingleLinkOptions{Delta: math.NaN()}); !errors.Is(err, core.ErrInvalidOptions) {
		t.Fatalf("Delta NaN: got %v, want an ErrInvalidOptions chain", err)
	}
	for _, delta := range []float64{math.Copysign(0, -1), math.Inf(1)} {
		res, err := core.SingleLink(g2, core.SingleLinkOptions{Delta: delta})
		if err != nil {
			t.Fatalf("Delta %v: %v", delta, err)
		}
		wantPre := 0
		if delta > 0 {
			wantPre = g2.NumPoints() - g2.NumGroups()
		}
		if res.Dendrogram.PreMerges != wantPre || res.FinalClusters != 1 {
			t.Fatalf("Delta %v: %d pre-merges, %d final clusters, want %d and 1", delta, res.Dendrogram.PreMerges, res.FinalClusters, wantPre)
		}
	}
}

// cancelAt is a graph that cancels a context from inside its at-th Neighbors
// call. With
// kernel set the graph keeps its expansion kernel, so Single-Link takes the
// kernel path and the calls counted are those of its candidate sweep
// (k-medoids: of the seed loop of its incremental update).
type cancelAt struct {
	network.Graph
	at     int64
	calls  int64
	cancel context.CancelFunc
}

func newCancelAt(g network.Graph, at int, cancel context.CancelFunc) *cancelAt {
	return &cancelAt{Graph: g, at: int64(at), cancel: cancel}
}

func (c *cancelAt) Neighbors(n network.NodeID) ([]network.Neighbor, error) {
	if c.calls++; c.calls == c.at {
		c.cancel()
	}
	return c.Graph.Neighbors(n)
}

// cancelAtKernel is a cancelAt that keeps g's expansion kernel.
type cancelAtKernel struct {
	*cancelAt
	network.NearestExpander
}

// cancelWrap wraps g so that its at-th adjacency read cancels, keeping g's
// expansion kernel when it has one.
func cancelWrap(g network.Graph, at int, cancel context.CancelFunc) (network.Graph, *cancelAt) {
	c := newCancelAt(g, at, cancel)
	if ne, ok := g.(network.NearestExpander); ok {
		return cancelAtKernel{c, ne}, c
	}
	return c, c
}

// TestSingleLinkCancelled cancels Single-Link before it starts, in the middle
// of its adjacency reads (the expansion, or the sweep after the kernel) and at
// the last of them (so that only the merge loop is left to notice) on every
// backend: each run must end in the wrapped ctx.Err() with no result.
func TestSingleLinkCancelled(t *testing.T) {
	g, err := testnet.Random(31, 1200, 300)
	if err != nil {
		t.Fatal(err)
	}
	for _, bk := range densityBackends(t, g, 4, true) {
		for _, at := range []int{0, 40, bk.g.NumNodes()} {
			ctx, cancel := context.WithCancel(context.Background())
			wrapped, c := cancelWrap(bk.g, at, cancel)
			if at == 0 {
				cancel()
			}
			res, err := core.SingleLinkCtx(ctx, wrapped, core.SingleLinkOptions{})
			cancel()
			if n := c.calls; n < int64(at) {
				t.Fatalf("%s: only %d adjacency reads, the cancel at %d never fired", bk.name, n, at)
			}
			if !errors.Is(err, context.Canceled) || res != nil {
				t.Fatalf("%s cancelled at read %d: got a result: %v, error %v; want no result and a context.Canceled chain", bk.name, at, res != nil, err)
			}
		}
	}
}

// TestSingleLinkWorkBound pins what a full Single-Link reads from the disk
// store, in counted work rather than time: the group scan once and every
// adjacency list at most once — no group look-up after the scan, no second
// visit of a node. With the record caches off a logical page read is a pure
// function of the call, so the bound is the measured cost of one ScanGroups
// plus one Neighbors per node.
func TestSingleLinkWorkBound(t *testing.T) {
	n, err := testnet.Random(21, 900, 4000)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := storage.Options{PageSize: 256, BufferBytes: 64 * 256, DisableRecordCaches: true}
	if err := storage.Build(dir, n, opts); err != nil {
		t.Fatal(err)
	}
	st, err := storage.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reads := func(fn func() error) int64 {
		t.Helper()
		before := st.Stats().LogicalReads
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		return st.Stats().LogicalReads - before
	}
	bound := reads(func() error {
		return st.ScanGroups(func(network.GroupID, network.PointGroup, []float64) error { return nil })
	}) + reads(func() error {
		for u := 0; u < st.NumNodes(); u++ {
			if _, err := st.Neighbors(network.NodeID(u)); err != nil {
				return err
			}
		}
		return nil
	})
	for _, delta := range []float64{0, 0.05} {
		var res *core.SingleLinkResult
		got := reads(func() (err error) {
			res, err = core.SingleLink(st, core.SingleLinkOptions{Delta: delta})
			return err
		})
		if got > bound {
			t.Fatalf("delta %v: %d logical page reads, one group scan and one adjacency read per node cost %d", delta, got, bound)
		}
		if s := res.Stats; s.GroupsRead != st.NumGroups() || s.NodesSettled > st.NumNodes() || s.EdgesVisited > 2*st.NumEdges() {
			t.Fatalf("delta %v: stats %+v on %d groups, %d nodes, %d edges", delta, s, st.NumGroups(), st.NumNodes(), st.NumEdges())
		}
	}
}
