package csr_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"netclus/internal/csr"
	"netclus/internal/delta"
	"netclus/internal/network"
	"netclus/internal/testnet"
)

// derivedViews returns a compiled snapshot and two views a live overlay
// derived from it: one with more points than the base — some on an edge that
// carried none, so it owns a renumbered adjacency — and one with fewer.
func derivedViews(t *testing.T) (base *csr.Snapshot, more, fewer network.Graph) {
	t.Helper()
	g, err := testnet.Random(21, 40, 120)
	if err != nil {
		t.Fatal(err)
	}
	base = compile(t, g)
	o, err := delta.New(base, delta.Options{CompactOps: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Close)
	ctx := context.Background()
	var ops []delta.Op
	for p := 0; p < 40; p++ {
		ops = append(ops, delta.InsertNear(network.PointID(3*p), 0.3, 7))
	}
	for u := 0; u < g.NumNodes() && len(ops) < 45; u++ {
		nbs, _ := g.Neighbors(network.NodeID(u))
		for _, nb := range nbs {
			if nb.Group == network.NoGroup && nb.Node > network.NodeID(u) {
				ops = append(ops, delta.Insert(network.NodeID(u), nb.Node, nb.Weight/3, 8))
			}
		}
	}
	if _, err := o.Apply(ctx, ops); err != nil {
		t.Fatal(err)
	}
	more = o.Current().Graph
	ops = ops[:0]
	for p := 0; p < 100; p += 2 {
		ops = append(ops, delta.Delete(network.PointID(p)))
	}
	if _, err := o.Apply(ctx, ops); err != nil {
		t.Fatal(err)
	}
	fewer = o.Current().Graph
	if more.NumPoints() <= base.NumPoints() || fewer.NumPoints() >= base.NumPoints() {
		t.Fatalf("views of %d and %d points around a base of %d", more.NumPoints(), fewer.NumPoints(), base.NumPoints())
	}
	return base, more, fewer
}

// TestScratchRebindsAcrossDerivedViews hands one kernel scratch, made for the
// base, views with more and with fewer points in turn: every answer equals a
// fresh scratch's on that view, and the pooled kNN path answers every view
// like a snapshot compiled from it. A graph outside the family is refused,
// not answered for the scratch's own snapshot.
func TestScratchRebindsAcrossDerivedViews(t *testing.T) {
	ctx := context.Background()
	base, more, fewer := derivedViews(t)
	sc := base.NewRangeScratch()
	for round, v := range []network.Graph{more, fewer, more, base, fewer} {
		fresh := network.ScratchFor(v)
		compiled := compile(t, v)
		for p := 0; p < v.NumPoints(); p += 7 {
			pid := network.PointID(p)
			for _, eps := range []float64{0.5, 2, 6} {
				got, err := sc.RangeQueryDistCtx(ctx, v, pid, eps)
				if err != nil {
					t.Fatalf("round %d: range(%d, %v): %v", round, p, eps, err)
				}
				got = append([]network.PointDist(nil), got...)
				want, err := fresh.RangeQueryDistCtx(ctx, v, pid, eps)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d: range(%d, %v) on a rebound scratch differs from a fresh one (%v)", round, p, eps, err)
				}
				ids, err := sc.RangeQueryLimitCtx(ctx, v, pid, eps, 3)
				if err != nil || len(ids) < min(3, len(want)) {
					t.Fatalf("round %d: limited range(%d, %v) returned %d of %d (%v)", round, p, eps, len(ids), len(want), err)
				}
			}
			got, err := v.(network.KNNQuerier).KNNCtx(ctx, pid, 5)
			if err != nil {
				t.Fatal(err)
			}
			want, err := compiled.KNNCtx(ctx, pid, 5)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: kNN(%d) through the family's pool differs from a compile of the view (%v)", round, p, err)
			}
		}
	}
	g, err := testnet.Random(21, 40, 120)
	if err != nil {
		t.Fatal(err)
	}
	for _, other := range []network.Graph{g, compile(t, g)} {
		if _, err := sc.RangeQueryCtx(ctx, other, 0, 1); !errors.Is(err, network.ErrInvalidOptions) {
			t.Fatalf("a scratch of one family queried %T: err %v, want ErrInvalidOptions", other, err)
		}
	}
}

// TestDerivedViewReadsAllocateNothing alternates reads between a base and two
// views derived from it. Once the pooled state has grown to the largest view,
// a range query on a rebound scratch and both labellers allocate nothing, and
// a kNN query allocates only the result it returns: no epoch costs an
// O(points) scratch.
func TestDerivedViewReadsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector shadow updates allocate")
	}
	ctx := context.Background()
	base, more, fewer := derivedViews(t)
	views := []network.Graph{more, base, fewer}
	sc := base.NewRangeScratch()
	labels := make([]int32, more.NumPoints())
	core := make([]bool, more.NumPoints())
	i := 0
	for name, c := range map[string]struct {
		allocs float64
		run    func(v network.Graph) error
	}{
		"range": {0, func(v network.Graph) error {
			_, err := sc.RangeQueryCtx(ctx, v, 1, 2)
			return err
		}},
		"kNN": {1, func(v network.Graph) error {
			_, err := v.(network.KNNQuerier).KNNCtx(ctx, 1, 5)
			return err
		}},
		"DBSCAN": {0, func(v network.Graph) error {
			n := v.NumPoints()
			_, _, _, err := v.(network.LabelKernel).DBSCANLabels(ctx, 2, 3, 1, labels[:n], core[:n])
			return err
		}},
		"eps-Link": {0, func(v network.Graph) error {
			_, _, err := v.(network.LabelKernel).EpsLinkLabels(ctx, 2, 3, labels[:v.NumPoints()])
			return err
		}},
	} {
		for _, v := range views {
			if err := c.run(v); err != nil {
				t.Fatal(err)
			}
		}
		if avg := testing.AllocsPerRun(30, func() {
			if err := c.run(views[i%len(views)]); err != nil {
				t.Fatal(err)
			}
			i++
		}); avg > c.allocs {
			t.Fatalf("%s on alternating views allocates %v per read, want %v", name, avg, c.allocs)
		}
	}
}
