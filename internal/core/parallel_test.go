package core

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"netclus/internal/matrix"
	"netclus/internal/network"
	"netclus/internal/testnet"
)

// TestEpsLinkParallelMatchesSequential checks the determinism guarantee
// against the brute-force oracle: ε-Link at Workers 4 labels the matrix's
// ε-components byte for byte, and the min_sup filter only turns the members of
// small components into noise.
func TestEpsLinkParallelMatchesSequential(t *testing.T) {
	net, _, err := testnet.RandomClustered(7, 120, 500, 4)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := matrix.PointDistances(net)
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0.05, 0.15, 0.4} {
		want := matrix.EpsComponents(dist, eps, 1)
		sizes, _ := ClusterSizes(want)
		par, err := EpsLink(net, EpsLinkOptions{Eps: eps, MinSup: 3, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		kept := 0
		for _, size := range sizes {
			if size >= 3 {
				kept++
			}
		}
		if par.NumClusters != kept || par.ClustersFound != len(sizes) {
			t.Fatalf("eps=%v: parallel found %d/%d clusters, the oracle %d/%d",
				eps, par.NumClusters, par.ClustersFound, kept, len(sizes))
		}
		for i, l := range want {
			if sizes[l] < 3 {
				l = Noise
			}
			if par.Labels[i] != l {
				t.Fatalf("eps=%v: label mismatch at point %d: parallel %d, oracle %d", eps, i, par.Labels[i], l)
			}
		}
	}
}

func TestDBSCANParallelMatchesSequential(t *testing.T) {
	net, _, err := testnet.RandomClustered(11, 120, 500, 4)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := matrix.PointDistances(net)
	if err != nil {
		t.Fatal(err)
	}
	for _, minPts := range []int{2, 3, 5} {
		want := matrix.DBSCAN(dist, 0.15, minPts)
		par, err := DBSCAN(net, DBSCANOptions{Eps: 0.15, MinPts: minPts, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if par.NumClusters != CountClusters(want) {
			t.Fatalf("minPts=%d: parallel %d clusters, the oracle %d", minPts, par.NumClusters, CountClusters(want))
		}
		cores := 0
		for i := range want {
			if par.Labels[i] != want[i] {
				t.Fatalf("minPts=%d: label mismatch at point %d: parallel %d, oracle %d",
					minPts, i, par.Labels[i], want[i])
			}
			cnt := 0
			for _, d := range dist[i] {
				if d <= 0.15 {
					cnt++
				}
			}
			if par.Core[i] != (cnt >= minPts) {
				t.Fatalf("minPts=%d: core flag mismatch at point %d", minPts, i)
			}
			if par.Core[i] {
				cores++
			}
		}
		if par.CorePoints != cores {
			t.Fatalf("minPts=%d: parallel counts %d cores, flags %d", minPts, par.CorePoints, cores)
		}
	}
}

// TestCancelledContext checks that every algorithm notices a pre-cancelled
// context and surfaces context.Canceled through its error chain, and that
// DBSCAN notices one cancelled between its passes.
func TestCancelledContext(t *testing.T) {
	net, _, err := testnet.RandomClustered(23, 120, 400, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	runs := map[string]func() error{
		"EpsLink": func() error {
			_, err := EpsLinkCtx(ctx, net, EpsLinkOptions{Eps: 0.2})
			return err
		},
		"EpsLinkWorkers": func() error {
			_, err := EpsLinkCtx(ctx, net, EpsLinkOptions{Eps: 0.2, Workers: 4})
			return err
		},
		"DBSCAN": func() error {
			_, err := DBSCANCtx(ctx, net, DBSCANOptions{Eps: 0.2, MinPts: 3})
			return err
		},
		"DBSCANWorkers": func() error {
			_, err := DBSCANCtx(ctx, net, DBSCANOptions{Eps: 0.2, MinPts: 3, Workers: 4})
			return err
		},
		"OPTICS": func() error {
			_, err := OPTICSCtx(ctx, net, OPTICSOptions{Eps: 0.2, MinPts: 3})
			return err
		},
		"SingleLink": func() error {
			_, err := SingleLinkCtx(ctx, net, SingleLinkOptions{})
			return err
		},
		"KMedoids": func() error {
			_, err := KMedoidsCtx(ctx, net, KMedoidsOptions{K: 3})
			return err
		},
	}
	for name, run := range runs {
		if err := run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: got %v, want a context.Canceled chain", name, err)
		}
	}
	t.Run("DBSCANAfterFlagPass", func(t *testing.T) { checkCancelAfterFlagPass(t, net) })
}

// lateCancelGraph is a pointer network that cancels its context from inside
// Neighbors once DBSCAN's flag pass is over: its scratches count the finished
// flag queries, and the first adjacency read after the last query the pass
// issues (queries of them; the edge windows settle the other flags without
// one) can only come from the growth pass.
type lateCancelGraph struct {
	*network.Network
	cancel  context.CancelFunc
	queries int64
	flagged atomic.Int64
	late    atomic.Bool
}

func (g *lateCancelGraph) NewRangeScratch() network.RangeQuerier {
	return &countingScratch{RangeQuerier: network.NewRangeScratch(g), g: g}
}

func (g *lateCancelGraph) Neighbors(n network.NodeID) ([]network.Neighbor, error) {
	if g.flagged.Load() == g.queries {
		g.late.Store(true)
		g.cancel()
	}
	return g.Network.Neighbors(n)
}

type countingScratch struct {
	network.RangeQuerier
	g *lateCancelGraph
}

func (s *countingScratch) RangeQueryLimitCtx(ctx context.Context, g network.Graph, p network.PointID, eps float64, limit int) ([]network.PointID, error) {
	nb, err := s.RangeQuerier.RangeQueryLimitCtx(ctx, g, p, eps, limit)
	s.g.flagged.Add(1)
	return nb, err
}

// checkCancelAfterFlagPass cancels a Workers 4 DBSCAN once its growth pass has
// started: the serial passes poll the context too, so the run must end in the
// wrapped ctx.Err() with no partial labels, and the striped flag pass must
// have left no goroutine behind.
func checkCancelAfterFlagPass(t *testing.T, net *network.Network) {
	opts := DBSCANOptions{Eps: 0.2, MinPts: 3, Workers: 4}
	ref, err := DBSCAN(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ref.CorePoints == 0 || ref.CorePoints == net.NumPoints() || ref.Stats.RangeQueries == 0 {
		t.Fatalf("fixture has %d core points of %d and %d flag queries: all three passes must have work",
			ref.CorePoints, net.NumPoints(), ref.Stats.RangeQueries)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := &lateCancelGraph{Network: net, cancel: cancel, queries: int64(ref.Stats.RangeQueries)}
	res, err := DBSCANCtx(ctx, g, opts)
	if !g.late.Load() {
		t.Fatal("the growth pass never read an adjacency list after the flag pass")
	}
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("got a result: %v, error %v; want no result and a context.Canceled chain", res != nil, err)
	}
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 200 {
			t.Fatalf("%d goroutines before the run, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestInvalidOptionsSentinel checks that every validation failure wraps
// ErrInvalidOptions.
func TestInvalidOptionsSentinel(t *testing.T) {
	net, err := testnet.Line(10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	runs := map[string]func() error{
		"EpsLink":    func() error { _, err := EpsLink(net, EpsLinkOptions{}); return err },
		"DBSCAN":     func() error { _, err := DBSCAN(net, DBSCANOptions{Eps: 1, MinPts: 0}); return err },
		"OPTICS":     func() error { _, err := OPTICS(net, OPTICSOptions{}); return err },
		"SingleLink": func() error { _, err := SingleLink(net, SingleLinkOptions{Delta: -1}); return err },
		"KMedoids":   func() error { _, err := KMedoids(net, KMedoidsOptions{K: 0}); return err },
		"RepLink":    func() error { _, err := RepLink(net, RepLinkOptions{MaxReps: -1}); return err },
	}
	for name, run := range runs {
		if err := run(); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("%s: got %v, want an ErrInvalidOptions chain", name, err)
		}
	}
}
