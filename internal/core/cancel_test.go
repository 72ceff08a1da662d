package core

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"netclus/internal/network"
	"netclus/internal/testnet"
)

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
		"DBSCAN": func() error {
			_, err := DBSCANCtx(ctx, net, DBSCANOptions{Eps: 0.2, MinPts: 3})
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

// checkCancelAfterFlagPass cancels a DBSCAN once its growth pass has started:
// the later passes poll the context too, so the run must end in the wrapped
// ctx.Err() with no partial labels and no goroutine left behind.
func checkCancelAfterFlagPass(t *testing.T, net *network.Network) {
	opts := DBSCANOptions{Eps: 0.2, MinPts: 3}
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
