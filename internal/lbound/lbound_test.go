package lbound_test

import (
	"context"
	"errors"
	"math"
	"sort"
	"testing"

	"netclus/internal/lbound"
	"netclus/internal/matrix"
	"netclus/internal/network"
	"netclus/internal/testnet"
)

func TestBuildErrors(t *testing.T) {
	empty, err := network.NewBuilder().Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lbound.Build(empty, lbound.Options{}); !errors.Is(err, lbound.ErrEmptyNetwork) {
		t.Fatalf("empty network: got %v, want ErrEmptyNetwork", err)
	}

	// Coordinate-free network with EuclideanLB requested.
	b := network.NewBuilder()
	b.AddNodes(2)
	b.AddEdge(0, 1, 1)
	plain, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lbound.Build(plain, lbound.Options{EuclideanLB: true}); !errors.Is(err, lbound.ErrNoCoords) {
		t.Fatalf("coordless: got %v, want ErrNoCoords", err)
	}
	if _, err := lbound.Build(plain, lbound.Options{Landmarks: 2}); err != nil {
		t.Fatalf("coordless landmark-only build: %v", err)
	}

	// Embedded network whose edge weight undercuts the chord: not a valid
	// Euclidean lower-bound instance.
	b = network.NewBuilder()
	b.AddNode(network.Coord{X: 0})
	b.AddNode(network.Coord{X: 10})
	b.AddEdge(0, 1, 1) // weight 1 < chord 10
	short, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lbound.Build(short, lbound.Options{EuclideanLB: true}); !errors.Is(err, lbound.ErrNotEuclidean) {
		t.Fatalf("short edge: got %v, want ErrNotEuclidean", err)
	}
	// Without the flag the same network is accepted (landmark bounds only).
	bd, err := lbound.Build(short, lbound.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bd.Euclidean() {
		t.Fatal("Euclidean() true without EuclideanLB")
	}
}

// cancelGraph cancels its build's context at its at-th Neighbors call and
// counts every call.
type cancelGraph struct {
	network.Graph
	at, calls int
	cancel    context.CancelFunc
}

func (g *cancelGraph) Neighbors(v network.NodeID) ([]network.Neighbor, error) {
	if g.calls++; g.calls == g.at {
		g.cancel()
	}
	return g.Graph.Neighbors(v)
}

// TestBuildCtxCancel: a cancelled build stops within one traversal-check
// interval (256 settled nodes) of the cancellation and reports ctx's error;
// a build whose context is already done reads nothing.
func TestBuildCtxCancel(t *testing.T) {
	base, err := testnet.Random(3, 900, 1200)
	if err != nil {
		t.Fatal(err)
	}
	n := base.NumNodes()
	for _, opts := range []lbound.Options{
		{Landmarks: 8},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		g := &cancelGraph{Graph: base, at: n + n/2, cancel: cancel}
		if _, err := lbound.BuildCtx(ctx, g, opts); !errors.Is(err, context.Canceled) {
			t.Fatalf("%+v: cancelled build returned %v", opts, err)
		}
		if over := g.calls - g.at; over > 256 {
			t.Fatalf("%+v: %d reads after the cancellation", opts, over)
		}
		cancel()
		done := &cancelGraph{Graph: base, cancel: func() {}}
		if _, err := lbound.BuildCtx(ctx, done, opts); !errors.Is(err, context.Canceled) || done.calls != 0 {
			t.Fatalf("%+v: build under a done context: %v after %d reads", opts, err, done.calls)
		}
	}
}

// nodeDists returns the exact distance table d[u][v] by one Dijkstra per node.
func nodeDists(t *testing.T, g network.Graph) [][]float64 {
	t.Helper()
	n := g.NumNodes()
	d := make([][]float64, n)
	for u := 0; u < n; u++ {
		row, err := network.NodeDistancesFrom(g, []network.Seed{{Node: network.NodeID(u)}})
		if err != nil {
			t.Fatal(err)
		}
		d[u] = row
	}
	return d
}

func TestNodeBoundsAdmissible(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g, err := testnet.Random(seed, 36, 50)
		if err != nil {
			t.Fatal(err)
		}
		b, err := lbound.Build(g, lbound.Options{Landmarks: 4, EuclideanLB: true})
		if err != nil {
			t.Fatal(err)
		}
		if st := b.Stats(); st.Landmarks != 4 || len(st.LandmarkNodes) != 4 || !st.Euclidean || st.TableBytes == 0 || st.BuildTime <= 0 {
			t.Fatalf("seed %d: stats not populated: %+v", seed, st)
		}
		exact := nodeDists(t, g)
		for u := 0; u < g.NumNodes(); u++ {
			for v := 0; v < g.NumNodes(); v++ {
				d := exact[u][v]
				lo := b.NodeLower(network.NodeID(u), network.NodeID(v))
				hi := b.NodeUpper(network.NodeID(u), network.NodeID(v))
				if lo > d+1e-9 {
					t.Fatalf("seed %d: NodeLower(%d,%d)=%v > exact %v", seed, u, v, lo, d)
				}
				if hi < d-1e-9 {
					t.Fatalf("seed %d: NodeUpper(%d,%d)=%v < exact %v", seed, u, v, hi, d)
				}
			}
		}
	}
}

func TestPointBoundsAdmissible(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g, err := testnet.Random(seed+10, 30, 45)
		if err != nil {
			t.Fatal(err)
		}
		b, err := lbound.Build(g, lbound.Options{Landmarks: 4, EuclideanLB: true})
		if err != nil {
			t.Fatal(err)
		}
		exact, err := matrix.PointDistances(g)
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumPoints()
		for p := 0; p < n; p++ {
			pi, err := g.PointInfo(network.PointID(p))
			if err != nil {
				t.Fatal(err)
			}
			for q := 0; q < n; q++ {
				qi, err := g.PointInfo(network.PointID(q))
				if err != nil {
					t.Fatal(err)
				}
				d := exact[p][q]
				lo := b.PointLower(pi, qi)
				hi := b.PointUpper(pi, qi)
				if lo > d+1e-9 {
					t.Fatalf("seed %d: PointLower(%d,%d)=%v > exact %v", seed, p, q, lo, d)
				}
				if hi < d-1e-9 {
					t.Fatalf("seed %d: PointUpper(%d,%d)=%v < exact %v", seed, p, q, hi, d)
				}
			}
		}
	}
}

// euclidPts returns the interpolated planar position of every point.
func euclidPts(t *testing.T, g *network.Network) []network.Coord {
	t.Helper()
	pts := make([]network.Coord, g.NumPoints())
	for p := range pts {
		c, err := g.PointCoord(network.PointID(p))
		if err != nil {
			t.Fatal(err)
		}
		pts[p] = c
	}
	return pts
}

func TestCandidatesMatchBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g, err := testnet.Random(seed+20, 36, 60)
		if err != nil {
			t.Fatal(err)
		}
		b, err := lbound.Build(g, lbound.Options{Landmarks: 3, EuclideanLB: true})
		if err != nil {
			t.Fatal(err)
		}
		pts := euclidPts(t, g)
		exact, err := matrix.PointDistances(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{0, g.NumPoints() / 2, g.NumPoints() - 1} {
			pi, err := g.PointInfo(network.PointID(p))
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []float64{0.3, 1.0, 3.0} {
				var got []int
				ok := b.Candidates(pi, r, func(q network.PointID, qi network.PointInfo, lower, upper float64) bool {
					d := exact[p][q]
					if lower > d+1e-9 {
						t.Fatalf("seed %d p %d r %v: yielded lower %v > exact %v for %d", seed, p, r, lower, d, q)
					}
					if upper < d-1e-9 {
						t.Fatalf("seed %d p %d r %v: yielded upper %v < exact %v for %d", seed, p, r, upper, d, q)
					}
					want, err := g.PointInfo(q)
					if err != nil {
						t.Fatal(err)
					}
					if qi.Group != want.Group || qi.N1 != want.N1 || qi.N2 != want.N2 ||
						qi.Pos != want.Pos || qi.Weight != want.Weight {
						t.Fatalf("seed %d p %d r %v: yielded qi %+v, graph says %+v for %d", seed, p, r, qi, want, q)
					}
					got = append(got, int(q))
					return true
				})
				if !ok {
					t.Fatalf("Candidates unsupported on embedded network")
				}
				var want []int
				for q := range pts {
					if math.Hypot(pts[q].X-pts[p].X, pts[q].Y-pts[p].Y) <= r {
						want = append(want, q)
					}
				}
				sort.Ints(got)
				if len(got) != len(want) {
					t.Fatalf("seed %d p %d r %v: got %d candidates, want %d", seed, p, r, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %d p %d r %v: candidate sets differ", seed, p, r)
					}
				}
			}
		}
	}
}

func TestNearestCandidatesAscending(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g, err := testnet.Random(seed+30, 30, 50)
		if err != nil {
			t.Fatal(err)
		}
		b, err := lbound.Build(g, lbound.Options{Landmarks: 3, EuclideanLB: true})
		if err != nil {
			t.Fatal(err)
		}
		pts := euclidPts(t, g)
		p := g.NumPoints() / 3
		pi, err := g.PointInfo(network.PointID(p))
		if err != nil {
			t.Fatal(err)
		}
		var order []int
		prev := -1.0
		ok := b.NearestCandidates(pi, func(q network.PointID, qi network.PointInfo, euclid float64) bool {
			de := math.Hypot(pts[q].X-pts[p].X, pts[q].Y-pts[p].Y)
			if math.Abs(euclid-de) > 1e-9 {
				t.Fatalf("seed %d: candidate %d yielded euclid %v, want %v", seed, q, euclid, de)
			}
			if de < prev-1e-9 {
				t.Fatalf("seed %d: candidate %d at euclid %v after %v — not ascending", seed, q, de, prev)
			}
			want, err := g.PointInfo(q)
			if err != nil {
				t.Fatal(err)
			}
			if qi.Group != want.Group || qi.Pos != want.Pos {
				t.Fatalf("seed %d: candidate %d yielded qi %+v, graph says %+v", seed, q, qi, want)
			}
			prev = de
			order = append(order, int(q))
			return true
		})
		if !ok {
			t.Fatal("NearestCandidates unsupported on embedded network")
		}
		if len(order) != g.NumPoints() {
			t.Fatalf("seed %d: streamed %d of %d points", seed, len(order), g.NumPoints())
		}
		seen := make(map[int]bool, len(order))
		for _, q := range order {
			if seen[q] {
				t.Fatalf("seed %d: point %d streamed twice", seed, q)
			}
			seen[q] = true
		}
	}
}

func TestTargetBoundsBracketExact(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g, err := testnet.Random(seed+40, 32, 48)
		if err != nil {
			t.Fatal(err)
		}
		b, err := lbound.Build(g, lbound.Options{Landmarks: 4, EuclideanLB: true})
		if err != nil {
			t.Fatal(err)
		}
		targets := []network.PointInfo{}
		for p := 0; p < g.NumPoints(); p += 5 {
			pi, err := g.PointInfo(network.PointID(p))
			if err != nil {
				t.Fatal(err)
			}
			targets = append(targets, pi)
		}
		tb := b.TargetBounds(targets)
		// Exact node -> nearest-target distance via a super-source expansion
		// seeded at every target's two entry points.
		var seeds []network.Seed
		for _, ti := range targets {
			seeds = append(seeds,
				network.Seed{Node: ti.N1, Dist: ti.Pos},
				network.Seed{Node: ti.N2, Dist: ti.Weight - ti.Pos})
		}
		exact, err := network.NodeDistancesFrom(g, seeds)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < g.NumNodes(); v++ {
			lo, hi := tb.Lower(network.NodeID(v)), tb.Upper(network.NodeID(v))
			if lo > exact[v]+1e-9 {
				t.Fatalf("seed %d: target Lower(%d)=%v > exact %v", seed, v, lo, exact[v])
			}
			if hi < exact[v]-1e-9 {
				t.Fatalf("seed %d: target Upper(%d)=%v < exact %v", seed, v, hi, exact[v])
			}
		}
	}
}
