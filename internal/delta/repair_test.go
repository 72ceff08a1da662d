// Suites for the local repair of the live labelling (live.go): merges as
// unions, splits checked per blob of leavers. Every batch is followed by
// checkLiveEqual — the maintained ε-Link and DBSCAN labels, cluster counts
// and core count against a from-scratch run on the same view — so whichever
// path a batch took (no check, a passing check, a flood) it is held to the
// batch algorithms.
package delta_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"netclus/internal/csr"
	"netclus/internal/delta"
	"netclus/internal/network"
	"netclus/internal/testnet"
)

// churnOps builds one valid batch of up to max ops against a view of n
// points: distinct move/delete targets, donors that the batch leaves alone,
// and more deletes than inserts while the view can afford them.
func churnOps(rng *rand.Rand, n, max int) []delta.Op {
	used := make(map[network.PointID]bool)
	fresh := func() network.PointID {
		for {
			if p := network.PointID(rng.Intn(n)); !used[p] {
				used[p] = true
				return p
			}
		}
	}
	deletes := 6
	if n < 80 {
		deletes = 1
	}
	var ops []delta.Op
	for want := 1 + rng.Intn(max); len(ops) < want && len(used) < n-1; {
		switch k := rng.Intn(10); {
		case k < deletes:
			ops = append(ops, delta.Delete(fresh()))
		case k < 8:
			ops = append(ops, delta.InsertNear(fresh(), rng.Float64(), int32(rng.Intn(5))))
		default:
			ops = append(ops, delta.MoveSame(fresh(), rng.Float64()))
		}
	}
	return ops
}

func TestRepairRandomClustered(t *testing.T) {
	g, cfg, err := testnet.RandomClustered(5, 120, 700, 6)
	if err != nil {
		t.Fatalf("RandomClustered: %v", err)
	}
	sn, err := csr.Compile(g)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	ctx := context.Background()
	for name, base := range map[string]network.Graph{"network": g, "snapshot": sn} {
		for _, minPts := range []int{2, 3, 5} {
			for _, scale := range []float64{0.5, 1, 2} {
				eps := scale * cfg.Eps()
				t.Run(fmt.Sprintf("%s/minPts=%d/eps=%gx", name, minPts, scale), func(t *testing.T) {
					o, err := delta.New(base, delta.Options{
						CompactOps: 150, // a few rebases per stream
						Live:       &delta.LiveOptions{Eps: eps, MinPts: minPts},
					})
					if err != nil {
						t.Fatalf("New: %v", err)
					}
					defer o.Close()
					rng := rand.New(rand.NewSource(int64(minPts)*100 + int64(scale*10)))
					for round := 0; round < 120; round++ {
						ops := churnOps(rng, o.Current().Points, 12)
						if _, err := o.Apply(ctx, ops); err != nil {
							t.Fatalf("round %d: Apply(%+v): %v", round, ops, err)
						}
						checkLiveEqual(t, o.Current(), eps, minPts)
					}
					if st := o.Stats(); st.Compactions == 0 {
						t.Fatalf("no compaction swapped the base mid-stream: %+v", st)
					}
				})
			}
		}
	}
}

// TestRepairLine churns a path with a point every half unit: at ε = 0.5 a
// point's only neighbours are the two beside it, so every interior delete
// splits a component; at ε = 1 it takes two adjacent leavers.
func TestRepairLine(t *testing.T) {
	g, err := testnet.Line(200, 0.5)
	if err != nil {
		t.Fatalf("Line: %v", err)
	}
	ctx := context.Background()
	for _, eps := range []float64{0.5, 1} {
		for _, minPts := range []int{2, 3} {
			t.Run(fmt.Sprintf("eps=%g/minPts=%d", eps, minPts), func(t *testing.T) {
				o, err := delta.New(g, delta.Options{
					CompactOps: 100,
					Live:       &delta.LiveOptions{Eps: eps, MinPts: minPts},
				})
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				defer o.Close()
				rng := rand.New(rand.NewSource(int64(eps*10) + int64(minPts)))
				for round := 0; round < 120; round++ {
					ops := churnOps(rng, o.Current().Points, 6)
					if _, err := o.Apply(ctx, ops); err != nil {
						t.Fatalf("round %d: Apply(%+v): %v", round, ops, err)
					}
					checkLiveEqual(t, o.Current(), eps, minPts)
				}
				if st := o.Stats(); st.LiveFloods == 0 {
					t.Fatalf("120 batches on a path split nothing: %+v", st)
				}
			})
		}
	}
}

// star is three unit-weight arms a, b, c around a hub (node 0); arm nodes are
// 1, 2, 3 and each arm continues one more unit to nodes 4, 5, 6.
func star(t *testing.T, pts ...[3]float64) *network.Network {
	t.Helper()
	b := network.NewBuilder()
	b.AddNodes(7)
	for arm := 1; arm <= 3; arm++ {
		b.AddEdge(0, network.NodeID(arm), 1)
		b.AddEdge(network.NodeID(arm), network.NodeID(arm+3), 1)
	}
	for i, p := range pts {
		b.AddPoint(network.NodeID(p[0]), network.NodeID(p[1]), p[2], int32(i))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

// pointAt returns the canonical ID of the point at offset pos of edge (u,v).
func pointAt(t *testing.T, g network.Graph, u, v network.NodeID, pos float64) network.PointID {
	t.Helper()
	for p := 0; p < g.NumPoints(); p++ {
		pi, _ := g.PointInfo(network.PointID(p))
		if pi.N1 == u && pi.N2 == v && pi.Pos == pos {
			return network.PointID(p)
		}
	}
	t.Fatalf("no point at %g of edge (%d,%d)", pos, u, v)
	return 0
}

// TestRepairNamedCases pins the shapes the soundness argument turns on. All
// offsets are binary fractions, so "exactly ε apart" means it.
func TestRepairNamedCases(t *testing.T) {
	line := func(t *testing.T) network.Graph {
		g, err := testnet.Line(8, 1) // points at 0.5, 1.5, ..., 6.5
		if err != nil {
			t.Fatalf("Line: %v", err)
		}
		return g
	}
	for _, tc := range []struct {
		name   string
		graph  func(*testing.T) network.Graph
		eps    float64
		minPts int
		ops    func(*testing.T, network.Graph) []delta.Op
		// clusters before and after, ε-Link then DBSCAN, and the floods the
		// batch may cost.
		elBefore, elAfter, dbBefore, dbAfter int32
		floods                               int64
	}{
		{
			// a–x₁–x₂–b: neither leaver has both a and b as neighbours, so a
			// check per leaver sees nothing wrong.
			name: "adjacent leavers", graph: line, eps: 1, minPts: 2,
			ops: func(t *testing.T, g network.Graph) []delta.Op {
				return []delta.Op{delta.Delete(pointAt(t, g, 2, 3, 0.5)), delta.Delete(pointAt(t, g, 3, 4, 0.5))}
			},
			elBefore: 1, elAfter: 2, dbBefore: 1, dbAfter: 2, floods: 4,
		},
		{
			// The same two leavers around a ring: a and b stay connected the
			// long way round, so nothing splits and nothing floods.
			name: "adjacent leavers on a ring", eps: 1, minPts: 2,
			graph: func(t *testing.T) network.Graph {
				b := network.NewBuilder()
				b.AddNodes(6)
				for i := 0; i < 6; i++ {
					b.AddEdge(network.NodeID(i), network.NodeID((i+1)%6), 1)
					u, v := network.CanonEdge(network.NodeID(i), network.NodeID((i+1)%6))
					b.AddPoint(u, v, 0.5, int32(i))
				}
				g, err := b.Build()
				if err != nil {
					t.Fatalf("Build: %v", err)
				}
				return g
			},
			ops: func(t *testing.T, g network.Graph) []delta.Op {
				return []delta.Op{delta.Delete(pointAt(t, g, 1, 2, 0.5)), delta.Delete(pointAt(t, g, 2, 3, 0.5))}
			},
			elBefore: 1, elAfter: 1, dbBefore: 1, dbAfter: 1, floods: 0,
		},
		{
			// 2.5 and 4.5 are 2 apart; the insert at 3.25 is within ε of both.
			name: "split healed by an insert of the same batch", graph: line, eps: 1.25, minPts: 2,
			ops: func(t *testing.T, g network.Graph) []delta.Op {
				return []delta.Op{delta.Delete(pointAt(t, g, 3, 4, 0.5)), delta.Insert(3, 4, 0.25, 9)}
			},
			elBefore: 1, elAfter: 1, dbBefore: 1, dbAfter: 1, floods: 0,
		},
		{
			name: "delete and re-insert at the same offset", graph: line, eps: 1, minPts: 3,
			ops: func(t *testing.T, g network.Graph) []delta.Op {
				return []delta.Op{delta.Delete(pointAt(t, g, 3, 4, 0.5)), delta.Insert(3, 4, 0.5, 9)}
			},
			elBefore: 1, elAfter: 1, dbBefore: 1, dbAfter: 1, floods: 0,
		},
		{
			// The hub point x is core only with its leaf on arm c. Deleting the
			// leaf flips x, the one link between the cores of arm a and arm b —
			// neither of which is within ε of the leaf.
			name: "core flip disconnects two cores", eps: 1, minPts: 4,
			graph: func(t *testing.T) network.Graph {
				return star(t,
					[3]float64{0, 1, 0},                                                                     // x, on the hub
					[3]float64{0, 1, 1}, [3]float64{1, 4, 0.5}, [3]float64{1, 4, 0.75}, [3]float64{1, 4, 1}, // arm a
					[3]float64{0, 2, 1}, [3]float64{2, 5, 0.5}, [3]float64{2, 5, 0.75}, [3]float64{2, 5, 1}, // arm b
					[3]float64{0, 3, 1}, // the leaf
				)
			},
			ops: func(t *testing.T, g network.Graph) []delta.Op {
				return []delta.Op{delta.Delete(pointAt(t, g, 0, 3, 1))}
			},
			elBefore: 1, elAfter: 1, dbBefore: 1, dbAfter: 2, floods: 2,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.graph(t)
			o, err := delta.New(g, delta.Options{CompactOps: -1, Live: &delta.LiveOptions{Eps: tc.eps, MinPts: tc.minPts}})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer o.Close()
			counts := func() (el, db int32) {
				cur := o.Current()
				checkLiveEqual(t, cur, tc.eps, tc.minPts)
				_, el, _ = cur.LiveEpsLink(tc.eps)
				_, db, _, _ = cur.LiveDBSCAN(tc.eps, tc.minPts)
				return el, db
			}
			if el, db := counts(); el != tc.elBefore || db != tc.dbBefore {
				t.Fatalf("before: %d ε-Link / %d DBSCAN clusters, want %d / %d — the case does not set up what it names", el, db, tc.elBefore, tc.dbBefore)
			}
			if _, err := o.Apply(context.Background(), tc.ops(t, g)); err != nil {
				t.Fatalf("Apply: %v", err)
			}
			if el, db := counts(); el != tc.elAfter || db != tc.dbAfter {
				t.Fatalf("after: %d ε-Link / %d DBSCAN clusters, want %d / %d", el, db, tc.elAfter, tc.dbAfter)
			}
			if st := o.Stats(); st.LiveFloods != tc.floods {
				t.Fatalf("the batch flooded %d components, want %d", st.LiveFloods, tc.floods)
			}
		})
	}
}
