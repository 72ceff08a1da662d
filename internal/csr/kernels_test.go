// Property tests for the specialized CSR kernels: the Δ-stepping k-medoids
// expansion must land on the same (dist, med, node) lexicographic fixpoint as
// the generic binary-heap engine, the frontier-parallel range kernel must
// reproduce the sequential kernel bit for bit at every worker count, and the
// batched kNN sweep must answer every query exactly like a lone call.
package csr_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"netclus/internal/core"
	"netclus/internal/csr"
	"netclus/internal/lbound"
	"netclus/internal/network"
	"netclus/internal/testnet"
)

// TestKMedoidsLexEquivalence is the label-identity property test of the
// Δ-stepping expansion: across K, with and without the Fig. 5 incremental
// update (swap sequences reuse prior expansion state, so they exercise the
// lex acceptance on non-empty med/dist arrays), the snapshot backends must
// reproduce the generic engine's labels, medoids and R exactly, and every
// logged swap expansion must match the generic one array for array and roll
// back bit for bit (checkLoggedExpansion). The line instance is tie-rich —
// unit spacing puts many points equidistant from two medoids — so agreement
// there pins the (dist, med) tie rule, not just the distances; the
// tie shapes, integer-weighted, add rows where several seeds reach one node
// at exactly the same distance.
func TestKMedoidsLexEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, sh := range testnet.TieShapes {
		for numbering, suffix := range []string{"", "/mirrored", "/twisted"} {
			g, err := sh.Build(numbering)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(sh.Name+suffix, func(t *testing.T) { checkLoggedExpansion(t, g, compile(t, g)) })
		}
	}
	for name, g := range instances(t) {
		t.Run(name, func(t *testing.T) {
			mem := compile(t, g)
			checkLoggedExpansion(t, g, mem)
			backends := map[string]network.Graph{
				"mem":   mem,
				"store": storeCompile(t, g),
			}
			for _, k := range []int{1, 3, 7} {
				for _, recompute := range []bool{false, true} {
					opts := core.KMedoidsOptions{K: k, Recompute: recompute}
					want, err := core.KMedoidsCtx(ctx, g, opts)
					if err != nil {
						t.Fatalf("K=%d recompute=%v on net: %v", k, recompute, err)
					}
					for bk, b := range backends {
						got, err := core.KMedoidsCtx(ctx, b, opts)
						if err != nil {
							t.Fatalf("K=%d recompute=%v on %s: %v", k, recompute, bk, err)
						}
						if !reflect.DeepEqual(want.Labels, got.Labels) ||
							!reflect.DeepEqual(want.Medoids, got.Medoids) ||
							want.R != got.R || want.Iterations != got.Iterations {
							t.Fatalf("K=%d recompute=%v: %s diverged from net\nwant labels %v medoids %v R %v\ngot  labels %v medoids %v R %v",
								k, recompute, bk, want.Labels, want.Medoids, want.R,
								got.Labels, got.Medoids, got.R)
						}
					}
				}
			}
		})
	}
}

// checkLoggedExpansion runs the swap expansions of a k-medoids search on the
// snapshot and, from the same state, on the generic expansion of g: every
// slot of a three-medoid set is replaced in turn by a point drawn from a fixed
// stride, the swap's expansion recorded from Begin. After each swap the
// kernel's Med/Dist must equal the generic ones bit for bit; every other swap
// is rolled back and must leave what the arrays held before it, the rest are
// committed, so later swaps start from a state earlier ones rewrote.
func checkLoggedExpansion(t *testing.T, g network.Graph, sn *csr.Snapshot) {
	t.Helper()
	n := g.NumPoints()
	k := min(3, n-1)
	infos := make([]network.PointInfo, k)
	for i := range infos {
		pi, err := g.PointInfo(network.PointID(i * n / k))
		if err != nil {
			t.Fatal(err)
		}
		infos[i] = pi
	}
	kern, gen := core.NewMedoidState(g.NumNodes()), core.NewMedoidState(g.NumNodes())
	var stats core.Stats
	if err := core.MedoidDistFind(sn, infos, kern, &stats); err != nil {
		t.Fatal(err)
	}
	if err := core.MedoidDistFind(g, infos, gen, &stats); err != nil {
		t.Fatal(err)
	}
	same := func(what string) {
		t.Helper()
		if !slices.Equal(kern.Med, gen.Med) || !slices.EqualFunc(kern.Dist, gen.Dist, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("%s: kernel Med %v Dist %v, generic Med %v Dist %v", what, kern.Med, kern.Dist, gen.Med, gen.Dist)
		}
	}
	same("initial expansion")
	for attempt := 0; attempt < 3*k; attempt++ {
		slot := attempt % k
		p := network.PointID((attempt*7 + 1) % n)
		cand, err := g.PointInfo(p)
		if err != nil {
			t.Fatal(err)
		}
		old := infos[slot]
		infos[slot] = cand
		wantMed, wantDist := slices.Clone(kern.Med), slices.Clone(kern.Dist)
		what := fmt.Sprintf("slot %d <- point %d", slot, p)
		kern.Begin()
		gen.Begin()
		if err := core.IncMedoidUpdate(sn, infos, slot, kern, &stats); err != nil {
			t.Fatal(err)
		}
		if err := core.IncMedoidUpdate(g, infos, slot, gen, &stats); err != nil {
			t.Fatal(err)
		}
		same(what)
		if attempt%2 == 1 {
			kern.Commit()
			gen.Commit()
			continue
		}
		kern.Rollback()
		gen.Rollback()
		infos[slot] = old
		if !slices.Equal(kern.Med, wantMed) || !slices.EqualFunc(kern.Dist, wantDist, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("%s: rollback left Med %v Dist %v, want %v %v", what, kern.Med, kern.Dist, wantMed, wantDist)
		}
		same(what + ", rolled back")
	}
}

// TestKMedoidsLexEquivalencePruned adds the medoidPruner to the snapshot leg:
// pruning only suppresses pushes that cannot win, so the pruned Δ-stepping
// run must still match the unpruned generic run label for label.
func TestKMedoidsLexEquivalencePruned(t *testing.T) {
	ctx := context.Background()
	g, err := testnet.Random(19, 40, 90)
	if err != nil {
		t.Fatal(err)
	}
	sn := compile(t, g)
	b, err := lbound.Build(sn, lbound.Options{Landmarks: 4, EuclideanLB: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, recompute := range []bool{false, true} {
		want, err := core.KMedoidsCtx(ctx, g, core.KMedoidsOptions{K: 5, Recompute: recompute})
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.KMedoidsCtx(ctx, sn, core.KMedoidsOptions{K: 5, Recompute: recompute, Prune: b})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Labels, got.Labels) || want.R != got.R {
			t.Fatalf("recompute=%v: pruned Δ-stepping diverged from generic", recompute)
		}
	}
}

// TestExpandNearestLexTie pins the tie-break contract directly: a node
// equidistant from two medoids belongs to the lower slot index, regardless of
// seed order. On the unit line every interior midpoint is such a tie.
func TestExpandNearestLexTie(t *testing.T) {
	ctx := context.Background()
	g, err := testnet.Line(40, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	sn := compile(t, g)
	for _, seeds := range [][]network.MedoidSeed{
		{{Node: 4, Med: 0, Dist: 0}, {Node: 10, Med: 1, Dist: 0}},
		{{Node: 10, Med: 1, Dist: 0}, {Node: 4, Med: 0, Dist: 0}}, // reversed seed order
	} {
		med := make([]int32, sn.NumNodes())
		dist := make([]float64, sn.NumNodes())
		for i := range med {
			med[i] = -1
			dist[i] = network.Inf
		}
		if _, err := sn.ExpandNearest(ctx, seeds, med, dist); err != nil {
			t.Fatal(err)
		}
		// Node 7 is 3 unit hops from both medoid nodes: the tie goes to slot 0.
		if dist[7] != 3 {
			t.Fatalf("dist[7] = %v, want 3", dist[7])
		}
		if med[7] != 0 {
			t.Fatalf("med[7] = %d, want 0 (lex tie-break: lowest medoid slot wins)", med[7])
		}
		if med[6] != 0 || med[8] != 1 {
			t.Fatalf("flanks med[6]=%d med[8]=%d, want 0 and 1", med[6], med[8])
		}
	}
}

// TestRangeDistParallelMatchesSequential checks the frontier-parallel range
// kernel reproduces the sequential kernel's canonical output bit for bit at
// every worker count — including eps wide enough that the whole network is
// one expansion, the regime the kernel exists for.
func TestRangeDistParallelMatchesSequential(t *testing.T) {
	ctx := context.Background()
	for name, g := range instances(t) {
		t.Run(name, func(t *testing.T) {
			sn := compile(t, g)
			sc := sn.NewRangeScratch()
			for p := 0; p < g.NumPoints(); p += 3 {
				for _, eps := range []float64{0.25, 1.0, 3.5, 1e9} {
					want, err := sc.RangeQueryDistCtx(ctx, sn, network.PointID(p), eps)
					if err != nil {
						t.Fatal(err)
					}
					wantCopy := append([]network.PointDist{}, want...)
					for _, workers := range []int{1, 2, 4} {
						// The uncapped entry point bypasses the public API's
						// GOMAXPROCS cap so the frontier-split machinery runs
						// at every worker count even on a single-P host;
						// workers=1 goes through the public path (sequential
						// kernel).
						var got []network.PointDist
						var err error
						if workers == 1 {
							got, err = sn.RangeQueryDistParallel(ctx, network.PointID(p), eps, workers)
						} else {
							got, err = sn.RangeParallelUncapped(ctx, network.PointID(p), eps, workers)
						}
						if err != nil {
							t.Fatalf("workers=%d: %v", workers, err)
						}
						if !reflect.DeepEqual(wantCopy, append([]network.PointDist{}, got...)) {
							t.Fatalf("p=%d eps=%v workers=%d:\nwant %v\ngot  %v", p, eps, workers, wantCopy, got)
						}
					}
				}
			}
		})
	}
}

// TestKNNBatchMatchesSequential checks the batched SoA sweep answers every
// query exactly like a lone KNNCtx call — mixed k values, every worker
// count, bad queries isolated per slot, and batch reuse across Reset.
func TestKNNBatchMatchesSequential(t *testing.T) {
	ctx := context.Background()
	g, err := testnet.Random(13, 50, 150)
	if err != nil {
		t.Fatal(err)
	}
	sn := compile(t, g)
	b := sn.NewKNNBatch()
	for round := 0; round < 2; round++ { // second round reuses backing arrays
		for _, workers := range []int{1, 2, 4} {
			b.Reset()
			type q struct {
				p network.PointID
				k int
			}
			var qs []q
			for p := 0; p < g.NumPoints(); p += 2 {
				qs = append(qs, q{network.PointID(p), 1 + (p % 11)})
			}
			qs = append(qs,
				q{network.PointID(g.NumPoints() + 7), 3}, // out of range
				q{0, 0},                                  // invalid k
				q{1, g.NumPoints() + 5},                  // k beyond point count
				q{2, math.MaxInt32},                      // sized by k, this is 32 GiB of slots
				q{3, 1<<32 + 5},                          // narrowed to int32, this is k=5
				q{4, math.MaxInt},
			)
			for _, query := range qs {
				b.Add(query.p, query.k)
			}
			if err := b.Run(ctx, workers); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			for i, query := range qs {
				want, wantErr := sn.KNNCtx(ctx, query.p, query.k)
				if query.k > g.NumPoints() && wantErr == nil {
					atN, err := sn.KNNCtx(ctx, query.p, g.NumPoints())
					if err != nil || !reflect.DeepEqual(want, atN) {
						t.Fatalf("p=%d k=%d: %d results, k=N gives %d (%v)", query.p, query.k, len(want), len(atN), err)
					}
				}
				got, gotErr := b.Results(i), b.Err(i)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("workers=%d query %d (p=%d k=%d): err %v vs batch err %v",
						workers, i, query.p, query.k, wantErr, gotErr)
				}
				if wantErr != nil {
					if !errors.Is(gotErr, network.ErrPointRange) && !errors.Is(gotErr, network.ErrInvalidOptions) {
						t.Fatalf("workers=%d query %d: unexpected error class %v", workers, i, gotErr)
					}
					continue
				}
				if !reflect.DeepEqual(append([]network.PointDist{}, want...), append([]network.PointDist{}, got...)) {
					t.Fatalf("workers=%d query %d (p=%d k=%d):\nwant %v\ngot  %v",
						workers, i, query.p, query.k, want, got)
				}
			}
		}
	}
}

// TestKNNBatchCancel checks cancellation aborts the sweep with the context
// error instead of recording it per query.
func TestKNNBatchCancel(t *testing.T) {
	g, err := testnet.Random(13, 50, 150)
	if err != nil {
		t.Fatal(err)
	}
	sn := compile(t, g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := sn.NewKNNBatch()
	for p := 0; p < g.NumPoints(); p++ {
		b.Add(network.PointID(p), 5)
	}
	if err := b.Run(ctx, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on cancelled ctx = %v, want context.Canceled", err)
	}
}
