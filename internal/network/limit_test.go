package network_test

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"netclus/internal/matrix"
	"netclus/internal/network"
)

// TestRangeQueryLimitExact is the early-exit property: for random graphs,
// points, eps and limits, the limited query returns either the whole
// ε-neighbourhood (when it holds fewer than limit points) or at least limit
// points, every one within eps by the brute-force distance matrix — on the
// plain expansion and on the filter-and-refine path, with a planar embedding
// and without one (where Candidates reports unsupported and the query falls
// back) — and it leaves the scratch reusable: the next unlimited query equals
// a fresh scratch's.
func TestRangeQueryLimitExact(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 4; seed++ {
		for _, in := range equivInstances(t, seed, 20+int(seed)*5, 60+int(seed)*20) {
			dist, err := matrix.PointDistances(in.g)
			if err != nil {
				t.Fatal(err)
			}
			n := in.g.NumPoints()
			rng := rand.New(rand.NewSource(seed * 101))
			for _, pruned := range []bool{false, true} {
				sc := network.NewRangeScratch(in.g)
				fresh := func() *network.RangeScratch { return network.NewRangeScratch(in.g) }
				if pruned {
					sc.SetBounder(in.b)
					fresh = func() *network.RangeScratch {
						f := network.NewRangeScratch(in.g)
						f.SetBounder(in.b)
						return f
					}
				}
				cut := 0
				for trial := 0; trial < 60; trial++ {
					p := network.PointID(rng.Intn(n))
					eps := rng.Float64() * 2.5
					limit := []int{1, 2, 3, 8}[rng.Intn(4)]
					full := 0
					for q := 0; q < n; q++ {
						if dist[p][q] <= eps {
							full++
						}
					}
					got, err := sc.RangeQueryLimitCtx(ctx, in.g, p, eps, limit)
					if err != nil {
						t.Fatal(err)
					}
					seen := make(map[network.PointID]bool, len(got))
					for _, q := range got {
						if seen[q] {
							t.Fatalf("%s seed=%d pruned=%v p=%d eps=%v limit=%d: point %d twice", in.name, seed, pruned, p, eps, limit, q)
						}
						seen[q] = true
						if dist[p][q] > eps {
							t.Fatalf("%s seed=%d pruned=%v p=%d eps=%v limit=%d: point %d at %v is out of range",
								in.name, seed, pruned, p, eps, limit, q, dist[p][q])
						}
					}
					if full < limit && len(got) != full {
						t.Fatalf("%s seed=%d pruned=%v p=%d eps=%v limit=%d: %d of the %d neighbours", in.name, seed, pruned, p, eps, limit, len(got), full)
					}
					if len(got) < full {
						cut++
					}
					if full >= limit && len(got) < limit {
						t.Fatalf("%s seed=%d pruned=%v p=%d eps=%v limit=%d: stopped at %d of %d", in.name, seed, pruned, p, eps, limit, len(got), full)
					}

					// The cut-short query must not leak into the next one.
					p2 := network.PointID(rng.Intn(n))
					next, err := sc.RangeQueryCtx(ctx, in.g, p2, eps)
					if err != nil {
						t.Fatal(err)
					}
					want, err := fresh().RangeQueryCtx(ctx, in.g, p2, eps)
					if err != nil {
						t.Fatal(err)
					}
					a := append([]network.PointID(nil), next...)
					b := append([]network.PointID(nil), want...)
					sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
					sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
					if len(a) != len(b) {
						t.Fatalf("%s seed=%d pruned=%v: query after a limited one returned %d points, a fresh scratch %d", in.name, seed, pruned, len(a), len(b))
					}
					for i := range a {
						if a[i] != b[i] {
							t.Fatalf("%s seed=%d pruned=%v: query after a limited one differs from a fresh scratch's", in.name, seed, pruned)
						}
					}
				}
				if cut == 0 {
					t.Fatalf("%s seed=%d pruned=%v: no query was cut short; the property was not exercised", in.name, seed, pruned)
				}
			}
		}
	}
}
