package csr_test

import (
	"context"
	"math/rand"
	"testing"

	"netclus/internal/csr"
	"netclus/internal/datagen"
	"netclus/internal/network"
)

// BenchmarkExpandNearest times the nearest-medoid expansion of k-medoids'
// Fig. 4 on the compiled SF ×0.0625 road stand-in from K = 10 medoids (both
// ends of each medoid's edge seeded, as MedoidDistFind does) and reports the
// nodes it settles and the entries it pushes per call.
func BenchmarkExpandNearest(b *testing.B) {
	net, _, err := datagen.RoadDataset("SF", 0.0625, 10)
	if err != nil {
		b.Fatal(err)
	}
	sn, err := csr.Compile(net)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var seeds []network.MedoidSeed
	for i := int32(0); i < 10; i++ {
		m, err := sn.PointInfo(network.PointID(rng.Intn(sn.NumPoints())))
		if err != nil {
			b.Fatal(err)
		}
		seeds = append(seeds,
			network.MedoidSeed{Node: m.N1, Med: i, Dist: m.Pos},
			network.MedoidSeed{Node: m.N2, Med: i, Dist: m.Weight - m.Pos})
	}
	med := make([]int32, sn.NumNodes())
	dist := make([]float64, sn.NumNodes())
	var c network.ExpandCounts
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for n := range med {
			med[n], dist[n] = -1, network.Inf
		}
		if c, err = sn.ExpandNearest(context.Background(), seeds, med, dist); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(c.Settled), "settled/op")
	b.ReportMetric(float64(c.Pushes), "pushes/op")
}
