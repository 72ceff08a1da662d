package core_test

import (
	"math/rand"
	"testing"

	"netclus/internal/core"
	"netclus/internal/csr"
	"netclus/internal/datagen"
	"netclus/internal/network"
	"netclus/internal/storage"
	"netclus/internal/testnet"
)

// benchDataset is a mid-size clustered workload shared by the algorithm
// micro-benchmarks (distinct from the paper-scale benches at the repo root).
func benchDataset(b *testing.B) (g interface {
	network.Graph
}, eps, delta float64) {
	b.Helper()
	net, cfg, err := testnet.RandomClustered(1, 4000, 12000, 10)
	if err != nil {
		b.Fatal(err)
	}
	return net, cfg.Eps(), cfg.Delta()
}

func BenchmarkEpsLink(b *testing.B) {
	g, eps, _ := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EpsLink(g, core.EpsLinkOptions{Eps: eps, MinSup: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDBSCAN runs DBSCAN on benchDataset from the pointer network, a
// disk store behind a 256 KiB buffer and the compiled snapshot, and reports
// the flag pass's range queries per run beside the time.
func BenchmarkDBSCAN(b *testing.B) {
	g, eps, _ := benchDataset(b)
	net := g.(*network.Network)
	dir := b.TempDir()
	sopts := storage.Options{BufferBytes: 256 << 10}
	if err := storage.Build(dir, net, sopts); err != nil {
		b.Fatal(err)
	}
	st, err := storage.Open(dir, sopts)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	sn, err := csr.Compile(net)
	if err != nil {
		b.Fatal(err)
	}
	for _, bk := range []struct {
		name string
		g    network.Graph
	}{{"network", net}, {"store", st}, {"snapshot", sn}} {
		b.Run(bk.name, func(b *testing.B) {
			queries := 0
			for i := 0; i < b.N; i++ {
				res, err := core.DBSCAN(bk.g, core.DBSCANOptions{Eps: eps, MinPts: 3})
				if err != nil {
					b.Fatal(err)
				}
				queries += res.Stats.RangeQueries
			}
			b.ReportMetric(float64(queries)/float64(b.N), "range_queries/op")
		})
	}
}

func BenchmarkSingleLinkFull(b *testing.B) {
	g, _, _ := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SingleLink(g, core.SingleLinkOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSingleLinkDelta(b *testing.B) {
	g, _, delta := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SingleLink(g, core.SingleLinkOptions{Delta: delta}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSingleLinkRoad runs Single-Link on the compiled SF ×0.5 road
// stand-in at δ = 0.7ε, the call behind batch-mem's singlelink_ms, so a
// change to this layer can be measured without the benchmark around it.
func BenchmarkSingleLinkRoad(b *testing.B) {
	net, cfg, err := datagen.RoadDataset("SF", 0.5, 10)
	if err != nil {
		b.Fatal(err)
	}
	sn, err := csr.Compile(net)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.SingleLinkOptions{Delta: cfg.Delta()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SingleLink(sn, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKMedoidsLocalOptimum(b *testing.B) {
	g, _, _ := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		if _, err := core.KMedoids(g, core.KMedoidsOptions{K: 10, Rand: rng}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIncMedoidUpdate(b *testing.B) {
	g, _, _ := benchDataset(b)
	rng := rand.New(rand.NewSource(7))
	k := 10
	infos := make([]network.PointInfo, k)
	for i := range infos {
		pi, err := g.PointInfo(network.PointID(rng.Intn(g.NumPoints())))
		if err != nil {
			b.Fatal(err)
		}
		infos[i] = pi
	}
	st := core.NewMedoidState(g.NumNodes())
	var stats core.Stats
	if err := core.MedoidDistFind(g, infos, st, &stats); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := i % k
		ci, err := g.PointInfo(network.PointID(rng.Intn(g.NumPoints())))
		if err != nil {
			b.Fatal(err)
		}
		old := infos[slot]
		infos[slot] = ci
		st.Begin()
		if err := core.IncMedoidUpdate(g, infos, slot, st, &stats); err != nil {
			b.Fatal(err)
		}
		infos[slot] = old
		st.Rollback()
	}
}

func BenchmarkAssignPoints(b *testing.B) {
	g, _, _ := benchDataset(b)
	rng := rand.New(rand.NewSource(7))
	infos := make([]network.PointInfo, 10)
	for i := range infos {
		pi, err := g.PointInfo(network.PointID(rng.Intn(g.NumPoints())))
		if err != nil {
			b.Fatal(err)
		}
		infos[i] = pi
	}
	st := core.NewMedoidState(g.NumNodes())
	var stats core.Stats
	if err := core.MedoidDistFind(g, infos, st, &stats); err != nil {
		b.Fatal(err)
	}
	labels := make([]int32, g.NumPoints())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.AssignPoints(g, infos, st, labels, &stats); err != nil {
			b.Fatal(err)
		}
	}
}
