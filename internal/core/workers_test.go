package core

import (
	"testing"

	"netclus/internal/matrix"
	"netclus/internal/testnet"
)

// DBSCANOptions.Workers and EpsLinkOptions.Workers are accepted and ignored:
// every clustering runs on the caller's goroutine. The two tests below run at
// Workers 4 and hold the result to the brute-force oracle, so a value the
// callers still set can never change a label.

// TestEpsLinkParallelMatchesSequential checks ε-Link at Workers 4 against the
// brute-force oracle: it labels the matrix's ε-components byte for byte, and
// the min_sup filter only turns the members of small components into noise.
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
		sizes := make(map[int32]int)
		for _, l := range want {
			sizes[l]++
		}
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
			t.Fatalf("eps=%v: Workers 4 found %d/%d clusters, the oracle %d/%d",
				eps, par.NumClusters, par.ClustersFound, kept, len(sizes))
		}
		for i, l := range want {
			if sizes[l] < 3 {
				l = Noise
			}
			if par.Labels[i] != l {
				t.Fatalf("eps=%v: label mismatch at point %d: Workers 4 %d, oracle %d", eps, i, par.Labels[i], l)
			}
		}
	}
}

// TestDBSCANParallelMatchesSequential checks DBSCAN at Workers 4 against the
// brute-force oracle: labels, core flags, NumClusters and CorePoints.
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
			t.Fatalf("minPts=%d: Workers 4 %d clusters, the oracle %d", minPts, par.NumClusters, CountClusters(want))
		}
		cores := 0
		for i := range want {
			if par.Labels[i] != want[i] {
				t.Fatalf("minPts=%d: label mismatch at point %d: Workers 4 %d, oracle %d",
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
			t.Fatalf("minPts=%d: Workers 4 counts %d cores, flags %d", minPts, par.CorePoints, cores)
		}
	}
}
