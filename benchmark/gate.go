package main

import (
	"context"
	"fmt"
	"math"
	"os"

	"netclus"
	"netclus/internal/matrix"
)

// The oracle gate runs before anything is timed: on a network small enough
// for the internal/matrix brute-force oracle (all-pairs point distances),
// DBSCAN, the ε-components and the k-medoids assignment of every backend the
// workloads touch must agree with the oracle.
const (
	gateRoad  = "OL"
	gateScale = 0.05 // 305 nodes, 1 000 points: an 8 MB distance matrix
)

// checker counts correctness checks; a failed check is a failed operation.
type checker struct {
	attempted, failed int
	failures          []string
}

func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.failures) < 20 {
			c.failures = append(c.failures, fmt.Sprintf(format, args...))
		}
	}
}

// samePartition reports whether a and b induce the same partition, i.e. the
// labels correspond one-to-one.
func samePartition(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	ab, ba := map[int32]int32{}, map[int32]int32{}
	for i := range a {
		if x, ok := ab[a[i]]; ok && x != b[i] {
			return false
		}
		if x, ok := ba[b[i]]; ok && x != a[i] {
			return false
		}
		ab[a[i]], ba[b[i]] = b[i], a[i]
	}
	return true
}

// oracleGate builds the gate network in every backend and checks each
// against the oracle.
func oracleGate(ctx context.Context, c *checker, outDir string, workers int, seed int64) error {
	g, cfg, err := netclus.RoadDataset(gateRoad, gateScale, 10)
	if err != nil {
		return err
	}
	eps := cfg.Eps()
	sn, err := netclus.Compile(g)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "gate-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := netclus.BuildStore(dir, g, netclus.StoreOptions{}); err != nil {
		return err
	}
	st, err := netclus.OpenStore(dir, netclus.StoreOptions{})
	if err != nil {
		return err
	}
	defer st.Close()
	set, err := netclus.PartitionNetwork(g, 4)
	if err != nil {
		return err
	}
	ov, err := netclus.NewLiveOverlay(sn, netclus.LiveOptions{Live: &netclus.LiveClusterOptions{Eps: eps, MinPts: 3}})
	if err != nil {
		return err
	}
	defer ov.Close()
	// Mutate the overlay so its view is a merged one with its own oracle.
	ms := newStream(substream(seed, len(workloads), roleMutate, 0), workload{}, 0, eps, workers, g.NumPoints(), &liveState{})
	ms.live.points.Store(int64(g.NumPoints()))
	for i := 0; i < 8; i++ {
		if _, err := ms.applyBatch(ctx, ov); err != nil {
			return err
		}
	}
	view := ov.Current()

	dist, err := matrix.PointDistances(g)
	if err != nil {
		return err
	}
	for _, b := range []struct {
		name string
		g    netclus.Graph
	}{{"csr", sn}, {"network", g}, {"store", st}, {"shard", set}} {
		if err := gateBackend(ctx, c, b.name, b.g, dist, eps, workers); err != nil {
			return err
		}
	}
	liveDist, err := matrix.PointDistances(view.Graph)
	if err != nil {
		return err
	}
	if err := gateBackend(ctx, c, "live", view.Graph, liveDist, eps, workers); err != nil {
		return err
	}
	// The incrementally maintained labels must equal a recompute too.
	labels, _, _, ok := view.LiveDBSCAN(eps, 3)
	res, err := netclus.DBSCANCtx(ctx, view.Graph, netclus.DBSCANOptions{Eps: eps, MinPts: 3})
	if err != nil {
		return err
	}
	c.check(ok && sameLabelsOnCore(labels, res), "gate live: maintained labels differ from a recompute on the view")
	return nil
}

// sameLabelsOnCore compares a labelling with a DBSCAN result the way two
// DBSCAN runs may be compared: identical noise, identical partition of the
// core points (a border point may join any adjacent cluster).
func sameLabelsOnCore(labels []int32, res *netclus.DBSCANResult) bool {
	if len(labels) != len(res.Labels) {
		return false
	}
	var a, b []int32
	for p, l := range labels {
		if (l == netclus.Noise) != (res.Labels[p] == netclus.Noise) {
			return false
		}
		if res.Core[p] {
			a, b = append(a, l), append(b, res.Labels[p])
		}
	}
	return samePartition(a, b)
}

// gateBackend checks one backend's clusterings against the oracle matrix.
func gateBackend(ctx context.Context, c *checker, name string, g netclus.Graph, dist [][]float64, eps float64, workers int) error {
	// DBSCAN, sequential and parallel: core flags and noise are determined;
	// the partition is compared on core points (the oracle marks noise -1,
	// which is netclus.Noise).
	want := matrix.DBSCAN(dist, eps, 3)
	for _, w := range []int{0, workers} {
		res, err := netclus.DBSCANCtx(ctx, g, netclus.DBSCANOptions{Eps: eps, MinPts: 3, Workers: w})
		if err != nil {
			return fmt.Errorf("gate %s dbscan: %w", name, err)
		}
		ok := sameLabelsOnCore(want, res)
		for p := range want {
			within := 0
			for _, d := range dist[p] {
				if d <= eps {
					within++
				}
			}
			if (within >= 3) != res.Core[p] {
				ok = false
			}
		}
		c.check(ok, "gate %s: DBSCAN(workers=%d) disagrees with the oracle", name, w)
	}

	// ε-Link without min_sup is exactly the ε-components.
	wantEL := matrix.EpsComponents(dist, eps/2, 1)
	for _, w := range []int{0, workers} {
		res, err := netclus.EpsLinkCtx(ctx, g, netclus.EpsLinkOptions{Eps: eps / 2, Workers: w})
		if err != nil {
			return fmt.Errorf("gate %s epslink: %w", name, err)
		}
		c.check(samePartition(res.Labels, wantEL), "gate %s: eps-Link(workers=%d) disagrees with the oracle components", name, w)
	}

	// k-medoids: whatever medoids the search ends on, every point must sit
	// at its optimal distance and R must be the oracle's sum.
	km, err := netclus.KMedoidsCtx(ctx, g, netclus.KMedoidsOptions{K: 10})
	if err != nil {
		return fmt.Errorf("gate %s kmedoids: %w", name, err)
	}
	meds := make([]int, len(km.Medoids))
	for i, m := range km.Medoids {
		meds[i] = int(m)
	}
	_, wantD, wantR, err := matrix.NearestMedoids(dist, meds)
	if err != nil {
		return err
	}
	ok := math.Abs(km.R-wantR) <= 1e-6*math.Max(1, wantR)
	for p, l := range km.Labels {
		if l < 0 || math.Abs(dist[p][meds[l]]-wantD[p]) > 1e-9 {
			ok = false
		}
	}
	c.check(ok, "gate %s: k-medoids assignment disagrees with the oracle (R %v vs %v)", name, km.R, wantR)
	return nil
}
