package csr

import (
	"context"
	"fmt"
	"time"

	"netclus/internal/network"
)

// This file is the snapshot's DBSCAN: the flat-array port of core's generic
// three-pass labeller (internal/core/dbscan.go carries the argument) — flags
// by one early-exiting counting expansion per point (rangeCount), the
// core-masked Fig. 6 growth of epslink.go, border adoption from the per-stripe
// side lists. Passes 1 and 3 are independent per point and stripe over
// workers; pass 2 is a handful of graph traversals and stays on the caller's
// goroutine.

// DBSCANLabels labels the snapshot's points with DBSCAN(eps, minPts); see
// network.LabelKernel for the contract. At workers <= 1 its steady state
// allocates nothing.
func (s *Snapshot) DBSCANLabels(ctx context.Context, eps float64, minPts, workers int, labels []int32, core []bool) (clusters, corePoints int, stats network.ClusterStats, err error) {
	n := len(s.ptPos)
	if len(labels) != n || len(core) != n {
		return 0, 0, stats, fmt.Errorf("%w: DBSCANLabels needs len(labels) == len(core) == %d, got %d and %d", network.ErrInvalidOptions, n, len(labels), len(core))
	}
	if !(eps > 0) || minPts < 1 {
		return 0, 0, stats, fmt.Errorf("%w: DBSCANLabels needs eps > 0 and minPts >= 1 (got %v, %d)", network.ErrInvalidOptions, eps, minPts)
	}
	if n == 0 {
		return 0, 0, stats, nil
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	st := s.acquireEps()
	defer s.epsPool.Put(st)
	for len(st.side) < workers {
		st.side = append(st.side, nil)
	}

	// Pass 1: core flags, the growth mask and the non-core side lists.
	if workers <= 1 {
		// Inline so nothing escapes (cf. CoreFlags' sequential fast path).
		sc := s.acquire()
		t0 := time.Now()
		q, err := st.flagStripe(ctx, sc, 0, 0, n, eps, minPts, core)
		s.release(sc)
		ns := time.Since(t0).Nanoseconds()
		stats = network.ClusterStats{RangeQueries: q, CritNs: ns, WallNs: ns}
		if err != nil {
			return 0, 0, stats, err
		}
	} else {
		stats, err = s.clusterRun(ctx, n, workers, func(w, lo, hi int, sc *Scratch) (int, error) {
			return st.flagStripe(ctx, sc, w, lo, hi, eps, minPts, core)
		})
		if err != nil {
			return 0, 0, stats, err
		}
	}

	// Pass 2: one Fig. 6 growth per cluster, over the core points only.
	// Pass 3: border adoption, each stripe over its own side list.
	t0 := time.Now()
	if err := st.growAll(ctx, s, eps, labels); err != nil {
		return 0, 0, stats, err
	}
	clusters = len(st.sizes)
	for _, c := range st.sizes {
		corePoints += int(c)
	}
	if workers <= 1 {
		st.adoptStripe(0, labels)
	}
	ns := time.Since(t0).Nanoseconds()
	stats.CritNs += ns
	stats.WallNs += ns
	if workers > 1 {
		bs, _ := s.clusterRun(ctx, n, workers, func(w, _, _ int, _ *Scratch) (int, error) {
			st.adoptStripe(w, labels)
			return 0, nil
		})
		stats.Add(bs)
	}
	return clusters, corePoints, stats, nil
}

// flagStripe runs pass 1 over the points [lo, hi) as stripe w: it writes
// core[p] and the growth mask, and appends a record to st.side[w] for every
// non-core point. Stripes touch disjoint indices of core and st.state.
func (st *epsState) flagStripe(ctx context.Context, sc *Scratch, w, lo, hi int, eps float64, minPts int, core []bool) (int, error) {
	side := st.side[w][:0]
	p := lo
	var err error
	for ; p < hi; p++ {
		var cnt int
		if cnt, err = sc.rangeCount(ctx, network.PointID(p), eps, minPts, true); err != nil {
			break
		}
		if core[p] = cnt >= minPts; core[p] {
			continue // acquireEps left st.state[p] at ptFree
		}
		st.state[p] = ptMasked
		side = append(side, network.PointID(p), network.PointID(cnt))
		side = append(side, sc.result...)
	}
	st.side[w] = side
	return p - lo, err
}

// adoptStripe runs pass 3 over stripe w's side list: every recorded non-core
// point takes the smallest label among the core points its expansion saw
// (all clustered by now), Noise when it saw none.
func (st *epsState) adoptStripe(w int, labels []int32) {
	side := st.side[w]
	for i := 0; i < len(side); {
		p, k := side[i], int(side[i+1])
		i += 2
		best := noiseLabel
		for _, q := range side[i : i+k] {
			if st.state[q] == ptClustered {
				if l := labels[q]; best == noiseLabel || l < best {
					best = l
				}
			}
		}
		labels[p] = best
		i += k
	}
}
