package csr

import (
	"context"
	"fmt"
	"time"

	"netclus/internal/network"
)

// This file is the snapshot's DBSCAN: the flat-array port of core's generic
// three-pass labeller (internal/core/dbscan.go carries the argument) — flags
// by one sliding window per point group, with an early-exiting counting
// expansion (rangeCount) only for the points their edge leaves short, the
// core-masked Fig. 6 growth of epslink.go, border adoption from the side
// list. All three passes run on the caller's goroutine.

// DBSCANLabels labels the snapshot's points with DBSCAN(eps, minPts); see
// network.LabelKernel for the contract. Its steady state allocates nothing.
func (s *Snapshot) DBSCANLabels(ctx context.Context, eps float64, minPts int, labels []int32, core []bool) (clusters, corePoints int, stats network.ClusterStats, err error) {
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
	st := s.acquireEps()
	defer s.pools.eps.Put(st)

	// Pass 1: core flags, the growth mask and the non-core side list.
	t0 := time.Now()
	sc := s.acquire()
	stats.RangeQueries, err = st.flagPass(ctx, sc, eps, minPts, core)
	s.release(sc)
	if err == nil {
		// Pass 2: one Fig. 6 growth per cluster, over the core points only.
		err = st.growAll(ctx, s, eps, labels)
	}
	if err == nil {
		// Pass 3: border adoption from the side list.
		st.adopt(labels)
		clusters = len(st.sizes)
		for _, c := range st.sizes {
			corePoints += int(c)
		}
	}
	stats.WallNs = time.Since(t0).Nanoseconds()
	stats.CritNs = stats.WallNs
	if err != nil {
		return 0, 0, stats, err
	}
	return clusters, corePoints, stats, nil
}

// flagPass runs pass 1: it writes core[p] and the growth mask, and appends a
// record to st.side for every non-core point. It returns the number of range
// queries it issued.
//
// A point's own edge decides most flags: one sliding window per group counts
// the same-edge points within eps of each point — rangeCount's two arm
// comparisons, pos-off[q] on the left and off[q]-pos on the right, so the
// count is the one rangeCount would start from — and a point whose window
// holds minPts is core with no query. Only the rest run rangeCount, which
// also records the side list the border pass needs.
func (st *epsState) flagPass(ctx context.Context, sc *Scratch, eps float64, minPts int, core []bool) (int, error) {
	sn := sc.sn
	side := st.side[:0]
	queries, ticks := 0, 0
	var err error
	for p := 0; p < len(core) && err == nil; {
		pg := &sn.groups[sn.ptGrp[p]]
		first := int(pg.First)
		off := sn.ptPos[first : first+int(pg.Count)]
		end := first + len(off)
		l, r := 0, 0 // the window [l, r] of off around p's index
		for ; p < end; p++ {
			if err = cancelCheck(ctx, &ticks); err != nil {
				break
			}
			i := p - first
			pos := off[i]
			for pos-off[l] > eps {
				l++
			}
			r = max(r, i)
			for r+1 < len(off) && off[r+1]-pos <= eps {
				r++
			}
			if core[p] = r-l+1 >= minPts; core[p] {
				continue // acquireEps left st.state[p] at ptFree
			}
			queries++
			var cnt int
			if cnt, err = sc.rangeCount(ctx, network.PointID(p), eps, minPts, true); err != nil {
				break
			}
			if core[p] = cnt >= minPts; core[p] {
				continue
			}
			st.state[p] = ptMasked
			side = append(side, network.PointID(p), network.PointID(cnt))
			side = append(side, sc.result...)
		}
	}
	st.side = side
	return queries, err
}

// adopt runs pass 3 over the side list: every recorded non-core point takes
// the smallest label among the core points its expansion saw (all clustered
// by now), Noise when it saw none.
func (st *epsState) adopt(labels []int32) {
	side := st.side
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
