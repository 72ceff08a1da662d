package core

import (
	"context"
	"fmt"
	"sort"

	"netclus/internal/heapx"
	"netclus/internal/network"
)

// OPTICSOptions configures the network adaptation of OPTICS (Ankerst et al.,
// the paper's [2]). The paper's §2 and §4.3 point to OPTICS as the remedy
// for the hard-to-choose ε of DBSCAN/ε-Link: one OPTICS run at a generous
// Eps orders the points so that the clustering for EVERY ε' <= Eps can be
// read off the reachability plot.
type OPTICSOptions struct {
	// Eps is the maximum neighbourhood radius considered (network
	// distance). Larger values see more structure and cost more.
	Eps float64
	// MinPts is the density threshold, as in DBSCAN.
	MinPts int
}

// OPTICSResult is the cluster-ordering produced by OPTICS.
type OPTICSResult struct {
	// Order lists all points in cluster order.
	Order []network.PointID
	// Reach holds the reachability distance of Order[i] (+Inf for points
	// that start a new density-connected region — the "peaks" of the
	// reachability plot; clusters are its "valleys").
	Reach []float64
	// CoreDist holds, per point ID, its core distance (+Inf when the point
	// has fewer than MinPts neighbours within Eps).
	CoreDist []float64
	// Stats aggregates traversal work (one range query per point).
	Stats Stats
}

// OPTICS computes the density-based cluster ordering of the points under the
// network distance: DBSCAN's expansion, but visiting points in ascending
// reachability so that the ordering encodes every sub-ε clustering at once.
// Equal reachabilities are visited in ascending point ID, so the order is a
// function of the distances alone, whatever the backend or queue layout.
func OPTICS(g network.Graph, opts OPTICSOptions) (*OPTICSResult, error) {
	return OPTICSCtx(context.Background(), g, opts)
}

// OPTICSCtx is OPTICS with cancellation: the range queries check ctx
// periodically and the run returns an error wrapping ctx.Err() when it is
// done. Each point's neighbourhood is queried when the point is visited.
func OPTICSCtx(ctx context.Context, g network.Graph, opts OPTICSOptions) (*OPTICSResult, error) {
	if !(opts.Eps > 0) {
		return nil, fmt.Errorf("%w: OPTICS: Eps must be > 0 (got %v)", ErrInvalidOptions, opts.Eps)
	}
	if opts.MinPts < 1 {
		return nil, fmt.Errorf("%w: OPTICS: MinPts must be >= 1 (got %d)", ErrInvalidOptions, opts.MinPts)
	}
	n := g.NumPoints()
	res := &OPTICSResult{
		Order:    make([]network.PointID, 0, n),
		Reach:    make([]float64, 0, n),
		CoreDist: make([]float64, n),
	}
	reach := make([]float64, n)
	processed := make([]bool, n)
	for i := range reach {
		reach[i] = network.Inf
		res.CoreDist[i] = network.Inf
	}

	scratch := network.ScratchFor(g)
	type seed struct {
		p network.PointID
		r float64
	}
	seeds := heapx.New(func(a, b seed) bool { return a.r < b.r || (a.r == b.r && a.p < b.p) })

	// process queries the neighbourhood of p, emits p to the ordering and,
	// if p is a core point, relaxes its unprocessed neighbours.
	process := func(p network.PointID) error {
		nb, err := scratch.RangeQueryDistCtx(ctx, g, p, opts.Eps)
		if err != nil {
			return err
		}
		res.Stats.RangeQueries++
		processed[p] = true
		res.Order = append(res.Order, p)
		res.Reach = append(res.Reach, reach[p])

		if len(nb) < opts.MinPts {
			return nil // not a core point: emits, but does not expand
		}
		// Core distance: MinPts-th smallest neighbour distance (the point
		// itself is in nb at distance 0, matching DBSCAN's counting).
		ds := make([]float64, len(nb))
		for i, q := range nb {
			ds[i] = q.Dist
		}
		sort.Float64s(ds)
		cd := ds[opts.MinPts-1]
		res.CoreDist[p] = cd
		for _, q := range nb {
			if processed[q.Point] {
				continue
			}
			r := q.Dist
			if cd > r {
				r = cd
			}
			if r < reach[q.Point] {
				reach[q.Point] = r
				seeds.Push(seed{p: q.Point, r: r})
			}
		}
		return nil
	}

	for p := 0; p < n; p++ {
		if processed[p] {
			continue
		}
		if err := process(network.PointID(p)); err != nil {
			return nil, err
		}
		for !seeds.Empty() {
			s := seeds.Pop()
			if processed[s.p] || s.r > reach[s.p] {
				continue // stale lazy-heap entry
			}
			if err := process(s.p); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// ExtractDBSCAN reads the DBSCAN clustering for any eps' <= the Eps the
// ordering was built with directly off the reachability plot: walking the
// order, a reachability above eps' closes the current cluster; the next
// point starts a new one if it is a core point at eps'. Border points join
// the cluster they were reached from; points core-less at eps' become Noise.
func (r *OPTICSResult) ExtractDBSCAN(epsPrime float64) []int32 {
	labels := make([]int32, len(r.Order))
	for i := range labels {
		labels[i] = Noise
	}
	next := int32(-1)
	current := Noise
	for i, p := range r.Order {
		if r.Reach[i] > epsPrime {
			if r.CoreDist[p] <= epsPrime {
				next++
				current = next
				labels[p] = current
			} else {
				labels[p] = Noise
				current = Noise
			}
			continue
		}
		// Density-reachable at eps' from the previous region.
		if current == Noise {
			// The region opener was noise at eps' but this point is
			// reachable — it must itself decide: core opens a cluster.
			if r.CoreDist[p] <= epsPrime {
				next++
				current = next
				labels[p] = current
			} else {
				labels[p] = Noise
			}
			continue
		}
		labels[p] = current
	}
	return labels
}

// ReachabilityPlot returns (order index -> reachability) pairs suitable for
// plotting; +Inf entries are cluster separators.
func (r *OPTICSResult) ReachabilityPlot() []float64 {
	return append([]float64(nil), r.Reach...)
}
