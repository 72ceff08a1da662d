package core

import (
	"context"
	"fmt"
	"math"

	"netclus/internal/heapx"
	"netclus/internal/network"
	"netclus/internal/unionfind"
)

// EpsLinkOptions configures the ε-Link algorithm (§4.3.1).
type EpsLinkOptions struct {
	// Eps is the linking threshold: two points belong to the same cluster
	// when they are connected by a chain of points with consecutive network
	// distances at most Eps (DBSCAN with MinPts = 2).
	Eps float64
	// MinSup declares clusters with fewer members outliers (0/1 keeps all).
	MinSup int
	// Workers is a pure concurrency knob: labels never depend on it, and 0
	// and 1 run the same code on every backend but the sharded set. The
	// compiled snapshot runs its flat Fig. 6 port at every value (one
	// traversal per cluster leaves nothing worth fanning out). On the store,
	// the pointer network and delta views <= 1 runs the sequential Fig. 6
	// algorithm and larger values issue one ε-range query per point across
	// that many goroutines, each worker with its own read view and scratch,
	// and merge the per-worker union-finds. The sharded set alone still
	// tells 0 from 1: it keeps the sequential algorithm for 0 and sends
	// every value >= 1 to its shard-parallel kernel.
	Workers int
}

// EpsLinkResult is the outcome of one EpsLink run.
type EpsLinkResult struct {
	// Labels holds a cluster index per point, Noise for outliers.
	Labels []int32
	// NumClusters counts clusters after min_sup suppression.
	NumClusters int
	// ClustersFound counts clusters discovered before suppression.
	ClustersFound int
	// Stats aggregates traversal work.
	Stats Stats
}

// epsEntry is a queue entry of Fig. 6: a node and its (current) distance
// from the growing cluster.
type epsEntry struct {
	node network.NodeID
	dist float64
}

// epsLinkState carries the per-run scratch of Fig. 6: the NNdist array is
// epoch-stamped so starting a new cluster costs O(1) instead of O(|V|)
// (the paper keeps one cluster at a time; outliers would otherwise pay a
// full array reset each).
type epsLinkState struct {
	ctx       context.Context
	ticks     int
	g         network.Graph
	eps       float64
	labels    []int32
	clustered []bool
	nnDist    []float64
	nnEpoch   []int32
	epoch     int32
	h         *heapx.Heap[epsEntry]
	stats     *Stats
}

func (s *epsLinkState) nnd(n network.NodeID) float64 {
	if s.nnEpoch[n] != s.epoch {
		return network.Inf
	}
	return s.nnDist[n]
}

func (s *epsLinkState) setNND(n network.NodeID, d float64) {
	s.nnEpoch[n] = s.epoch
	s.nnDist[n] = d
}

func (s *epsLinkState) push(n network.NodeID, d float64) {
	s.h.Push(epsEntry{node: n, dist: d})
	s.stats.HeapPushes++
}

// EpsLink runs the density-based ε-Link algorithm (Fig. 6) over every
// unclustered point: each run grows one cluster by traversing only the part
// of the network within ε of the cluster's points, linking points whose
// chain gaps are at most ε. Its worst-case cost is a single graph traversal
// per cluster, and in total it visits only edges that carry points or lie
// within ε of one.
func EpsLink(g network.Graph, opts EpsLinkOptions) (*EpsLinkResult, error) {
	return EpsLinkCtx(context.Background(), g, opts)
}

// EpsLinkCtx is EpsLink with cancellation: the traversal checks ctx
// periodically and returns an error wrapping ctx.Err() when it is done.
// opts.Workers never changes the result (see EpsLinkOptions.Workers).
func EpsLinkCtx(ctx context.Context, g network.Graph, opts EpsLinkOptions) (*EpsLinkResult, error) {
	if !(opts.Eps > 0) {
		return nil, fmt.Errorf("%w: EpsLink: Eps must be > 0 (got %v)", ErrInvalidOptions, opts.Eps)
	}
	// A graph that labels natively (the compiled snapshot's flat Fig. 6
	// port) does so at every Workers value. The sharded set's union kernel
	// takes Workers >= 1. Everything else — and the sharded set at Workers 0
	// — runs the generic traversal below, or the per-point fan-out when
	// Workers > 1. All paths produce identical labels.
	if lk, ok := g.(network.LabelKernel); ok {
		return epsLinkFlat(ctx, g, lk, opts)
	} else if ck, ok := g.(network.ClusterKernel); ok && opts.Workers >= 1 {
		return epsLinkKernel(ctx, g, ck, opts, normWorkers(opts.Workers))
	}
	if workers := normWorkers(opts.Workers); workers > 1 {
		return epsLinkParallel(ctx, g, opts, workers)
	}
	n := g.NumPoints()
	res := &EpsLinkResult{Labels: make([]int32, n)}
	for i := range res.Labels {
		res.Labels[i] = Noise
	}
	st := &epsLinkState{
		ctx:       ctx,
		g:         g,
		eps:       opts.Eps,
		labels:    res.Labels,
		clustered: make([]bool, n),
		nnDist:    make([]float64, g.NumNodes()),
		nnEpoch:   make([]int32, g.NumNodes()),
		h:         heapx.New(func(a, b epsEntry) bool { return a.dist < b.dist }),
		stats:     &res.Stats,
	}
	next := int32(0)
	for p := 0; p < n; p++ {
		if st.clustered[p] {
			continue
		}
		if err := ctxCheck(ctx, &st.ticks); err != nil {
			return nil, err
		}
		if st.epoch == math.MaxInt32 {
			for i := range st.nnEpoch {
				st.nnEpoch[i] = 0
			}
			st.epoch = 0
		}
		st.epoch++
		st.h.Clear()
		if err := st.grow(network.PointID(p), next); err != nil {
			return nil, err
		}
		next++
	}
	res.ClustersFound = int(next)
	res.NumClusters = suppressAndCountDense(res.Labels, opts.MinSup, int(next))
	return res, nil
}

// grow is the ε-Link body (Fig. 6): it discovers the whole cluster of seed
// point m and labels its members with label.
func (s *epsLinkState) grow(m network.PointID, label int32) error {
	mi, err := s.g.PointInfo(m)
	if err != nil {
		return err
	}
	pg, err := s.g.Group(mi.Group)
	if err != nil {
		return err
	}
	off, err := s.g.GroupOffsets(mi.Group)
	if err != nil {
		return err
	}
	s.stats.GroupsRead++
	s.clustered[m] = true
	s.labels[m] = label
	idx := int(m - pg.First)

	// Lines 5-11: populate the seed edge in both directions, then enqueue
	// its endpoints at their distance from the last clustered point.
	last := idx
	for j := idx - 1; j >= 0; j-- {
		pid := pg.First + network.PointID(j)
		if s.clustered[pid] || off[last]-off[j] > s.eps {
			break
		}
		s.clustered[pid] = true
		s.labels[pid] = label
		last = j
	}
	if d := off[last]; d <= s.eps {
		s.push(pg.N1, d)
	}
	last = idx
	for j := idx + 1; j < len(off); j++ {
		pid := pg.First + network.PointID(j)
		if s.clustered[pid] || off[j]-off[last] > s.eps {
			break
		}
		s.clustered[pid] = true
		s.labels[pid] = label
		last = j
	}
	if d := pg.Weight - off[last]; d <= s.eps {
		s.push(pg.N2, d)
	}

	// Lines 12-37: expand the network around the cluster.
	for !s.h.Empty() {
		b := s.h.Pop()
		if b.dist >= s.nnd(b.node) {
			continue // the node's distance from the cluster has not improved
		}
		if err := ctxCheck(s.ctx, &s.ticks); err != nil {
			return err
		}
		s.setNND(b.node, b.dist)
		s.stats.NodesSettled++
		adj, err := s.g.Neighbors(b.node)
		if err != nil {
			return err
		}
		s.stats.EdgesVisited += len(adj)
		for _, nb := range adj {
			if err := s.expandEdge(b, nb, label); err != nil {
				return err
			}
		}
	}
	return nil
}

// expandEdge traverses one edge leaving the dequeued node b (lines 16-37),
// clustering reachable points on it and re-enqueueing whichever endpoints
// got closer to the cluster.
func (s *epsLinkState) expandEdge(b epsEntry, nb network.Neighbor, label int32) error {
	if nb.Group == network.NoGroup {
		// Lines 32-37 (point-free edge): the cluster can reach n_z only
		// through the full edge.
		if d := b.dist + nb.Weight; d <= s.eps && d < s.nnd(nb.Node) {
			s.push(nb.Node, d)
		}
		return nil
	}
	pg, err := s.g.Group(nb.Group)
	if err != nil {
		return err
	}
	off, err := s.g.GroupOffsets(nb.Group)
	if err != nil {
		return err
	}
	s.stats.GroupsRead++

	// Walk the points from b.node's side of the edge.
	fromN1 := b.node == pg.N1
	count := len(off)
	at := func(i int) (network.PointID, float64) { // i-th point from b.node, with d_L to b.node
		if fromN1 {
			return pg.First + network.PointID(i), off[i]
		}
		j := count - 1 - i
		return pg.First + network.PointID(j), pg.Weight - off[j]
	}

	newdB, newdNz := network.Inf, network.Inf
	pid0, dl0 := at(0)
	if !s.clustered[pid0] && dl0+b.dist <= s.eps {
		// Lines 18-27: cluster the first point, then chain while gaps stay
		// within eps.
		s.clustered[pid0] = true
		s.labels[pid0] = label
		newdB = dl0
		newdNz = pg.Weight - dl0
		prevDL := dl0
		for i := 1; i < count; i++ {
			pid, dl := at(i)
			if s.clustered[pid] || dl-prevDL > s.eps {
				break
			}
			s.clustered[pid] = true
			s.labels[pid] = label
			newdNz = pg.Weight - dl
			prevDL = dl
		}
	}
	// Lines 28-31: the cluster may now be closer to b.node than b.dist was.
	if newdB < s.nnd(b.node) {
		s.push(b.node, newdB)
	}
	// Lines 34-37: reach n_z past the clustered points (never past an
	// unclustered one: it would be farther than eps along this edge).
	if newdNz <= s.eps && newdNz < s.nnd(nb.Node) {
		s.push(nb.Node, newdNz)
	}
	return nil
}

// epsLinkParallel computes the same clustering as the sequential Fig. 6
// algorithm from its defining relation: the ε-Link clusters are the
// connected components of the graph that joins p and q when d(p, q) <= eps.
// Every point issues one ε-range query (fanned across workers, each with
// its own read view, scratch and union-find shard); the shards are merged
// and components are labelled by ascending minimum member — exactly the
// order in which the sequential run discovers clusters, so the Labels
// slice is identical.
func epsLinkParallel(ctx context.Context, g network.Graph, opts EpsLinkOptions, workers int) (*EpsLinkResult, error) {
	n := g.NumPoints()
	res := &EpsLinkResult{Labels: make([]int32, n)}
	ufs := make([]*unionfind.UF, workers)
	statsArr := make([]Stats, workers)
	err := parallelPoints(workers, n, func(w int) func(lo, hi int) error {
		view := network.ReadView(g)
		scratch := network.ScratchFor(view)
		uf := unionfind.New(n)
		ufs[w] = uf
		st := &statsArr[w]
		return func(lo, hi int) error {
			for p := lo; p < hi; p++ {
				nb, err := scratch.RangeQueryCtx(ctx, view, network.PointID(p), opts.Eps)
				if err != nil {
					return err
				}
				st.RangeQueries++
				for _, q := range nb {
					uf.Union(p, int(q))
				}
			}
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	uf := mergeUnionFinds(ufs)
	res.ClustersFound = int(labelComponents(uf, res.Labels, nil))
	for _, st := range statsArr {
		res.Stats.add(st)
	}
	res.NumClusters = suppressAndCountDense(res.Labels, opts.MinSup, res.ClustersFound)
	return res, nil
}
