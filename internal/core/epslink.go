package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"netclus/internal/heapx"
	"netclus/internal/network"
)

// EpsLinkOptions configures the ε-Link algorithm (§4.3.1).
type EpsLinkOptions struct {
	// Eps is the linking threshold: two points belong to the same cluster
	// when they are connected by a chain of points with consecutive network
	// distances at most Eps (DBSCAN with MinPts = 2).
	Eps float64
	// MinSup declares clusters with fewer members outliers (0/1 keeps all).
	MinSup int
	// Workers changes nothing: ε-Link is one Fig. 6 traversal per cluster
	// on every backend. It stays only because benchmark/ sets it (ROADMAP
	// item 1 (A)).
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

// Per-point traversal state of a growth pass.
const (
	ptFree      uint8 = iota // selected, not yet in a cluster
	ptClustered              // selected, member of a grown cluster
	ptMasked                 // unselected: the traversal looks through it
)

// epsLinkState carries the per-run scratch of Fig. 6: the NNdist array is
// epoch-stamped so starting a new cluster costs O(1) instead of O(|V|)
// (the paper keeps one cluster at a time; outliers would otherwise pay a
// full array reset each). The traversal runs under a per-point selection
// state: masked points are invisible, so the same code labels the
// ε-components of any point subset — every point for ε-Link, the core points
// for DBSCAN (dbscan.go).
type epsLinkState struct {
	ctx     context.Context
	ticks   int
	g       network.Graph
	eps     float64
	labels  []int32
	state   []uint8 // ptFree / ptClustered / ptMasked per point
	nnDist  []float64
	nnEpoch []int32
	epoch   int32
	h       *heapx.Heap[epsEntry]
	stats   *Stats
}

// newEpsLinkState readies a run over g with every point selected and
// unclustered, labels reset to Noise and the traversal work booked in stats.
func newEpsLinkState(ctx context.Context, g network.Graph, eps float64, labels []int32, stats *Stats) *epsLinkState {
	for i := range labels {
		labels[i] = Noise
	}
	return &epsLinkState{
		ctx:     ctx,
		g:       g,
		eps:     eps,
		labels:  labels,
		state:   make([]uint8, len(labels)),
		nnDist:  make([]float64, g.NumNodes()),
		nnEpoch: make([]int32, g.NumNodes()),
		h:       heapx.New(func(a, b epsEntry) bool { return a.dist < b.dist }),
		stats:   stats,
	}
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

// take makes the free point pid a member of the cluster being grown.
func (s *epsLinkState) take(pid network.PointID, label int32) {
	s.state[pid] = ptClustered
	s.labels[pid] = label
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
func EpsLinkCtx(ctx context.Context, g network.Graph, opts EpsLinkOptions) (*EpsLinkResult, error) {
	if !(opts.Eps > 0) {
		return nil, fmt.Errorf("%w: EpsLink: Eps must be > 0 (got %v)", ErrInvalidOptions, opts.Eps)
	}
	res := &EpsLinkResult{Labels: make([]int32, g.NumPoints())}
	// A graph that labels natively (the compiled snapshot's flat Fig. 6
	// port) does so; everything else runs the generic traversal below. Both
	// produce identical labels.
	if lk, ok := g.(network.LabelKernel); ok {
		if err := epsLinkFlat(ctx, lk, opts, res); err != nil {
			return nil, err
		}
		return res, nil
	}
	st := newEpsLinkState(ctx, g, opts.Eps, res.Labels, &res.Stats)
	found, err := st.growAll()
	if err != nil {
		return nil, err
	}
	res.ClustersFound = found
	res.NumClusters = CountClusters(SuppressSmallClusters(res.Labels, opts.MinSup))
	return res, nil
}

// epsLinkFlat labels via lk's native Fig. 6 traversal. The kernel applies the
// min_sup filter itself from the per-grow member counts, so there is no
// suppression epilogue here.
func epsLinkFlat(ctx context.Context, lk network.LabelKernel, opts EpsLinkOptions, res *EpsLinkResult) error {
	t0 := time.Now()
	found, kept, err := lk.EpsLinkLabels(ctx, opts.Eps, opts.MinSup, res.Labels)
	res.ClustersFound = found
	res.NumClusters = kept
	ns := time.Since(t0).Nanoseconds()
	res.Stats.CritNs = ns
	res.Stats.WallNs = ns
	return err
}

// growAll grows one cluster from every selected point no earlier cluster
// reached, in ascending ID order — so clusters are numbered by ascending
// smallest selected member — and returns how many it grew. Masked points
// keep their Noise label.
func (s *epsLinkState) growAll() (int, error) {
	next := int32(0)
	for p := range s.state {
		if s.state[p] != ptFree {
			continue
		}
		if err := ctxCheck(s.ctx, &s.ticks); err != nil {
			return 0, err
		}
		if s.epoch == math.MaxInt32 {
			for i := range s.nnEpoch {
				s.nnEpoch[i] = 0
			}
			s.epoch = 0
		}
		s.epoch++
		s.h.Clear()
		if err := s.grow(network.PointID(p), next); err != nil {
			return 0, err
		}
		next++
	}
	return int(next), nil
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
	s.take(m, label)
	idx := int(m - pg.First)

	// Lines 5-11: populate the seed edge in both directions, then enqueue
	// its endpoints at their distance from the last clustered point.
	last := idx
	for j := idx - 1; j >= 0; j-- {
		pid := pg.First + network.PointID(j)
		if st := s.state[pid]; st != ptFree {
			if st == ptMasked {
				continue
			}
			break
		}
		if off[last]-off[j] > s.eps {
			break
		}
		s.take(pid, label)
		last = j
	}
	if d := off[last]; d <= s.eps {
		s.push(pg.N1, d)
	}
	last = idx
	for j := idx + 1; j < len(off); j++ {
		pid := pg.First + network.PointID(j)
		if st := s.state[pid]; st != ptFree {
			if st == ptMasked {
				continue
			}
			break
		}
		if off[j]-off[last] > s.eps {
			break
		}
		s.take(pid, label)
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
			if nb.Group != network.NoGroup {
				if selected, err := s.expandGroup(b, nb, label); err != nil {
					return err
				} else if selected {
					continue
				}
			}
			// Lines 32-37 (no selected point on the edge): the cluster can
			// reach n_z only through the full edge.
			if d := b.dist + nb.Weight; d <= s.eps && d < s.nnd(nb.Node) {
				s.push(nb.Node, d)
			}
		}
	}
	return nil
}

// expandGroup traverses the points on one edge leaving the dequeued node b
// (lines 16-31, 34-37): cluster the reachable selected points, then
// re-enqueue whichever endpoints got closer to the cluster. It reports false
// when the group holds no selected point — the edge then counts as
// point-free.
func (s *epsLinkState) expandGroup(b epsEntry, nb network.Neighbor, label int32) (bool, error) {
	pg, err := s.g.Group(nb.Group)
	if err != nil {
		return false, err
	}
	off, err := s.g.GroupOffsets(nb.Group)
	if err != nil {
		return false, err
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
	var pid network.PointID
	var dl float64
	i := 0
	for ; i < count; i++ {
		if pid, dl = at(i); s.state[pid] != ptMasked {
			break
		}
	}
	if i == count {
		return false, nil
	}

	newdB, newdNz := network.Inf, network.Inf
	if s.state[pid] == ptFree && dl+b.dist <= s.eps {
		// Lines 18-27: cluster the first point, then chain while gaps stay
		// within eps.
		s.take(pid, label)
		newdB = dl
		newdNz = pg.Weight - dl
		prevDL := dl
		for i++; i < count; i++ {
			pid, dl := at(i)
			if st := s.state[pid]; st != ptFree {
				if st == ptMasked {
					continue
				}
				break
			}
			if dl-prevDL > s.eps {
				break
			}
			s.take(pid, label)
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
	return true, nil
}
