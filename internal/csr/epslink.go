package csr

import (
	"context"
	"fmt"
	"math"

	"netclus/internal/heapx"
	"netclus/internal/network"
)

// This file is the flat-array port of the paper's Fig. 6 ε-Link traversal
// (core.EpsLinkCtx's generic path): the same algorithm, line for line,
// but reading the snapshot's adjacency rows (rowOff into adj) and its ptPos
// array directly instead of going through the Graph interface, with the NNdist
// array epoch-stamped per cluster and the whole state pooled. Clusters are
// grown from ascending seed point IDs, so the labels are identical to the
// generic run by construction.
//
// The traversal runs under a per-point selection state: masked points are
// invisible, so the same code labels the ε-components of any point subset —
// every point for ε-Link, the core points for DBSCAN (dbscan.go).

var _ network.LabelKernel = (*Snapshot)(nil)

// noiseLabel mirrors core.Noise: the label of suppressed cluster members.
const noiseLabel int32 = -1

// Per-point traversal state of a growth pass.
const (
	ptFree      uint8 = iota // selected, not yet in a cluster
	ptClustered              // selected, member of a grown cluster
	ptMasked                 // unselected: the traversal looks through it
)

// epsState is the pooled traversal state of one labelling run.
type epsState struct {
	nnDist  []float64
	nnEpoch []int32
	epoch   int32
	heap    *heapx.Heap4[entry]
	state   []uint8 // ptFree / ptClustered / ptMasked per point
	sizes   []int32 // per-cluster member counts, indexed by label
	cnt     int32   // members of the cluster being grown

	// side holds DBSCAN's flag pass's one record [p, k, q1..qk] for every
	// non-core point p: the k < MinPts points its finished expansion saw,
	// from which the border pass picks p's cluster.
	side []network.PointID
}

// acquireEps draws a pooled state with every point selected and unclustered.
// The per-point array is regrown, with headroom, only when s has outgrown it,
// so the views of a live overlay reuse one state while their point count
// drifts.
func (s *Snapshot) acquireEps() *epsState {
	st, ok := s.pools.eps.Get().(*epsState)
	if !ok {
		st = &epsState{heap: heapx.New4(lessEntry)}
	}
	if cap(st.nnDist) < s.NumNodes() {
		st.nnDist = make([]float64, s.NumNodes())
		st.nnEpoch = make([]int32, s.NumNodes())
		st.epoch = 0
	} else {
		st.nnDist = st.nnDist[:s.NumNodes()]
		st.nnEpoch = st.nnEpoch[:s.NumNodes()]
	}
	n := len(s.ptPos)
	if cap(st.state) < n {
		st.state = make([]uint8, n, headroom(n))
	} else {
		st.state = st.state[:n]
		for i := range st.state {
			st.state[i] = ptFree
		}
	}
	return st
}

func (st *epsState) nnd(n int32) float64 {
	if st.nnEpoch[n] != st.epoch {
		return network.Inf
	}
	return st.nnDist[n]
}

// bump opens a fresh cluster: O(1) NNdist reset plus a heap clear.
func (st *epsState) bump() {
	if st.epoch == math.MaxInt32 {
		for i := range st.nnEpoch {
			st.nnEpoch[i] = 0
		}
		st.epoch = 0
	}
	st.epoch++
	st.heap.Clear()
}

// EpsLinkLabels runs the sequential ε-Link clustering over every point and
// fills labels with a cluster index per point, clusters numbered in the
// order Fig. 6 discovers them (ascending smallest member). Members of
// clusters smaller than minSup are relabelled Noise (the paper's min_sup
// post-filter, §4.3.1); cluster sizes are counted as scalars while each
// cluster grows, so the filter costs one extra pass over labels. Returns
// the cluster count before and after suppression. Satisfies
// network.LabelKernel.
func (s *Snapshot) EpsLinkLabels(ctx context.Context, eps float64, minSup int, labels []int32) (found, kept int, err error) {
	n := len(s.ptPos)
	if len(labels) != n {
		return 0, 0, fmt.Errorf("%w: EpsLinkLabels needs len(labels) == %d, got %d", network.ErrInvalidOptions, n, len(labels))
	}
	if !(eps > 0) {
		return 0, 0, fmt.Errorf("%w: EpsLinkLabels needs eps > 0 (got %v)", network.ErrInvalidOptions, eps)
	}
	st := s.acquireEps()
	defer s.pools.eps.Put(st)
	if err := st.growAll(ctx, s, eps, labels); err != nil {
		return 0, 0, err
	}
	sizes := st.sizes
	found = len(sizes)
	kept = found
	if sup := int32(minSup); sup > 1 {
		kept = 0
		for _, c := range sizes {
			if c >= sup {
				kept++
			}
		}
		if kept < found {
			// Every point carries a valid label here — the grow loop covers
			// all of them — so the suppress pass needs no Noise check.
			for i, l := range labels {
				if sizes[l] < sup {
					labels[i] = noiseLabel
				}
			}
		}
	}
	return found, kept, nil
}

// growAll grows one cluster from every selected point no earlier cluster
// reached, in ascending ID order — so clusters are numbered by ascending
// smallest selected member — and leaves the member counts in st.sizes.
// Masked points keep whatever labels holds for them.
func (st *epsState) growAll(ctx context.Context, sn *Snapshot, eps float64, labels []int32) error {
	sizes := st.sizes[:0]
	ticks := 0
	for p := range st.state {
		if st.state[p] != ptFree {
			continue
		}
		if err := cancelCheck(ctx, &ticks); err != nil {
			return err
		}
		st.bump()
		st.cnt = 0
		if err := st.grow(ctx, &ticks, sn, int32(p), int32(len(sizes)), eps, labels); err != nil {
			return err
		}
		sizes = append(sizes, st.cnt)
	}
	st.sizes = sizes
	return nil
}

// take makes the free point pid a member of the cluster being grown.
func (st *epsState) take(pid, label int32, labels []int32) {
	st.state[pid] = ptClustered
	labels[pid] = label
	st.cnt++
}

// grow discovers the whole cluster of seed point m and labels its members
// (Fig. 6 lines 5-37 on the flat arrays).
func (st *epsState) grow(ctx context.Context, ticks *int, sn *Snapshot, m, label int32, eps float64, labels []int32) error {
	pg := &sn.groups[sn.ptGrp[m]]
	first := int32(pg.First)
	off := sn.ptPos[first : first+pg.Count]
	st.take(m, label, labels)
	idx := int(m - first)

	// Lines 5-11: populate the seed edge in both directions, then enqueue
	// its endpoints at their distance from the last clustered point.
	last := idx
	for j := idx - 1; j >= 0; j-- {
		pid := first + int32(j)
		if s := st.state[pid]; s != ptFree {
			if s == ptMasked {
				continue
			}
			break
		}
		if off[last]-off[j] > eps {
			break
		}
		st.take(pid, label, labels)
		last = j
	}
	if d := off[last]; d <= eps {
		st.heap.Push(entry{node: int32(pg.N1), dist: d})
	}
	last = idx
	for j := idx + 1; j < len(off); j++ {
		pid := first + int32(j)
		if s := st.state[pid]; s != ptFree {
			if s == ptMasked {
				continue
			}
			break
		}
		if off[j]-off[last] > eps {
			break
		}
		st.take(pid, label, labels)
		last = j
	}
	if d := pg.Weight - off[last]; d <= eps {
		st.heap.Push(entry{node: int32(pg.N2), dist: d})
	}

	// Lines 12-37: expand the network around the cluster.
	for !st.heap.Empty() {
		b := st.heap.Pop()
		if b.dist >= st.nnd(b.node) {
			continue // the node's distance from the cluster has not improved
		}
		if err := cancelCheck(ctx, ticks); err != nil {
			return err
		}
		st.nnEpoch[b.node] = st.epoch
		st.nnDist[b.node] = b.dist
		for _, nb := range sn.adj[sn.rowOff[b.node]:sn.rowOff[b.node+1]] {
			nz := int32(nb.Node)
			if nb.Group >= 0 && st.expandGroup(sn, b, nz, int32(nb.Group), label, eps, labels) {
				continue
			}
			// Lines 32-37 (no selected point on the edge): the cluster can
			// reach n_z only through the full edge.
			if d := b.dist + nb.Weight; d <= eps && d < st.nnd(nz) {
				st.heap.Push(entry{node: nz, dist: d})
			}
		}
	}
	return nil
}

// expandGroup traverses the points of group gid on the edge from the
// dequeued node b to nz (Fig. 6 lines 16-31, 34-37): cluster the reachable
// selected points, then re-enqueue whichever endpoints got closer to the
// cluster. It reports false when the group holds no selected point — the
// edge then counts as point-free.
func (st *epsState) expandGroup(sn *Snapshot, b entry, nz, gid, label int32, eps float64, labels []int32) bool {
	pg := &sn.groups[gid]
	first := int32(pg.First)
	off := sn.ptPos[first : first+pg.Count]
	count := len(off)

	newdB, newdNz := network.Inf, network.Inf
	if b.node == int32(pg.N1) {
		j := 0
		for j < count && st.state[first+int32(j)] == ptMasked {
			j++
		}
		if j == count {
			return false
		}
		if pid := first + int32(j); st.state[pid] == ptFree && off[j]+b.dist <= eps {
			// Lines 18-27: cluster the first point, then chain while gaps
			// stay within eps.
			st.take(pid, label, labels)
			newdB = off[j]
			newdNz = pg.Weight - off[j]
			prevDL := off[j]
			for j++; j < count; j++ {
				pid := first + int32(j)
				if s := st.state[pid]; s != ptFree {
					if s == ptMasked {
						continue
					}
					break
				}
				if off[j]-prevDL > eps {
					break
				}
				st.take(pid, label, labels)
				newdNz = pg.Weight - off[j]
				prevDL = off[j]
			}
		}
	} else {
		j := count - 1
		for j >= 0 && st.state[first+int32(j)] == ptMasked {
			j--
		}
		if j < 0 {
			return false
		}
		pid := first + int32(j)
		if dl0 := pg.Weight - off[j]; st.state[pid] == ptFree && dl0+b.dist <= eps {
			st.take(pid, label, labels)
			newdB = dl0
			newdNz = pg.Weight - dl0
			prevDL := dl0
			for j--; j >= 0; j-- {
				pid := first + int32(j)
				if s := st.state[pid]; s != ptFree {
					if s == ptMasked {
						continue
					}
					break
				}
				dl := pg.Weight - off[j]
				if dl-prevDL > eps {
					break
				}
				st.take(pid, label, labels)
				newdNz = pg.Weight - dl
				prevDL = dl
			}
		}
	}
	// Lines 28-31: the cluster may now be closer to b.node than b.dist was.
	if newdB < st.nnd(b.node) {
		st.heap.Push(entry{node: b.node, dist: newdB})
	}
	// Lines 34-37: reach n_z past the clustered points (never past an
	// unclustered one: it would be farther than eps along this edge).
	if newdNz <= eps && newdNz < st.nnd(nz) {
		st.heap.Push(entry{node: nz, dist: newdNz})
	}
	return true
}
