package shard

import (
	"context"
	"fmt"
	"sync"

	"netclus/internal/csr"
	"netclus/internal/network"
)

// expandState is the pooled per-call state of the distributed nearest-medoid
// expansion: per-shard label arrays, pending relay seeds, the boundary
// snapshots change detection compares against, and one round's per-shard
// outcomes.
type expandState struct {
	lmed    [][]int32
	ldist   [][]float64
	pend    [][]network.MedoidSeed
	prevM   [][]int32 // boundary labels before a round, indexed by bList slot
	prevD   [][]float64
	runList []int32
	counts  []network.ExpandCounts // per runList entry
	errs    []error
}

func newExpandState(set *Set) *expandState {
	st := &expandState{
		lmed:  make([][]int32, set.k),
		ldist: make([][]float64, set.k),
		pend:  make([][]network.MedoidSeed, set.k),
		prevM: make([][]int32, set.k),
		prevD: make([][]float64, set.k),

		runList: make([]int32, 0, set.k),
		counts:  make([]network.ExpandCounts, set.k),
		errs:    make([]error, set.k),
	}
	for s := 0; s < set.k; s++ {
		st.lmed[s] = make([]int32, len(set.nodeGlobal[s]))
		st.ldist[s] = make([]float64, len(set.nodeGlobal[s]))
		st.prevM[s] = make([]int32, len(set.bList[s]))
		st.prevD[s] = make([]float64, len(set.bList[s]))
	}
	return st
}

// ExpandNearestLogged runs the multi-source nearest-medoid expansion across
// the shards, satisfying network.NearestExpander over global node IDs. Each
// round, shards with pending seeds run their own Δ-stepping kernel; boundary
// nodes whose (dist, medoid) label lexicographically improved relay across
// the cut edges as seeds for the neighbouring shard, until no relay remains.
// The (dist, sourceRank, nodeID) fixpoint of the contract is unique and
// schedule-independent, so the merged labels equal the single-snapshot
// kernel's exactly. Labels retained from entry act as thresholds only and
// are never relayed, matching the kernel's accepted-entries-only pushes. The
// shards expand their own label arrays unlogged; a non-nil log receives the
// global entries that differ when they are gathered back, once each.
func (set *Set) ExpandNearestLogged(ctx context.Context, seeds []network.MedoidSeed, med []int32, dist []float64, log *network.MedoidLog) (network.ExpandCounts, error) {
	var counts network.ExpandCounts
	st := set.expandPool.Get().(*expandState)
	defer set.expandPool.Put(st)

	for n, s := range set.nodeShard {
		ln := set.nodeLocal[n]
		st.lmed[s][ln] = med[n]
		st.ldist[s][ln] = dist[n]
	}
	for s := range st.pend {
		st.pend[s] = st.pend[s][:0]
	}
	for _, sd := range seeds {
		if sd.Node < 0 || int(sd.Node) >= len(set.nodeShard) {
			return counts, fmt.Errorf("%w: seed node %d", network.ErrNodeRange, sd.Node)
		}
		s := set.nodeShard[sd.Node]
		st.pend[s] = append(st.pend[s], network.MedoidSeed{
			Node: network.NodeID(set.nodeLocal[sd.Node]), Med: sd.Med, Dist: sd.Dist,
		})
	}

	for {
		st.runList = st.runList[:0]
		for s := 0; s < set.k; s++ {
			if len(st.pend[s]) > 0 {
				st.runList = append(st.runList, int32(s))
			}
		}
		if len(st.runList) == 0 {
			break
		}
		for _, s := range st.runList {
			for idx, ln := range set.bList[s] {
				st.prevM[s][idx] = st.lmed[s][ln]
				st.prevD[s][idx] = st.ldist[s][ln]
			}
		}
		roundCounts, roundErrs := st.counts[:len(st.runList)], st.errs[:len(st.runList)]
		if set.workers > 1 && len(st.runList) > 1 {
			sem := make(chan struct{}, set.workers)
			var wg sync.WaitGroup
			for i, s := range st.runList {
				wg.Add(1)
				sem <- struct{}{}
				go func(i int, s int32) {
					defer wg.Done()
					roundCounts[i], roundErrs[i] = set.shards[s].ExpandNearest(ctx, st.pend[s], st.lmed[s], st.ldist[s])
					st.pend[s] = st.pend[s][:0]
					<-sem
				}(i, int32(s))
			}
			wg.Wait()
		} else {
			for i, s := range st.runList {
				roundCounts[i], roundErrs[i] = set.shards[s].ExpandNearest(ctx, st.pend[s], st.lmed[s], st.ldist[s])
				st.pend[s] = st.pend[s][:0]
			}
		}
		for i, err := range roundErrs {
			c := roundCounts[i]
			counts.Settled += c.Settled
			counts.Pushes += c.Pushes
			counts.Edges += c.Edges
			if err != nil {
				return counts, err
			}
		}
		// Relay lexicographic improvements of boundary labels across the cut
		// edges, with the kernel's own push gate.
		for _, s := range st.runList {
			for idx, ln := range set.bList[s] {
				d, m := st.ldist[s][ln], st.lmed[s][ln]
				if d > st.prevD[s][idx] || (d == st.prevD[s][idx] && m >= st.prevM[s][idx]) {
					continue // not an improvement
				}
				gu := set.nodeGlobal[s][ln]
				for i := set.cutOff[gu]; i < set.cutOff[gu+1]; i++ {
					ce := &set.cutEdges[set.cutAdj[i]]
					gv := int32(ce.U)
					if gv == gu {
						gv = int32(ce.V)
					}
					nd := d + ce.Weight
					sv, lv := set.nodeShard[gv], set.nodeLocal[gv]
					if nd > st.ldist[sv][lv] || (nd == st.ldist[sv][lv] && m >= st.lmed[sv][lv]) {
						continue
					}
					st.pend[sv] = append(st.pend[sv], network.MedoidSeed{
						Node: network.NodeID(lv), Med: m, Dist: nd,
					})
					counts.Pushes++
				}
			}
		}
	}

	for n, s := range set.nodeShard {
		ln := set.nodeLocal[n]
		m, d := st.lmed[s][ln], st.ldist[s][ln]
		if m == med[n] && d == dist[n] {
			continue
		}
		if log != nil {
			*log = append(*log, network.MedoidChange{Node: network.NodeID(n), Med: med[n], Dist: dist[n]})
		}
		med[n], dist[n] = m, d
	}
	return counts, nil
}

// AssignNearest labels every point with its nearest medoid slot given the
// node assignment, satisfying network.MedoidAssigner: the csr assignment scan
// run over the Set's global tables, so labels and R are bit-identical to the
// single-snapshot kernel over the global med/dist arrays the distributed
// expansion produced.
func (set *Set) AssignNearest(medoids []network.PointInfo, med []int32, dist []float64, labels []int32) (r float64, groupsRead int) {
	return csr.AssignNearest(set.groups, set.ptPos, medoids, med, dist, labels, nil)
}
