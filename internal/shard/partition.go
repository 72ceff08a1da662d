// Package shard cuts a spatial network into K subnetworks, each compiled to
// its own CSR snapshot and saved as its own .ncs file, plus the cut-edge
// table and stable global↔local ID maps that join them. The Set type is a
// plain network.Graph over one global adjacency, so every clustering
// algorithm and the serving layer run on a sharded network through their
// generic paths — with results byte-identical to one snapshot of the whole
// network.
package shard

import (
	"fmt"

	"netclus/internal/network"
)

// PartitionNodes assigns every node of g to one of k shards. Seeds are
// spread farthest-first by hop distance; the shards then grow breadth-first
// in round-robin turns (one claimed node per shard per turn), so on a
// connected graph every shard is a connected subnetwork of nearly equal
// size. Nodes of components no seed reached are attached whole-component to
// the smallest shard. The result is deterministic for a given graph.
func PartitionNodes(g network.Graph, k int) ([]int32, error) {
	nodes := g.NumNodes()
	if k < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", k)
	}
	if k > nodes {
		return nil, fmt.Errorf("shard: %d shards exceed the %d nodes", k, nodes)
	}

	// Flatten the adjacency once: the seed search and the balloon growth
	// both sweep it repeatedly.
	rowOff := make([]int32, nodes+1)
	adj := make([]int32, 0, 2*g.NumEdges())
	for n := 0; n < nodes; n++ {
		row, err := g.Neighbors(network.NodeID(n))
		if err != nil {
			return nil, fmt.Errorf("shard: reading adjacency of node %d: %w", n, err)
		}
		for _, nb := range row {
			adj = append(adj, int32(nb.Node))
		}
		rowOff[n+1] = int32(len(adj))
	}

	seeds := spreadSeeds(rowOff, adj, nodes, k)

	// Balloon growth: each shard claims one unassigned node per turn from
	// its BFS frontier. Claimed-from cursors make the total work O(V+E).
	assign := make([]int32, nodes)
	for i := range assign {
		assign[i] = -1
	}
	queues := make([][]int32, k)
	heads := make([]int, k)
	cursor := make([]int32, nodes)
	sizes := make([]int, k)
	for s, sd := range seeds {
		assign[sd] = int32(s)
		queues[s] = append(queues[s], sd)
		sizes[s]++
	}
	for active := true; active; {
		active = false
		for s := 0; s < k; s++ {
			for heads[s] < len(queues[s]) {
				u := queues[s][heads[s]]
				row := adj[rowOff[u]:rowOff[u+1]]
				claimed := false
				for cursor[u] < int32(len(row)) {
					v := row[cursor[u]]
					cursor[u]++
					if assign[v] < 0 {
						assign[v] = int32(s)
						queues[s] = append(queues[s], v)
						sizes[s]++
						claimed = true
						break
					}
				}
				if claimed {
					active = true
					break
				}
				heads[s]++ // u's neighborhood is exhausted for good
			}
		}
	}

	// Components no seed reached: attach each whole to the smallest shard.
	var stack []int32
	for n := 0; n < nodes; n++ {
		if assign[n] >= 0 {
			continue
		}
		s := 0
		for t := 1; t < k; t++ {
			if sizes[t] < sizes[s] {
				s = t
			}
		}
		stack = append(stack[:0], int32(n))
		assign[n] = int32(s)
		sizes[s]++
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range adj[rowOff[u]:rowOff[u+1]] {
				if assign[v] < 0 {
					assign[v] = int32(s)
					sizes[s]++
					stack = append(stack, v)
				}
			}
		}
	}
	return assign, nil
}

// spreadSeeds picks k seed nodes farthest-first by hop distance: node 0,
// then repeatedly the node (smallest ID at ties) farthest from every seed
// chosen so far, with unreached nodes counting as infinitely far.
func spreadSeeds(rowOff, adj []int32, nodes, k int) []int32 {
	seeds := make([]int32, 1, k)
	seeds[0] = 0
	hop := make([]int32, nodes)
	queue := make([]int32, 0, nodes)
	for len(seeds) < k {
		for i := range hop {
			hop[i] = -1
		}
		queue = queue[:0]
		for _, sd := range seeds {
			hop[sd] = 0
			queue = append(queue, sd)
		}
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for _, v := range adj[rowOff[u]:rowOff[u+1]] {
				if hop[v] < 0 {
					hop[v] = hop[u] + 1
					queue = append(queue, v)
				}
			}
		}
		best, bestHop := int32(-1), int32(0)
		for n := 0; n < nodes; n++ {
			h := hop[n]
			if h == 0 {
				continue // a seed
			}
			if h < 0 { // unreached: infinitely far, smallest ID wins
				best = int32(n)
				break
			}
			if h > bestHop {
				best, bestHop = int32(n), h
			}
		}
		if best < 0 {
			// Every node is already a seed — impossible while k <= nodes,
			// but never loop forever on a malformed graph.
			break
		}
		seeds = append(seeds, best)
	}
	return seeds
}
