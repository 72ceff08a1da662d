// Package datagen generates the workloads of the paper's evaluation (§5):
// road-like spatial networks (stand-ins for the NA / SF / TG / OL datasets,
// see DESIGN.md substitution table) and the synthetic cluster generator with
// initial separation s_init, magnification factor F and 1% outliers.
// Everything is deterministic given the caller's *rand.Rand.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"netclus/internal/network"
)

// GridNetwork builds a connected, near-planar road-like network: a
// rows x cols lattice with jittered node coordinates, where a random spanning
// tree is always kept and each remaining lattice edge survives independently
// so that approximately extraEdges of them remain. Edge weights are the
// Euclidean distances of their endpoints, as in the paper's experiments.
//
// The result has rows*cols nodes and (rows*cols - 1) + ~extraEdges edges.
func GridNetwork(rows, cols int, spacing, jitter float64, extraEdges int, rng *rand.Rand) (*network.Network, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("datagen: grid %dx%d too small", rows, cols)
	}
	if spacing <= 0 {
		return nil, fmt.Errorf("datagen: non-positive spacing %v", spacing)
	}
	n := rows * cols
	b := network.NewBuilder()
	coords := make([]network.Coord, n)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			jx := (rng.Float64() - 0.5) * jitter * spacing
			jy := (rng.Float64() - 0.5) * jitter * spacing
			coords[r*cols+c] = network.Coord{X: float64(c)*spacing + jx, Y: float64(r)*spacing + jy}
			b.AddNode(coords[r*cols+c])
		}
	}

	// All lattice edges.
	type edge struct{ u, v int }
	var all []edge
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			id := r*cols + c
			if c+1 < cols {
				all = append(all, edge{id, id + 1})
			}
			if r+1 < rows {
				all = append(all, edge{id, id + cols})
			}
		}
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })

	// Randomized Kruskal: the first edges joining distinct components form a
	// uniform-ish random spanning tree; the rest are optional extras.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	var extras []edge
	added := 0
	for _, e := range all {
		ru, rv := find(e.u), find(e.v)
		if ru != rv {
			parent[ru] = rv
			b.AddEdge(network.NodeID(e.u), network.NodeID(e.v), dist(coords[e.u], coords[e.v]))
			added++
		} else {
			extras = append(extras, edge{e.u, e.v})
		}
	}
	if extraEdges > len(extras) {
		extraEdges = len(extras)
	}
	for _, e := range extras[:extraEdges] {
		b.AddEdge(network.NodeID(e.u), network.NodeID(e.v), dist(coords[e.u], coords[e.v]))
	}
	return b.Build()
}

func dist(a, b network.Coord) float64 {
	d := math.Hypot(a.X-b.X, a.Y-b.Y)
	if d <= 0 {
		d = 1e-9 // jitter collision: keep weights positive
	}
	return d
}

// RandomConnectedNetwork builds a connected network with exactly nodes nodes
// and approximately edges edges (edges >= nodes-1): a jittered grid trimmed
// to size. It is the generator behind testing/quick properties that want
// arbitrary sparse connected road-like graphs.
func RandomConnectedNetwork(nodes, edges int, rng *rand.Rand) (*network.Network, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("datagen: need >= 2 nodes, got %d", nodes)
	}
	if edges < nodes-1 {
		return nil, fmt.Errorf("datagen: %d edges cannot connect %d nodes", edges, nodes)
	}
	side := int(math.Ceil(math.Sqrt(float64(nodes))))
	rows := (nodes + side - 1) / side
	g, err := GridNetwork(rows, side, 1.0, 0.4, edges, rng)
	if err != nil {
		return nil, err
	}
	// Trim to exactly `nodes` nodes while keeping connectivity.
	if g.NumNodes() > nodes {
		g, err = network.ExtractConnectedCount(g, 0, nodes)
		if err != nil {
			return nil, err
		}
	}
	return g, nil
}
