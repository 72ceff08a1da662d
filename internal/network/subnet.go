package network

import (
	"fmt"
)

// ConnectedComponents labels every node with a component ID in [0, count).
func ConnectedComponents(g Graph) (labels []int32, count int, err error) {
	n := g.NumNodes()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	var queue []NodeID
	for start := 0; start < n; start++ {
		if labels[start] >= 0 {
			continue
		}
		labels[start] = int32(count)
		queue = append(queue[:0], NodeID(start))
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			adj, err := g.Neighbors(u)
			if err != nil {
				return nil, 0, err
			}
			for _, nb := range adj {
				if labels[nb.Node] < 0 {
					labels[nb.Node] = int32(count)
					queue = append(queue, nb.Node)
				}
			}
		}
		count++
	}
	return labels, count, nil
}

// InducedSubnetwork extracts the subgraph induced by the nodes with
// keep[node] == true, remapping node IDs densely in increasing original-ID
// order. Points are retained iff both endpoints of their edge are kept; their
// tags are preserved. The mapping from old to new node IDs is returned
// (-1 for dropped nodes).
func InducedSubnetwork(n *Network, keep []bool) (*Network, []NodeID, error) {
	if len(keep) != n.NumNodes() {
		return nil, nil, fmt.Errorf("network: keep mask has %d entries for %d nodes", len(keep), n.NumNodes())
	}
	b := NewBuilder()
	remap := make([]NodeID, n.NumNodes())
	for i := range remap {
		remap[i] = -1
	}
	for i := 0; i < n.NumNodes(); i++ {
		if keep[i] {
			if n.HasCoords() {
				remap[i] = b.AddNode(n.Coord(NodeID(i)))
			} else {
				remap[i] = b.AddNode()
			}
		}
	}
	for u := 0; u < n.NumNodes(); u++ {
		if !keep[u] {
			continue
		}
		adj, err := n.Neighbors(NodeID(u))
		if err != nil {
			return nil, nil, err
		}
		for _, nb := range adj {
			if NodeID(u) < nb.Node && keep[nb.Node] {
				b.AddEdge(remap[u], remap[nb.Node], nb.Weight)
			}
		}
	}
	err := n.ScanGroups(func(g GroupID, pg PointGroup, offsets []float64) error {
		if !keep[pg.N1] || !keep[pg.N2] {
			return nil
		}
		for i, off := range offsets {
			b.AddPoint(remap[pg.N1], remap[pg.N2], off, n.Tag(pg.First+PointID(i)))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	sub, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return sub, remap, nil
}

// LargestComponent returns the induced subnetwork of the largest connected
// component — the cleaning step the paper applied to the SF and TG networks.
func LargestComponent(n *Network) (*Network, error) {
	labels, count, err := ConnectedComponents(n)
	if err != nil {
		return nil, err
	}
	if count <= 1 {
		return n, nil
	}
	sizes := make([]int, count)
	for _, l := range labels {
		sizes[l]++
	}
	best := 0
	for c, sz := range sizes {
		if sz > sizes[best] {
			best = c
		}
	}
	keep := make([]bool, len(labels))
	for i, l := range labels {
		keep[i] = l == int32(best)
	}
	sub, _, err := InducedSubnetwork(n, keep)
	return sub, err
}

// ExtractConnectedFraction grows a BFS ball from startNode until it covers
// ceil(frac * |V|) nodes and returns the induced (connected) subnetwork —
// how the Figure 14 experiment derives 10 %, 20 % and 50 % subnetworks of
// SF. The source network must be connected for the requested size to be
// reachable; otherwise the ball saturates its component.
func ExtractConnectedFraction(n *Network, startNode NodeID, frac float64) (*Network, error) {
	if frac <= 0 || frac > 1 {
		return nil, fmt.Errorf("network: fraction %v outside (0,1]", frac)
	}
	if frac == 1 {
		return n, nil
	}
	want := int(frac * float64(n.NumNodes()))
	if want < 1 {
		want = 1
	}
	return ExtractConnectedCount(n, startNode, want)
}

// ExtractConnectedCount is ExtractConnectedFraction with an absolute node
// count instead of a fraction.
func ExtractConnectedCount(n *Network, startNode NodeID, want int) (*Network, error) {
	if want < 1 || want > n.NumNodes() {
		return nil, fmt.Errorf("network: cannot extract %d of %d nodes", want, n.NumNodes())
	}
	keep := make([]bool, n.NumNodes())
	keep[startNode] = true
	got := 1
	frontier := []NodeID{startNode}
	for got < want && len(frontier) > 0 {
		var next []NodeID
		for _, u := range frontier {
			adj, err := n.Neighbors(u)
			if err != nil {
				return nil, err
			}
			for _, nb := range adj {
				if !keep[nb.Node] {
					keep[nb.Node] = true
					got++
					next = append(next, nb.Node)
					if got >= want {
						break
					}
				}
			}
			if got >= want {
				break
			}
		}
		frontier = next
	}
	sub, _, err := InducedSubnetwork(n, keep)
	return sub, err
}
