package csr

import "netclus/internal/network"

// The snapshot serves the shared Graph access interface (through its
// embedded network) so every operator written against it runs unchanged, and
// the kernel dispatch contracts so the operators that have flat-array kernels
// pick them up automatically.
var (
	_ network.Graph           = (*Snapshot)(nil)
	_ network.ScratchProvider = (*Snapshot)(nil)
	_ network.KNNQuerier      = (*Snapshot)(nil)
	_ network.NearestExpander = (*Snapshot)(nil)
)
