// Package unionfind implements disjoint-set forests with union by size and
// path compression. The Single-Link algorithm uses it for cluster merging
// (the paper's "weighted-union heuristic", §4.4.1 footnote).
package unionfind

// UF is a disjoint-set forest over elements 0..n-1.
type UF struct {
	parent []int32
	size   []int32
	sets   int
}

// New returns a forest of n singleton sets.
func New(n int) *UF {
	u := &UF{}
	u.Reset(n)
	return u
}

// Reset turns u into a forest of n singleton sets, reusing its storage. The
// live-cluster maintainer keeps one forest over its dense component IDs and
// resets it after every batch.
func (u *UF) Reset(n int) {
	if cap(u.parent) < n {
		u.parent, u.size = make([]int32, n), make([]int32, n)
	}
	u.parent, u.size, u.sets = u.parent[:n], u.size[:n], n
	for i := range u.parent {
		u.parent[i] = int32(i)
		u.size[i] = 1
	}
}

// Len returns the number of elements in the forest.
func (u *UF) Len() int { return len(u.parent) }

// Sets returns the current number of disjoint sets.
func (u *UF) Sets() int { return u.sets }

// Find returns the canonical representative of x's set.
func (u *UF) Find(x int) int {
	root := int32(x)
	for u.parent[root] != root {
		root = u.parent[root]
	}
	// Path compression.
	for int32(x) != root {
		next := u.parent[x]
		u.parent[x] = root
		x = int(next)
	}
	return int(root)
}

// Union merges the sets containing x and y and returns the representative of
// the merged set. It reports whether a merge actually happened (false when x
// and y were already in the same set).
func (u *UF) Union(x, y int) (root int, merged bool) {
	rx, ry := u.Find(x), u.Find(y)
	if rx == ry {
		return rx, false
	}
	// Union by size: attach the smaller tree under the larger.
	if u.size[rx] < u.size[ry] {
		rx, ry = ry, rx
	}
	u.parent[ry] = int32(rx)
	u.size[rx] += u.size[ry]
	u.sets--
	return rx, true
}

// Attach joins the singleton x to the set rooted at root and returns the size
// of the joined set: a Union whose outcome the caller already knows, with
// neither Find. Single-Link's δ pre-merges grow each run of a point group
// from its first point this way; Union by size would pick the same root.
func (u *UF) Attach(x, root int) int {
	u.parent[x] = int32(root)
	u.size[root]++
	u.sets--
	return int(u.size[root])
}

// SameSet reports whether x and y belong to the same set.
func (u *UF) SameSet(x, y int) bool { return u.Find(x) == u.Find(y) }

// Size returns the number of elements in x's set.
func (u *UF) Size(x int) int { return int(u.size[u.Find(x)]) }

// Grow appends one new singleton element and returns its index.
func (u *UF) Grow() int {
	i := len(u.parent)
	u.parent = append(u.parent, int32(i))
	u.size = append(u.size, 1)
	u.sets++
	return i
}

// MergeInto folds u's partition into dst: after the call, any two elements
// joined in u are joined in dst too. Only the parent edges are replayed —
// one union per non-root element — so merging a shard whose sets are mostly
// singletons costs little more than a scan. Held for benchmark/layers.go's
// unionfind.merge_ms probe; no product caller.
func (u *UF) MergeInto(dst *UF) {
	for i, p := range u.parent {
		if int32(i) != p {
			dst.Union(i, int(p))
		}
	}
}
