package bptree

// LeafHint caches the last leaf one reader visited: a private copy of the
// leaf's page plus its fence keys (smallest and largest key stored in it).
// Because the tree is read-only once built and keys ascend across the leaf
// chain, any lookup whose key falls inside the fences is answered entirely
// from the cached page — no index descent, no buffer-pool traffic. Keys
// outside the fences re-descend and refresh the hint.
//
// A LeafHint belongs to one goroutine (it is the per-view analogue of the
// store's decode buffers); the zero value is ready to use.
type LeafHint struct {
	buf    []byte
	lo, hi uint64
	valid  bool

	// Hits and Misses count lookups served from the cached leaf vs lookups
	// that had to re-descend. Plain fields: a hint is single-goroutine.
	Hits, Misses int64
}

// covers reports whether the cached leaf definitively answers key k.
func (h *LeafHint) covers(k uint64) bool {
	return h.valid && h.lo <= k && k <= h.hi
}

// refresh descends to the leaf for k and caches it in h. It returns the
// cached page bytes.
func (t *Tree) refresh(k uint64, h *LeafHint) ([]byte, error) {
	if len(h.buf) < t.pageSize {
		h.buf = make([]byte, t.pageSize)
	}
	h.valid = false
	if _, err := t.findLeaf(k, h.buf); err != nil {
		return nil, err
	}
	if n := nodeKeys(h.buf); n > 0 {
		h.lo = leafKey(h.buf, 0)
		h.hi = leafKey(h.buf, n-1)
		h.valid = true
	}
	return h.buf, nil
}

// SearchHint is Search through a leaf hint: when k lies within the hinted
// leaf's fence keys the lookup touches no pages at all; otherwise it descends
// once and re-arms the hint.
func (t *Tree) SearchHint(k uint64, h *LeafHint) (uint64, bool, error) {
	buf := h.buf
	if h.covers(k) {
		h.Hits++
	} else {
		h.Misses++
		var err error
		if buf, err = t.refresh(k, h); err != nil {
			return 0, false, err
		}
	}
	i := searchLeafSlot(buf, k)
	if i < nodeKeys(buf) && leafKey(buf, i) == k {
		return leafVal(buf, i), true, nil
	}
	return 0, false, nil
}

// FloorHint is Floor through a leaf hint. A hinted hit never needs the
// slow left-scan: lo <= k guarantees a predecessor inside the cached leaf.
func (t *Tree) FloorHint(k uint64, h *LeafHint) (key, val uint64, ok bool, err error) {
	if h.covers(k) {
		h.Hits++
		i := searchLeafSlot(h.buf, k)
		if i < nodeKeys(h.buf) && leafKey(h.buf, i) == k {
			return k, leafVal(h.buf, i), true, nil
		}
		// lo <= k and k is not the first key, so slot i-1 exists.
		return leafKey(h.buf, i-1), leafVal(h.buf, i-1), true, nil
	}
	h.Misses++
	buf, err := t.refresh(k, h)
	if err != nil {
		return 0, 0, false, err
	}
	i := searchLeafSlot(buf, k)
	if i < nodeKeys(buf) && leafKey(buf, i) == k {
		return k, leafVal(buf, i), true, nil
	}
	if i > 0 {
		return leafKey(buf, i-1), leafVal(buf, i-1), true, nil
	}
	// k sorts before every key of its leaf; fall back to the left-to-right
	// scan with separate scratch so the hinted page stays intact.
	scratch := t.getBuf()
	defer t.putBuf(scratch)
	return t.floorSlow(k, *scratch)
}
