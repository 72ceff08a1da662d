// Package bptree implements the disk-resident B+-tree of the §4.1 storage
// architecture: a uint64 -> uint64 index stored in fixed-size pages accessed
// through a pagebuf.Pool. The store uses one tree over node IDs (adjacency
// index) and one sparse tree over first-point IDs (point-group index).
//
// The tree supports insertion, exact search, floor search (greatest key <=
// query, how a point ID resolves to its group) and ordered scans. Deletion
// is intentionally absent: the paper's networks are static and the store is
// rebuilt, not mutated.
package bptree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"netclus/internal/pagebuf"
)

const (
	magic        = 0xB9_0_7_E // "bptree"
	metaPage     = 0
	typeLeaf     = byte(0)
	typeInternal = byte(1)
	headerSize   = 3 // type byte + uint16 key count
)

// Tree is a B+-tree over one paged file.
//
// Lookups (Search, Floor, Scan) are safe for concurrent use once the tree is
// built: each call works on page scratch drawn from an internal pool, and the
// underlying pagebuf.File is itself synchronized. Mutations (Insert,
// BulkLoad) are not; the store builds its trees single-threaded and serves
// them read-only, matching the paper's static networks.
type Tree struct {
	f        *pagebuf.File
	pageSize int
	root     int64
	height   int // 1 = root is a leaf
	count    int64
	leafCap  int
	intCap   int
	bufs     sync.Pool // per-lookup page scratch (*[]byte of pageSize)
}

// ErrDuplicate is returned by Insert for keys already present.
var ErrDuplicate = errors.New("bptree: duplicate key")

func caps(pageSize int) (leafCap, intCap int) {
	// A leaf holds n 16-byte pairs plus the 8-byte sibling pointer; an
	// internal node holds n interleaved (key, child) 16-byte slots plus one
	// trailing 16-byte slot whose child half is child n.
	leafCap = (pageSize - headerSize - 8) / 16
	intCap = (pageSize-headerSize)/16 - 1
	return leafCap, intCap
}

// Create initializes an empty tree on f (which must be empty).
func Create(f *pagebuf.File, pageSize int) (*Tree, error) {
	if f.Size() != 0 {
		return nil, fmt.Errorf("bptree: create on non-empty file (%d bytes)", f.Size())
	}
	t := newTree(f, pageSize)
	// Root starts as an empty leaf on page 1.
	t.root = 1
	t.height = 1
	leaf := make([]byte, pageSize)
	leaf[0] = typeLeaf
	putLeafNext(leaf, -1)
	if err := f.WriteAt(make([]byte, pageSize), 0); err != nil { // reserve meta page
		return nil, err
	}
	if err := t.writePage(1, leaf); err != nil {
		return nil, err
	}
	if err := t.writeMeta(); err != nil {
		return nil, err
	}
	return t, nil
}

// Open loads an existing tree from f.
func Open(f *pagebuf.File, pageSize int) (*Tree, error) {
	t := newTree(f, pageSize)
	meta := make([]byte, 32)
	if err := f.ReadAt(meta, 0); err != nil {
		return nil, fmt.Errorf("bptree: reading meta: %w", err)
	}
	if binary.LittleEndian.Uint32(meta[0:]) != magic {
		return nil, fmt.Errorf("bptree: bad magic %#x", binary.LittleEndian.Uint32(meta[0:]))
	}
	t.root = int64(binary.LittleEndian.Uint64(meta[8:]))
	t.height = int(binary.LittleEndian.Uint32(meta[4:]))
	t.count = int64(binary.LittleEndian.Uint64(meta[16:]))
	// A tree of height h spans at least h pages besides the meta page, so a
	// larger height is a damaged word, not a descent to follow.
	if pages := t.allocPage(); t.root < 1 || t.height < 1 || int64(t.height) >= pages {
		return nil, fmt.Errorf("bptree: corrupt meta (root %d, height %d) in %s of %d pages", t.root, t.height, f.Name(), pages)
	}
	return t, nil
}

func newTree(f *pagebuf.File, pageSize int) *Tree {
	lc, ic := caps(pageSize)
	t := &Tree{
		f: f, pageSize: pageSize,
		leafCap: lc, intCap: ic,
	}
	t.bufs.New = func() any {
		b := make([]byte, pageSize)
		return &b
	}
	return t
}

// getBuf draws a page buffer from the per-tree pool; putBuf returns it. The
// pool holds pointers, so neither call boxes a slice header on the heap.
func (t *Tree) getBuf() *[]byte  { return t.bufs.Get().(*[]byte) }
func (t *Tree) putBuf(b *[]byte) { t.bufs.Put(b) }

// Count returns the number of keys in the tree.
func (t *Tree) Count() int64 { return t.count }

// Height returns the tree height (1 = the root is a leaf).
func (t *Tree) Height() int { return t.height }

func (t *Tree) writeMeta() error {
	meta := make([]byte, 32)
	binary.LittleEndian.PutUint32(meta[0:], magic)
	binary.LittleEndian.PutUint32(meta[4:], uint32(t.height))
	binary.LittleEndian.PutUint64(meta[8:], uint64(t.root))
	binary.LittleEndian.PutUint64(meta[16:], uint64(t.count))
	return t.f.WriteAt(meta, 0)
}

func (t *Tree) readPage(no int64, buf []byte) error {
	return t.f.ReadAt(buf[:t.pageSize], no*int64(t.pageSize))
}

func (t *Tree) writePage(no int64, buf []byte) error {
	return t.f.WriteAt(buf[:t.pageSize], no*int64(t.pageSize))
}

func (t *Tree) allocPage() int64 {
	return (t.f.Size() + int64(t.pageSize) - 1) / int64(t.pageSize)
}

// nextLeaf follows the chain from the leaf in buf, reading the next leaf into
// buf, or returns -1 at the chain's end. walked counts the leaves this walk
// has read; a chain longer than the file has pages (allocPage is the page
// count) is a cycle in a damaged file, refused rather than followed forever.
func (t *Tree) nextLeaf(buf []byte, walked *int64) (int64, error) {
	next := leafNext(buf, t.pageSize)
	if next < 0 {
		return -1, nil
	}
	if *walked++; *walked >= t.allocPage() {
		return 0, fmt.Errorf("bptree: %s: leaf chain reaches page %d after %d leaves, more than the file's %d pages (a cycle)",
			t.f.Name(), next, *walked, t.allocPage())
	}
	return next, t.readNode(next, buf, typeLeaf)
}

// Node byte layout helpers. A leaf holds nkeys (key,value) pairs followed by
// a right-sibling pointer in the final 8 bytes; an internal node holds nkeys
// separators and nkeys+1 children (child i covers keys < separator i;
// the last child covers the rest).

func nodeType(p []byte) byte { return p[0] }
func nodeKeys(p []byte) int  { return int(binary.LittleEndian.Uint16(p[1:])) }
func setNodeKeys(p []byte, n int) {
	binary.LittleEndian.PutUint16(p[1:], uint16(n))
}

func leafKey(p []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(p[headerSize+16*i:])
}
func leafVal(p []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(p[headerSize+16*i+8:])
}
func putLeafKV(p []byte, i int, k, v uint64) {
	binary.LittleEndian.PutUint64(p[headerSize+16*i:], k)
	binary.LittleEndian.PutUint64(p[headerSize+16*i+8:], v)
}
func leafNext(p []byte, pageSize int) int64 {
	return int64(binary.LittleEndian.Uint64(p[pageSize-8:]))
}
func putLeafNext(p []byte, next int64) {
	binary.LittleEndian.PutUint64(p[len(p)-8:], uint64(next))
}

func intKey(p []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(p[headerSize+16*i:])
}
func intChild(p []byte, i int) int64 {
	// children are interleaved after keys: child i sits at slot i just
	// after key i's 8 bytes; the (nkeys+1)-th child uses the slot after the
	// last key, which is why capacity reserves one extra 8-byte slot.
	return int64(binary.LittleEndian.Uint64(p[headerSize+16*i+8:]))
}
func putIntKey(p []byte, i int, k uint64) {
	binary.LittleEndian.PutUint64(p[headerSize+16*i:], k)
}
func putIntChild(p []byte, i int, c int64) {
	binary.LittleEndian.PutUint64(p[headerSize+16*i+8:], uint64(c))
}

// searchLeafSlot returns the first index with key >= k.
func searchLeafSlot(p []byte, k uint64) int {
	lo, hi := 0, nodeKeys(p)
	for lo < hi {
		mid := (lo + hi) / 2
		if leafKey(p, mid) < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childIndex returns the child to descend into for key k: the first i with
// k < separator i, else nkeys.
func childIndex(p []byte, k uint64) int {
	lo, hi := 0, nodeKeys(p)
	for lo < hi {
		mid := (lo + hi) / 2
		if k < intKey(p, mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// readNode reads page no into buf and accepts it only as a node of type typ
// whose key count fits a page, so no lookup indexes past the page on the word
// of a damaged file.
func (t *Tree) readNode(no int64, buf []byte, typ byte) error {
	if err := t.readPage(no, buf); err != nil {
		return err
	}
	limit := t.leafCap
	if typ == typeInternal {
		limit = t.intCap
	}
	if nodeType(buf) != typ || nodeKeys(buf) > limit {
		return fmt.Errorf("bptree: %s: page %d (offset %d) has type %d and %d keys, want type %d and at most %d keys",
			t.f.Name(), no, no*int64(t.pageSize), nodeType(buf), nodeKeys(buf), typ, limit)
	}
	return nil
}

// findLeaf descends to the leaf that would hold k, returning its page number
// into buf.
func (t *Tree) findLeaf(k uint64, buf []byte) (int64, error) {
	page := t.root
	for level := t.height; level > 1; level-- {
		if err := t.readNode(page, buf, typeInternal); err != nil {
			return 0, err
		}
		page = intChild(buf, childIndex(buf, k))
	}
	return page, t.readNode(page, buf, typeLeaf)
}

// Search returns the value for k.
func (t *Tree) Search(k uint64) (uint64, bool, error) {
	bufp := t.getBuf()
	defer t.putBuf(bufp)
	buf := *bufp
	if _, err := t.findLeaf(k, buf); err != nil {
		return 0, false, err
	}
	i := searchLeafSlot(buf, k)
	if i < nodeKeys(buf) && leafKey(buf, i) == k {
		return leafVal(buf, i), true, nil
	}
	return 0, false, nil
}

// Floor returns the greatest (key, value) with key <= k.
func (t *Tree) Floor(k uint64) (key, val uint64, ok bool, err error) {
	bufp := t.getBuf()
	defer t.putBuf(bufp)
	buf := *bufp
	page, err := t.findLeaf(k, buf)
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
	// k is smaller than every key in this leaf. Because separators are
	// copied up on splits, a smaller key can only live in a left sibling
	// when this leaf is the leftmost of its subtree; walking leaves from
	// the far left is wasteful, so instead re-descend for k-1 windows is
	// also wasteful — the simple correct answer: if this is the global
	// leftmost leaf there is no floor, otherwise descend again biased left.
	_ = page
	return t.floorSlow(k, buf)
}

// floorSlow scans leaves from the left up to k. It only runs when k sorts
// before the leaf chosen by the separators, which with copied-up separators
// means k is smaller than the smallest key of its leaf; the true floor is
// then the largest key of the previous non-empty leaf.
func (t *Tree) floorSlow(k uint64, buf []byte) (uint64, uint64, bool, error) {
	page, err := t.leftmostLeaf(buf)
	if err != nil {
		return 0, 0, false, err
	}
	if err := t.readNode(page, buf, typeLeaf); err != nil {
		return 0, 0, false, err
	}
	haveKey, haveVal, have := uint64(0), uint64(0), false
	for walked := int64(0); page >= 0; {
		n := nodeKeys(buf)
		if n > 0 && leafKey(buf, 0) > k {
			break
		}
		for i := 0; i < n && leafKey(buf, i) <= k; i++ {
			haveKey, haveVal, have = leafKey(buf, i), leafVal(buf, i), true
		}
		if page, err = t.nextLeaf(buf, &walked); err != nil {
			return 0, 0, false, err
		}
	}
	return haveKey, haveVal, have, nil
}

func (t *Tree) leftmostLeaf(buf []byte) (int64, error) {
	page := t.root
	for level := t.height; level > 1; level-- {
		if err := t.readNode(page, buf, typeInternal); err != nil {
			return 0, err
		}
		page = intChild(buf, 0)
	}
	return page, nil
}

// Scan calls fn for every (key, value) with key >= from, in ascending key
// order, until fn returns false or an error.
func (t *Tree) Scan(from uint64, fn func(k, v uint64) (bool, error)) error {
	bufp := t.getBuf()
	defer t.putBuf(bufp)
	buf := *bufp
	if _, err := t.findLeaf(from, buf); err != nil {
		return err
	}
	i := searchLeafSlot(buf, from)
	for walked := int64(0); ; {
		for ; i < nodeKeys(buf); i++ {
			cont, err := fn(leafKey(buf, i), leafVal(buf, i))
			if err != nil {
				return err
			}
			if !cont {
				return nil
			}
		}
		next, err := t.nextLeaf(buf, &walked)
		if next < 0 || err != nil {
			return err
		}
		i = 0
	}
}

// Insert adds (k, v); inserting an existing key returns ErrDuplicate.
func (t *Tree) Insert(k, v uint64) error {
	promoted, right, split, err := t.insertInto(t.root, t.height, k, v)
	if err != nil {
		return err
	}
	if split {
		// Grow a new root.
		newRoot := t.allocPage()
		page := make([]byte, t.pageSize)
		page[0] = typeInternal
		setNodeKeys(page, 1)
		putIntChild(page, 0, t.root)
		putIntKey(page, 0, promoted)
		putIntChild(page, 1, right)
		if err := t.writePage(newRoot, page); err != nil {
			return err
		}
		t.root = newRoot
		t.height++
	}
	t.count++
	return t.writeMeta()
}

// insertInto inserts (k, v) under page at the given level. When the child
// splits it returns the promoted separator and new right page.
func (t *Tree) insertInto(page int64, level int, k, v uint64) (promoted uint64, right int64, split bool, err error) {
	node := make([]byte, t.pageSize)
	if err := t.readPage(page, node); err != nil {
		return 0, 0, false, err
	}
	if level == 1 {
		return t.insertLeaf(page, node, k, v)
	}
	ci := childIndex(node, k)
	child := intChild(node, ci)
	p, r, s, err := t.insertInto(child, level-1, k, v)
	if err != nil || !s {
		return 0, 0, false, err
	}
	// Insert separator p with right child r at position ci.
	n := nodeKeys(node)
	if n < t.intCap {
		// Shift the interleaved (key, child) slots from key ci through
		// child n one slot right; child ci (the first 8 bytes after key
		// ci) is below the destination and stays put.
		start := headerSize + 16*ci
		copy(node[start+16:], node[start:headerSize+16*n+16])
		putIntKey(node, ci, p)
		putIntChild(node, ci+1, r)
		setNodeKeys(node, n+1)
		return 0, 0, false, t.writePage(page, node)
	}
	// Split the internal node: temporarily materialize n+1 keys.
	keys := make([]uint64, 0, n+1)
	children := make([]int64, 0, n+2)
	children = append(children, intChild(node, 0))
	for i := 0; i < n; i++ {
		keys = append(keys, intKey(node, i))
		children = append(children, intChild(node, i+1))
	}
	keys = append(keys[:ci], append([]uint64{p}, keys[ci:]...)...)
	children = append(children[:ci+1], append([]int64{r}, children[ci+1:]...)...)
	mid := len(keys) / 2
	promoted = keys[mid]
	// Left keeps keys[:mid], children[:mid+1]; right gets keys[mid+1:],
	// children[mid+1:].
	writeInternal := func(pg int64, ks []uint64, cs []int64) error {
		buf := make([]byte, t.pageSize)
		buf[0] = typeInternal
		setNodeKeys(buf, len(ks))
		putIntChild(buf, 0, cs[0])
		for i, kk := range ks {
			putIntKey(buf, i, kk)
			putIntChild(buf, i+1, cs[i+1])
		}
		return t.writePage(pg, buf)
	}
	rightPage := t.allocPage()
	if err := writeInternal(rightPage, keys[mid+1:], children[mid+1:]); err != nil {
		return 0, 0, false, err
	}
	if err := writeInternal(page, keys[:mid], children[:mid+1]); err != nil {
		return 0, 0, false, err
	}
	return promoted, rightPage, true, nil
}

func (t *Tree) insertLeaf(page int64, node []byte, k, v uint64) (promoted uint64, right int64, split bool, err error) {
	i := searchLeafSlot(node, k)
	n := nodeKeys(node)
	if i < n && leafKey(node, i) == k {
		return 0, 0, false, fmt.Errorf("%w: %d", ErrDuplicate, k)
	}
	if n < t.leafCap {
		copy(node[headerSize+16*(i+1):], node[headerSize+16*i:headerSize+16*n])
		putLeafKV(node, i, k, v)
		setNodeKeys(node, n+1)
		return 0, 0, false, t.writePage(page, node)
	}
	// Split the leaf.
	keys := make([]uint64, 0, n+1)
	vals := make([]uint64, 0, n+1)
	for j := 0; j < n; j++ {
		keys = append(keys, leafKey(node, j))
		vals = append(vals, leafVal(node, j))
	}
	keys = append(keys[:i], append([]uint64{k}, keys[i:]...)...)
	vals = append(vals[:i], append([]uint64{v}, vals[i:]...)...)
	mid := len(keys) / 2

	rightPage := t.allocPage()
	rbuf := make([]byte, t.pageSize)
	rbuf[0] = typeLeaf
	setNodeKeys(rbuf, len(keys)-mid)
	for j := mid; j < len(keys); j++ {
		putLeafKV(rbuf, j-mid, keys[j], vals[j])
	}
	putLeafNext(rbuf, leafNext(node, t.pageSize))
	if err := t.writePage(rightPage, rbuf); err != nil {
		return 0, 0, false, err
	}

	lbuf := make([]byte, t.pageSize)
	lbuf[0] = typeLeaf
	setNodeKeys(lbuf, mid)
	for j := 0; j < mid; j++ {
		putLeafKV(lbuf, j, keys[j], vals[j])
	}
	putLeafNext(lbuf, rightPage)
	if err := t.writePage(page, lbuf); err != nil {
		return 0, 0, false, err
	}
	return keys[mid], rightPage, true, nil
}

// BulkLoad builds the tree from pairs sorted by strictly ascending key,
// packing leaves bottom-up. The tree must be freshly created and empty.
func (t *Tree) BulkLoad(keys, vals []uint64) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("bptree: %d keys vs %d values", len(keys), len(vals))
	}
	if t.count != 0 {
		return fmt.Errorf("bptree: bulk load into non-empty tree")
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			return fmt.Errorf("bptree: bulk-load keys not strictly ascending at %d", i)
		}
	}
	if len(keys) == 0 {
		return nil
	}
	// Fill leaves to ~90% so later inserts don't immediately split.
	per := t.leafCap * 9 / 10
	if per < 1 {
		per = 1
	}
	type sep struct {
		key  uint64
		page int64
	}
	var level []sep
	var prevLeaf int64 = -1
	var prevBuf []byte
	for i := 0; i < len(keys); i += per {
		j := i + per
		if j > len(keys) {
			j = len(keys)
		}
		pg := t.allocPage()
		buf := make([]byte, t.pageSize)
		buf[0] = typeLeaf
		setNodeKeys(buf, j-i)
		for x := i; x < j; x++ {
			putLeafKV(buf, x-i, keys[x], vals[x])
		}
		putLeafNext(buf, -1)
		if err := t.writePage(pg, buf); err != nil {
			return err
		}
		if prevLeaf >= 0 {
			putLeafNext(prevBuf, pg)
			if err := t.writePage(prevLeaf, prevBuf); err != nil {
				return err
			}
		}
		prevLeaf, prevBuf = pg, buf
		level = append(level, sep{key: keys[i], page: pg})
	}
	height := 1
	for len(level) > 1 {
		perInt := t.intCap * 9 / 10
		if perInt < 2 {
			perInt = 2
		}
		var up []sep
		for i := 0; i < len(level); i += perInt {
			j := i + perInt
			if j > len(level) {
				j = len(level)
			}
			pg := t.allocPage()
			buf := make([]byte, t.pageSize)
			buf[0] = typeInternal
			setNodeKeys(buf, j-i-1)
			putIntChild(buf, 0, level[i].page)
			for x := i + 1; x < j; x++ {
				putIntKey(buf, x-i-1, level[x].key)
				putIntChild(buf, x-i, level[x].page)
			}
			if err := t.writePage(pg, buf); err != nil {
				return err
			}
			up = append(up, sep{key: level[i].key, page: pg})
		}
		level = up
		height++
	}
	t.root = level[0].page
	t.height = height
	t.count = int64(len(keys))
	return t.writeMeta()
}
