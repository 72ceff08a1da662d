// Package storage implements the paper's §4.1 disk-based network
// representation: an adjacency-list flat file and a points flat file, each
// indexed by B+-trees, all accessed through a shared LRU buffer pool.
//
// Layout of a store directory:
//
//	meta.bin  - fixed-size header: magic, page size, |V|, |E|, N, #groups,
//	            format (2; the word is 0 in format-1 stores, whose pts.idx
//	            held record offsets — Open refuses them, rebuild instead)
//	adj.dat   - one record per node, packed in BFS (connectivity) order:
//	            [deg u32] then deg x [adjNode u32, group i32, weight f64]
//	adj.idx   - B+-tree: node ID -> byte offset of its adjacency record
//	pts.dat   - one record per point group, in group (edge-key) order:
//	            [n1 u32, n2 u32, count u32, first u32, weight f64]
//	            then count x [offset f64, tag i32]
//	grp.idx   - B+-tree: group ID -> byte offset of its record
//	pts.idx   - sparse B+-tree: first point ID of a group -> group ID
//	            (resolves an arbitrary point ID by floor search, §4.1; the
//	            group's record is then found the way Group finds it)
//
// The BFS packing order plays the role of CCAM's connectivity clustering:
// adjacent nodes land on nearby pages, so traversals fault fewer pages than
// an arbitrary order would (see the storage ablation benchmark).
//
// Store implements network.Graph, so every clustering algorithm runs
// unmodified over it; pool statistics expose the I/O behaviour. With the
// record caches on (the default), Open also reads the leaf level of each
// index once into flat offset tables, so a lookup indexes an array instead
// of descending a tree; DisableRecordCaches keeps the paper's descents.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"

	"netclus/internal/bptree"
	"netclus/internal/network"
	"netclus/internal/pagebuf"
)

const (
	metaMagic   = 0x4E43_5354 // "NCST"
	metaSize    = 4 * 8
	metaFormat  = 2 // meta word 6; format 1 (word 0) mapped pts.idx to record offsets
	adjHeader   = 4
	adjEntry    = 16
	groupHeader = 4*4 + 8
	pointEntry  = 12
)

// Layout selects the physical order of adjacency records in adj.dat.
type Layout string

const (
	// LayoutBFS packs nodes in breadth-first order — the CCAM-flavoured
	// connectivity clustering (default).
	LayoutBFS Layout = "bfs"
	// LayoutNodeID packs nodes in node-ID order.
	LayoutNodeID Layout = "nodeid"
	// LayoutRandom packs nodes in a shuffled order — the worst-case
	// baseline of the storage ablation.
	LayoutRandom Layout = "random"
)

// Options configure building and opening a store.
type Options struct {
	// PageSize is the page size of every file (default 4096, the paper's).
	PageSize int
	// BufferBytes is the shared buffer-pool size (default 1 MB, the
	// paper's).
	BufferBytes int
	// Layout is the adjacency packing order (default LayoutBFS). Only
	// meaningful for Build.
	Layout Layout
	// AdjCacheEntries bounds the decoded adjacency cache in entries
	// (0 = DefaultAdjCacheEntries, negative = disabled). The cache is
	// direct-mapped over the bound rounded down to a power of two. Only
	// meaningful for Open.
	AdjCacheEntries int
	// GroupCacheEntries bounds the decoded group cache in entries
	// (0 = DefaultGroupCacheEntries, negative = disabled), rounded down to a
	// power of two like AdjCacheEntries. Only meaningful for Open.
	GroupCacheEntries int
	// DisableRecordCaches turns off both decoded-record caches and the
	// offset tables Open loads from the indexes' leaf levels, restoring the
	// paper's original access path where every read descends an index and
	// decodes from the page buffer.
	// Benchmarks and the cache-invariant tests use it as the baseline.
	DisableRecordCaches bool
}

func (o Options) withDefaults() Options {
	if o.PageSize == 0 {
		o.PageSize = pagebuf.DefaultPageSize
	}
	if o.BufferBytes == 0 {
		o.BufferBytes = pagebuf.DefaultBufferBytes
	}
	return o
}

// Build materializes n into a store under dir (which must exist).
func Build(dir string, n *network.Network, opts Options) error {
	opts = opts.withDefaults()
	pool, err := pagebuf.NewPool(opts.BufferBytes, opts.PageSize)
	if err != nil {
		return err
	}

	// Adjacency file in the configured packing order.
	var order []network.NodeID
	switch opts.Layout {
	case "", LayoutBFS:
		if order, err = bfsOrder(n); err != nil {
			return err
		}
	case LayoutNodeID:
		order = make([]network.NodeID, n.NumNodes())
		for i := range order {
			order[i] = network.NodeID(i)
		}
	case LayoutRandom:
		order = make([]network.NodeID, n.NumNodes())
		for i := range order {
			order[i] = network.NodeID(i)
		}
		// Deterministic shuffle (Fisher-Yates with a fixed LCG) so stores
		// are reproducible without a randomness dependency here.
		state := uint64(0x9E3779B97F4A7C15)
		for i := len(order) - 1; i > 0; i-- {
			state = state*6364136223846793005 + 1442695040888963407
			j := int(state % uint64(i+1))
			order[i], order[j] = order[j], order[i]
		}
	default:
		return fmt.Errorf("storage: unknown layout %q", opts.Layout)
	}
	adjF, err := pool.Open(filepath.Join(dir, "adj.dat"))
	if err != nil {
		return err
	}
	defer adjF.Close()
	nodeOff := make([]uint64, n.NumNodes())
	var rec []byte
	for _, node := range order {
		adj, err := n.Neighbors(node)
		if err != nil {
			return err
		}
		need := adjHeader + adjEntry*len(adj)
		if err := checkDataSize("adj.dat", adjF.Size()+int64(need)); err != nil {
			return err
		}
		if cap(rec) < need {
			rec = make([]byte, need)
		}
		rec = rec[:need]
		binary.LittleEndian.PutUint32(rec[0:], uint32(len(adj)))
		for i, nb := range adj {
			at := adjHeader + adjEntry*i
			binary.LittleEndian.PutUint32(rec[at:], uint32(nb.Node))
			binary.LittleEndian.PutUint32(rec[at+4:], uint32(nb.Group))
			binary.LittleEndian.PutUint64(rec[at+8:], floatBits(nb.Weight))
		}
		off, err := adjF.Append(rec)
		if err != nil {
			return err
		}
		nodeOff[node] = uint64(off)
	}

	adjIdxF, err := pool.Open(filepath.Join(dir, "adj.idx"))
	if err != nil {
		return err
	}
	defer adjIdxF.Close()
	adjIdx, err := bptree.Create(adjIdxF, opts.PageSize)
	if err != nil {
		return err
	}
	keys := make([]uint64, n.NumNodes())
	for i := range keys {
		keys[i] = uint64(i)
	}
	if err := adjIdx.BulkLoad(keys, nodeOff); err != nil {
		return err
	}

	// Points file in group order.
	ptsF, err := pool.Open(filepath.Join(dir, "pts.dat"))
	if err != nil {
		return err
	}
	defer ptsF.Close()
	var grpKeys, grpVals, firstKeys []uint64
	err = n.ScanGroups(func(g network.GroupID, pg network.PointGroup, offsets []float64) error {
		need := groupHeader + pointEntry*len(offsets)
		if err := checkDataSize("pts.dat", ptsF.Size()+int64(need)); err != nil {
			return err
		}
		if cap(rec) < need {
			rec = make([]byte, need)
		}
		rec = rec[:need]
		binary.LittleEndian.PutUint32(rec[0:], uint32(pg.N1))
		binary.LittleEndian.PutUint32(rec[4:], uint32(pg.N2))
		binary.LittleEndian.PutUint32(rec[8:], uint32(pg.Count))
		binary.LittleEndian.PutUint32(rec[12:], uint32(pg.First))
		binary.LittleEndian.PutUint64(rec[16:], floatBits(pg.Weight))
		for i, off := range offsets {
			at := groupHeader + pointEntry*i
			binary.LittleEndian.PutUint64(rec[at:], floatBits(off))
			binary.LittleEndian.PutUint32(rec[at+8:], uint32(n.Tag(pg.First+network.PointID(i))))
		}
		off, err := ptsF.Append(rec)
		if err != nil {
			return err
		}
		grpKeys = append(grpKeys, uint64(g))
		grpVals = append(grpVals, uint64(off))
		firstKeys = append(firstKeys, uint64(pg.First))
		return nil
	})
	if err != nil {
		return err
	}

	grpIdxF, err := pool.Open(filepath.Join(dir, "grp.idx"))
	if err != nil {
		return err
	}
	defer grpIdxF.Close()
	grpIdx, err := bptree.Create(grpIdxF, opts.PageSize)
	if err != nil {
		return err
	}
	if err := grpIdx.BulkLoad(grpKeys, grpVals); err != nil {
		return err
	}
	ptsIdxF, err := pool.Open(filepath.Join(dir, "pts.idx"))
	if err != nil {
		return err
	}
	defer ptsIdxF.Close()
	ptsIdx, err := bptree.Create(ptsIdxF, opts.PageSize)
	if err != nil {
		return err
	}
	if err := ptsIdx.BulkLoad(firstKeys, grpKeys); err != nil {
		return err
	}

	// Meta header.
	metaF, err := pool.Open(filepath.Join(dir, "meta.bin"))
	if err != nil {
		return err
	}
	defer metaF.Close()
	meta := make([]byte, metaSize)
	binary.LittleEndian.PutUint32(meta[0:], metaMagic)
	binary.LittleEndian.PutUint32(meta[4:], uint32(opts.PageSize))
	binary.LittleEndian.PutUint32(meta[8:], uint32(n.NumNodes()))
	binary.LittleEndian.PutUint32(meta[12:], uint32(n.NumEdges()))
	binary.LittleEndian.PutUint32(meta[16:], uint32(n.NumPoints()))
	binary.LittleEndian.PutUint32(meta[20:], uint32(n.NumGroups()))
	binary.LittleEndian.PutUint32(meta[24:], metaFormat)
	return metaF.WriteAt(meta, 0)
}

// maxDataBytes bounds adj.dat and pts.dat: the offset tables Open loads hold
// record offsets as uint32.
const maxDataBytes = 1 << 32

// checkDataSize refuses a data file that would grow to end bytes, past what a
// uint32 record offset addresses.
func checkDataSize(name string, end int64) error {
	if end > maxDataBytes {
		return fmt.Errorf("storage: %s would grow to %d bytes, past the 4 GiB a uint32 record offset addresses", name, end)
	}
	return nil
}

// bfsOrder returns the nodes in breadth-first order from node 0, visiting
// every component.
func bfsOrder(n *network.Network) ([]network.NodeID, error) {
	seen := make([]bool, n.NumNodes())
	order := make([]network.NodeID, 0, n.NumNodes())
	var queue []network.NodeID
	for s := 0; s < n.NumNodes(); s++ {
		if seen[s] {
			continue
		}
		seen[s] = true
		queue = append(queue[:0], network.NodeID(s))
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			order = append(order, u)
			adj, err := n.Neighbors(u)
			if err != nil {
				return nil, err
			}
			for _, nb := range adj {
				if !seen[nb.Node] {
					seen[nb.Node] = true
					queue = append(queue, nb.Node)
				}
			}
		}
	}
	return order, nil
}

// ErrClosed is returned by queries on a Store after Close.
var ErrClosed = errors.New("storage: store closed")

// ErrCorrupt is wrapped by every error for a decoded value that no Build
// writes: an edge weight that is not finite and > 0, or a point offset
// outside [0, W] or out of ascending order — the values the .ncs loader and
// network.Builder refuse — and, with the record caches on, by Open's refusal
// of an index whose leaf level no Build writes.
var ErrCorrupt = errors.New("storage: corrupt record")

// storeShared is the state common to every read view of one opened store:
// the buffer pool, files, indexes, counts, offset tables and the
// decoded-record caches. It is safe for concurrent use (the pool is latched,
// the caches are lock-free, the tables are read-only, the B+-tree lookups
// draw per-call scratch).
type storeShared struct {
	pool   *pagebuf.Pool
	adjF   *pagebuf.File
	ptsF   *pagebuf.File
	adjIdx *bptree.Tree
	grpIdx *bptree.Tree
	ptsIdx *bptree.Tree
	files  []*pagebuf.File

	nodes, edges, points, groups int

	// The indexes' leaf levels, read once at Open (nil when the record
	// caches are disabled): adjOff[node] and grpOff[group] are record
	// offsets in adj.dat and pts.dat, first[group] the group's first point.
	adjOff, grpOff, first []uint32

	// Decoded-record caches above the page buffer (nil when disabled).
	// Cached values are immutable and shared by every view.
	adjCache *recCache[[]network.Neighbor]
	grpCache *recCache[groupRec]

	closed atomic.Bool
}

// groupRec is a group-cache entry: the record's file offset, its header and,
// once some view has decoded them, its point offsets (nil until then; never
// mutated afterwards — a fresh entry replaces it).
type groupRec struct {
	off     int64
	pg      network.PointGroup
	offsets []float64
}

// Store is the disk-backed network.Graph.
//
// Concurrency contract: the store's pool, files and indexes are internally
// synchronized, but each *Store value carries its own decode buffers, and
// Neighbors/GroupOffsets return slices backed by them (valid until the next
// call on the same value). One *Store value therefore belongs to one
// goroutine at a time; for concurrent queries give every goroutine its own
// view from Reader() — views are cheap (a struct and a few lazily grown
// slices) and share the buffer pool, so the paper's 1 MB memory budget still
// holds across all of them.
type Store struct {
	sh *storeShared

	hdr [groupHeader]byte
	// Raw-byte scratch is split per file: Neighbors fills adjPayload (for a
	// record that straddles a page) while readPoints fills ptsPayload, so an
	// interleaved GroupOffsets between a Neighbors call and the use of its
	// result cannot clobber the bytes being decoded (see
	// TestInterleavedScratch).
	adjPayload []byte
	ptsPayload []byte
	nbrBuf     []network.Neighbor
	offBuf     []float64
	scanBuf    []float64
	scratch4   [4]byte
}

var _ network.Graph = (*Store)(nil)

// Open opens the store under dir. Pass zero Options for the paper's
// defaults (4 KB pages, 1 MB buffer).
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	pool, err := pagebuf.NewPool(opts.BufferBytes, opts.PageSize)
	if err != nil {
		return nil, err
	}
	sh := &storeShared{pool: pool}
	idxPool := pool
	if !opts.DisableRecordCaches {
		adjEntries := opts.AdjCacheEntries
		if adjEntries == 0 {
			adjEntries = DefaultAdjCacheEntries
		}
		grpEntries := opts.GroupCacheEntries
		if grpEntries == 0 {
			grpEntries = DefaultGroupCacheEntries
		}
		sh.adjCache = newRecCache[[]network.Neighbor](adjEntries)
		sh.grpCache = newRecCache[groupRec](grpEntries)
		// The indexes are read once, into the offset tables, through a
		// private one-frame pool: loading them neither counts traffic in nor
		// leaves frames behind in the store's buffer.
		if idxPool, err = pagebuf.NewPool(opts.PageSize, opts.PageSize); err != nil {
			return nil, err
		}
	}
	s := &Store{sh: sh}
	open := func(pool *pagebuf.Pool, name string) (*pagebuf.File, error) {
		f, err := pool.Open(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		sh.files = append(sh.files, f)
		return f, nil
	}
	fail := func(err error) (*Store, error) {
		s.Close()
		return nil, err
	}

	metaF, err := open(pool, "meta.bin")
	if err != nil {
		return fail(err)
	}
	meta := make([]byte, metaSize)
	if err := metaF.ReadAt(meta, 0); err != nil {
		return fail(fmt.Errorf("storage: reading meta: %w", err))
	}
	if binary.LittleEndian.Uint32(meta[0:]) != metaMagic {
		return fail(fmt.Errorf("storage: %s is not a netclus store", dir))
	}
	if ps := int(binary.LittleEndian.Uint32(meta[4:])); ps != opts.PageSize {
		return fail(fmt.Errorf("storage: store built with page size %d, opened with %d", ps, opts.PageSize))
	}
	if v := binary.LittleEndian.Uint32(meta[24:]); v != metaFormat {
		// Format 1 predates the word (it reads 0) and kept record offsets in pts.idx.
		return fail(fmt.Errorf("storage: %s is a format-%d store and this build reads only format %d: rebuild it with `netclus store` or BuildStore",
			dir, max(v, 1), metaFormat))
	}
	sh.nodes = int(binary.LittleEndian.Uint32(meta[8:]))
	sh.edges = int(binary.LittleEndian.Uint32(meta[12:]))
	sh.points = int(binary.LittleEndian.Uint32(meta[16:]))
	sh.groups = int(binary.LittleEndian.Uint32(meta[20:]))

	if sh.adjF, err = open(pool, "adj.dat"); err != nil {
		return fail(err)
	}
	if sh.ptsF, err = open(pool, "pts.dat"); err != nil {
		return fail(err)
	}
	var idxBytes [3]int64
	for i, idx := range []struct {
		name string
		t    **bptree.Tree
	}{{"adj.idx", &sh.adjIdx}, {"grp.idx", &sh.grpIdx}, {"pts.idx", &sh.ptsIdx}} {
		f, err := open(idxPool, idx.name)
		if err != nil {
			return fail(err)
		}
		if *idx.t, err = bptree.Open(f, opts.PageSize); err != nil {
			return fail(fmt.Errorf("storage: %s: %w", idx.name, err))
		}
		idxBytes[i] = f.Size()
	}
	if !opts.DisableRecordCaches {
		if err := sh.loadTables(idxBytes); err != nil {
			return fail(err)
		}
	}
	return s, nil
}

// loadTables reads the leaf level of each index (adj.idx, grp.idx and
// pts.idx, of idxBytes bytes) into the offset tables, refusing one that no
// Build writes: adj.idx and grp.idx must map exactly 0…n−1 to records inside
// their data files, and pts.idx must map strictly ascending first points,
// from 0 and below N, to exactly the groups 0…groups−1. A leaf pair takes 16
// bytes, so meta counts the index files cannot hold are refused before
// anything is sized by them; one allocation then holds all three tables.
func (sh *storeShared) loadTables(idxBytes [3]int64) error {
	nodes, groups := sh.nodes, sh.groups
	if int64(nodes) > idxBytes[0]/16 || int64(groups) > min(idxBytes[1], idxBytes[2])/16 {
		return fmt.Errorf("%w: meta.bin counts %d nodes and %d groups, more than the indexes hold", ErrCorrupt, nodes, groups)
	}
	tabs := make([]uint32, nodes+2*groups)
	adjOff, grpOff, first := tabs[:nodes:nodes], tabs[nodes:nodes+groups:nodes+groups], tabs[nodes+groups:]
	offset := func(dat string, size, header int64) func(i int, k, v uint64) (uint32, error) {
		return func(i int, k, v uint64) (uint32, error) {
			if k != uint64(i) || size < header || v > uint64(size-header) || v > math.MaxUint32 {
				return 0, fmt.Errorf("pair %d maps key %d to offset %d, want key %d at a record inside %s's %d bytes", i, k, v, i, dat, size)
			}
			return uint32(v), nil
		}
	}
	if err := readTable(sh.adjIdx, "adj.idx", adjOff, offset("adj.dat", sh.adjF.Size(), adjHeader)); err != nil {
		return err
	}
	if err := readTable(sh.grpIdx, "grp.idx", grpOff, offset("pts.dat", sh.ptsF.Size(), groupHeader)); err != nil {
		return err
	}
	err := readTable(sh.ptsIdx, "pts.idx", first, func(i int, k, v uint64) (uint32, error) {
		if i == 0 && k != 0 || i > 0 && k <= uint64(first[i-1]) || k >= uint64(sh.points) || v != uint64(i) {
			return 0, fmt.Errorf("pair %d maps point %d to group %d, want group %d at a first point ascending from 0 below %d", i, k, v, i, sh.points)
		}
		return uint32(k), nil
	})
	if err != nil {
		return err
	}
	sh.adjOff, sh.grpOff, sh.first = adjOff, grpOff, first
	return nil
}

// readTable fills tab from the leaf level of index t (the file name), scanned
// in key order: check turns pair i into its entry or refuses it, and the index
// must hold exactly len(tab) pairs. Every error wraps ErrCorrupt.
func readTable(t *bptree.Tree, name string, tab []uint32, check func(i int, k, v uint64) (uint32, error)) error {
	i := 0
	err := t.Scan(0, func(k, v uint64) (bool, error) {
		if i == len(tab) {
			return false, fmt.Errorf("more than the %d pairs meta.bin counts", len(tab))
		}
		e, err := check(i, k, v)
		tab[i] = e
		i++
		return err == nil, err
	})
	if err == nil && i != len(tab) {
		err = fmt.Errorf("%d pairs, meta.bin counts %d", i, len(tab))
	}
	if err != nil {
		return fmt.Errorf("%w: %s: %w", ErrCorrupt, name, err)
	}
	return nil
}

// Reader returns an independent read view of the store for use by one
// goroutine: it shares the buffer pool, files and indexes but owns its
// decode buffers. Closing any view closes the whole store.
func (s *Store) Reader() *Store { return &Store{sh: s.sh} }

// checkOpen guards every query against use after Close.
func (s *Store) checkOpen() error {
	if s.sh.closed.Load() {
		return ErrClosed
	}
	return nil
}

// closedErr rewrites I/O failures caused by a concurrent Close into
// ErrClosed. A query that passed checkOpen can still lose the race against
// Close and hit a closed page file mid-traversal; its callers are promised
// ErrClosed, not a wrapped os.ErrClosed from whichever page it was touching.
func (s *Store) closedErr(err error) error {
	if err == nil {
		return nil
	}
	if s.sh.closed.Load() || errors.Is(err, pagebuf.ErrClosed) || errors.Is(err, os.ErrClosed) {
		return ErrClosed
	}
	return err
}

// Close closes every file of the store. All views share the closed state;
// queries on any view return ErrClosed afterwards. Close is idempotent.
func (s *Store) Close() error {
	if s.sh.closed.Swap(true) {
		return nil
	}
	var first error
	for _, f := range s.sh.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Stats returns the buffer pool's traffic counters.
func (s *Store) Stats() pagebuf.Stats { return s.sh.pool.Stats() }

// CacheStats returns the decoded-record cache counters (adjacency cache,
// group cache), aggregated over every view of the store. All zeros when the
// caches are disabled.
func (s *Store) CacheStats() CacheStats {
	var cs CacheStats
	if c := s.sh.adjCache; c != nil {
		cs.AdjHits = c.cnt.hits.Load()
		cs.AdjMisses = c.cnt.misses.Load()
		cs.AdjEvictions = c.cnt.evictions.Load()
	}
	if c := s.sh.grpCache; c != nil {
		cs.GroupHits = c.cnt.hits.Load()
		cs.GroupMisses = c.cnt.misses.Load()
		cs.GroupEvictions = c.cnt.evictions.Load()
	}
	return cs
}

// lookup returns key k's value in index t: an array read when the offset
// tables are loaded, the paper's descent otherwise.
func lookup(tab []uint32, t *bptree.Tree, name string, k uint64) (uint64, error) {
	if tab != nil {
		return uint64(tab[k]), nil
	}
	v, ok, err := t.Search(k)
	if err == nil && !ok {
		err = fmt.Errorf("storage: key %d missing from %s", k, name)
	}
	return v, err
}

// BufferStats returns the buffer pool's traffic counters (an alias of Stats
// matching the public netclus surface).
func (s *Store) BufferStats() pagebuf.Stats { return s.sh.pool.Stats() }

// ResetStats zeroes the buffer pool's traffic counters.
func (s *Store) ResetStats() { s.sh.pool.ResetStats() }

// NumNodes returns |V|.
func (s *Store) NumNodes() int { return s.sh.nodes }

// NumEdges returns |E|.
func (s *Store) NumEdges() int { return s.sh.edges }

// NumPoints returns N.
func (s *Store) NumPoints() int { return s.sh.points }

// NumGroups returns the number of point groups.
func (s *Store) NumGroups() int { return s.sh.groups }

// Neighbors reads node id's adjacency record. The returned slice is valid
// until the next Neighbors call on this view and must not be modified (with
// the record caches enabled it is shared by every view).
func (s *Store) Neighbors(id network.NodeID) ([]network.Neighbor, error) {
	if err := s.checkOpen(); err != nil {
		return nil, err
	}
	if id < 0 || int(id) >= s.sh.nodes {
		return nil, fmt.Errorf("%w: %d", network.ErrNodeRange, id)
	}
	cache := s.sh.adjCache
	if cache != nil {
		if nbrs, ok := cache.get(uint32(id)); ok {
			return nbrs, nil
		}
	}
	off, err := lookup(s.sh.adjOff, s.sh.adjIdx, "adj.idx", uint64(id))
	if err != nil {
		return nil, s.closedErr(err)
	}
	// One view of the record's page decodes a record that lies inside it in
	// place. Anything else — a record straddling a page boundary, a degree
	// word claiming more rows than the page holds, or a damaged offset past
	// 2^63 — takes the copying path, which refuses an offset outside the file
	// and bounds the degree by the file before sizing anything by it.
	at, ps := int64(off), int64(s.sh.pool.PageSize())
	var nbrs []network.Neighbor
	inFrame := false
	if at >= 0 {
		in := at % ps
		err = s.sh.adjF.View(at/ps, func(page []byte) error {
			if int64(len(page))-in >= adjHeader {
				deg := int(binary.LittleEndian.Uint32(page[in:]))
				if rows := page[in+adjHeader:]; len(rows) >= adjEntry*deg {
					inFrame = true
					var err error
					nbrs, err = s.decodeAdj(id, rows, deg)
					return err
				}
			}
			return nil
		})
	}
	if err == nil && !inFrame {
		nbrs, err = s.readAdjCopy(id, at)
	}
	if err != nil {
		return nil, s.closedErr(err)
	}
	if cache != nil {
		// Cached slices are shared by every view and never modified, so the
		// cache keeps its own copy, allocated here rather than under the
		// page's latch.
		nbrs = append(make([]network.Neighbor, 0, len(nbrs)), nbrs...)
		cache.put(uint32(id), nbrs)
	}
	return nbrs, nil
}

// readAdjCopy reads the adjacency record at off through two copies, its
// header and then its rows, refusing a degree the file cannot hold.
func (s *Store) readAdjCopy(id network.NodeID, off int64) ([]network.Neighbor, error) {
	if err := s.sh.adjF.ReadAt(s.scratch4[:], off); err != nil {
		return nil, err
	}
	deg := int(binary.LittleEndian.Uint32(s.scratch4[:]))
	if left := s.sh.adjF.Size() - off - adjHeader; int64(deg) > left/adjEntry {
		return nil, fmt.Errorf("storage: adj.dat: node %d at offset %d has degree %d, only %d bytes follow", id, off, deg, left)
	}
	need := adjEntry * deg
	if cap(s.adjPayload) < need {
		s.adjPayload = make([]byte, need)
	}
	s.adjPayload = s.adjPayload[:need]
	if err := s.sh.adjF.ReadAt(s.adjPayload, off+adjHeader); err != nil {
		return nil, err
	}
	return s.decodeAdj(id, s.adjPayload, deg)
}

// decodeAdj decodes node id's deg rows from b into the view's buffer,
// refusing a weight that is not finite and > 0.
func (s *Store) decodeAdj(id network.NodeID, b []byte, deg int) ([]network.Neighbor, error) {
	if cap(s.nbrBuf) < deg {
		s.nbrBuf = make([]network.Neighbor, deg)
	}
	nbrs := s.nbrBuf[:deg]
	s.nbrBuf = nbrs
	for i := range nbrs {
		row := b[adjEntry*i : adjEntry*(i+1)]
		nbrs[i] = network.Neighbor{
			Node:   network.NodeID(binary.LittleEndian.Uint32(row)),
			Group:  network.GroupID(binary.LittleEndian.Uint32(row[4:])),
			Weight: bitsFloat(binary.LittleEndian.Uint64(row[8:])),
		}
		if !validWeight(nbrs[i].Weight) {
			return nil, fmt.Errorf("%w: adj.dat: node %d, row %d has weight %v", ErrCorrupt, id, i, nbrs[i].Weight)
		}
	}
	return nbrs, nil
}

// readGroupHeader reads the fixed group header at off, refusing an edge
// weight that is not finite and > 0.
func (s *Store) readGroupHeader(off int64) (network.PointGroup, error) {
	if err := s.sh.ptsF.ReadAt(s.hdr[:], off); err != nil {
		return network.PointGroup{}, s.closedErr(err)
	}
	pg := network.PointGroup{
		N1:     network.NodeID(binary.LittleEndian.Uint32(s.hdr[0:])),
		N2:     network.NodeID(binary.LittleEndian.Uint32(s.hdr[4:])),
		Count:  int32(binary.LittleEndian.Uint32(s.hdr[8:])),
		First:  network.PointID(binary.LittleEndian.Uint32(s.hdr[12:])),
		Weight: bitsFloat(binary.LittleEndian.Uint64(s.hdr[16:])),
	}
	if !validWeight(pg.Weight) {
		return network.PointGroup{}, fmt.Errorf("%w: pts.dat: group at offset %d has edge weight %v", ErrCorrupt, off, pg.Weight)
	}
	return pg, nil
}

// groupRecord resolves group g to its cache entry (offset + header),
// consulting and filling the group cache when enabled.
func (s *Store) groupRecord(g network.GroupID) (groupRec, error) {
	if err := s.checkOpen(); err != nil {
		return groupRec{}, err
	}
	if g < 0 || int(g) >= s.sh.groups {
		return groupRec{}, fmt.Errorf("%w: %d", network.ErrGroupRange, g)
	}
	cache := s.sh.grpCache
	if cache != nil {
		if rec, ok := cache.get(uint32(g)); ok {
			return rec, nil
		}
	}
	off, err := lookup(s.sh.grpOff, s.sh.grpIdx, "grp.idx", uint64(g))
	if err != nil {
		return groupRec{}, s.closedErr(err)
	}
	pg, err := s.readGroupHeader(int64(off))
	if err != nil {
		return groupRec{}, err
	}
	rec := groupRec{off: int64(off), pg: pg}
	if cache != nil {
		cache.put(uint32(g), rec)
	}
	return rec, nil
}

// Group reads the descriptor of group g.
func (s *Store) Group(g network.GroupID) (network.PointGroup, error) {
	rec, err := s.groupRecord(g)
	if err != nil {
		return network.PointGroup{}, err
	}
	return rec.pg, nil
}

// GroupOffsets reads the point offsets of group g. The returned slice is
// valid until the next GroupOffsets call on this view and must not be
// modified (with the record caches enabled it is shared by every view).
func (s *Store) GroupOffsets(g network.GroupID) ([]float64, error) {
	rec, err := s.groupRecord(g)
	if err != nil {
		return nil, err
	}
	if rec.offsets != nil {
		return rec.offsets, nil
	}
	if cache := s.sh.grpCache; cache != nil {
		// Decode into a fresh shared slice and re-insert the completed
		// entry; concurrent decoders race benignly (identical values).
		offsets, err := s.readPoints(rec.off, rec.pg, nil)
		if err != nil {
			return nil, err
		}
		rec.offsets = offsets
		cache.put(uint32(g), rec)
		return offsets, nil
	}
	var err2 error
	s.offBuf, err2 = s.readPoints(rec.off, rec.pg, s.offBuf)
	return s.offBuf, err2
}

// readPoints decodes the offsets of group pg's point entries, which follow
// its header at off, into dst, refusing an offset outside [0, pg.Weight] or
// out of ascending order.
func (s *Store) readPoints(off int64, pg network.PointGroup, dst []float64) ([]float64, error) {
	count := int(pg.Count)
	if left := s.sh.ptsF.Size() - off - groupHeader; count < 0 || int64(count) > left/pointEntry {
		return nil, fmt.Errorf("storage: pts.dat: group at offset %d has count %d, only %d bytes follow", off, count, left)
	}
	need := pointEntry * count
	if cap(s.ptsPayload) < need {
		s.ptsPayload = make([]byte, need)
	}
	s.ptsPayload = s.ptsPayload[:need]
	if err := s.sh.ptsF.ReadAt(s.ptsPayload, off+groupHeader); err != nil {
		return nil, s.closedErr(err)
	}
	if cap(dst) < count {
		dst = make([]float64, count)
	}
	dst = dst[:count]
	prev := 0.0
	for i := range dst {
		o := bitsFloat(binary.LittleEndian.Uint64(s.ptsPayload[pointEntry*i:]))
		if !(o >= prev) || o > pg.Weight {
			return nil, fmt.Errorf("%w: pts.dat: group at offset %d, point %d has offset %v outside [%v, %v]", ErrCorrupt, off, i, o, prev, pg.Weight)
		}
		dst[i], prev = o, o
	}
	return dst, nil
}

// PointInfo resolves point p: a floor search on the sparse point index (a
// binary search of the first-point table when it is loaded) names its group,
// whose record is found the way Group finds it (warming the entry the
// GroupOffsets of a range query reads next), then one point entry.
func (s *Store) PointInfo(p network.PointID) (network.PointInfo, error) {
	if err := s.checkOpen(); err != nil {
		return network.PointInfo{}, err
	}
	if p < 0 || int(p) >= s.sh.points {
		return network.PointInfo{}, fmt.Errorf("%w: %d", network.ErrPointRange, p)
	}
	var first, gid uint64
	ok := false
	if tab := s.sh.first; tab != nil {
		i, found := slices.BinarySearch(tab, uint32(p))
		if !found {
			i--
		}
		if ok = i >= 0; ok {
			first, gid = uint64(tab[i]), uint64(i)
		}
	} else {
		var err error
		if first, gid, ok, err = s.sh.ptsIdx.Floor(uint64(p)); err != nil {
			return network.PointInfo{}, s.closedErr(err)
		}
	}
	if !ok || gid >= uint64(s.sh.groups) {
		return network.PointInfo{}, fmt.Errorf("storage: pts.idx: no group at or below point %d (floor key %d, group %d of %d)", p, first, gid, s.sh.groups)
	}
	rec, err := s.groupRecord(network.GroupID(gid))
	if err != nil {
		return network.PointInfo{}, err
	}
	pg := rec.pg
	idx := int(p) - int(first)
	if uint64(pg.First) != first || idx < 0 || idx >= int(pg.Count) {
		return network.PointInfo{}, fmt.Errorf("storage: pts.dat: point %d resolves to group %d at offset %d holding [%d,%d), pts.idx says it starts at %d",
			p, gid, rec.off, pg.First, int(pg.First)+int(pg.Count), first)
	}
	var entry [pointEntry]byte
	if err := s.sh.ptsF.ReadAt(entry[:], rec.off+groupHeader+int64(pointEntry*idx)); err != nil {
		return network.PointInfo{}, s.closedErr(err)
	}
	pos := bitsFloat(binary.LittleEndian.Uint64(entry[0:]))
	if !(pos >= 0) || pos > pg.Weight {
		return network.PointInfo{}, fmt.Errorf("%w: pts.dat: point %d has offset %v outside [0, %v]", ErrCorrupt, p, pos, pg.Weight)
	}
	return network.PointInfo{
		Group:  network.GroupID(gid),
		N1:     pg.N1,
		N2:     pg.N2,
		Pos:    pos,
		Weight: pg.Weight,
		Tag:    int32(binary.LittleEndian.Uint32(entry[8:])),
	}, nil
}

// Tag returns the tag of point p (0 when out of range), mirroring
// network.Network.Tag.
func (s *Store) Tag(p network.PointID) int32 {
	pi, err := s.PointInfo(p)
	if err != nil {
		return 0
	}
	return pi.Tag
}

// ScanGroups performs a single sequential scan of the points file. The scan
// is bounded by the meta group count, not the file size: a reopened paged
// file is padded to whole pages.
func (s *Store) ScanGroups(fn func(g network.GroupID, pg network.PointGroup, offsets []float64) error) error {
	if err := s.checkOpen(); err != nil {
		return err
	}
	off := int64(0)
	end := s.sh.ptsF.Size()
	for g := 0; g < s.sh.groups; g++ {
		if off+groupHeader > end {
			return fmt.Errorf("storage: pts.dat truncated at group %d (offset %d of %d)", g, off, end)
		}
		pg, err := s.readGroupHeader(off)
		if err != nil {
			return err
		}
		if pg.Count < 1 {
			return fmt.Errorf("storage: pts.dat: group %d at offset %d has count %d", g, off, pg.Count)
		}
		var err2 error
		s.scanBuf, err2 = s.readPoints(off, pg, s.scanBuf)
		if err2 != nil {
			return err2
		}
		if err := fn(network.GroupID(g), pg, s.scanBuf); err != nil {
			return err
		}
		off += groupHeader + int64(pointEntry*int(pg.Count))
	}
	return nil
}
