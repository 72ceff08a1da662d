package storage

import (
	"math/bits"
	"sync/atomic"
)

// Default decoded-record cache bounds (entries, not bytes). Each cache is
// direct-mapped over a power-of-two slot count, the bound rounded down, so a
// bound is never exceeded. At the paper's average degrees an adjacency entry
// is ~100 bytes and a group entry a few hundred, so the defaults add roughly
// half the paper's 1 MB page budget as decode-avoidance memory; set the
// *CacheEntries options to trade space for traversal speed, or
// DisableRecordCaches for the paper's original path.
const (
	DefaultAdjCacheEntries   = 4096
	DefaultGroupCacheEntries = 1024
)

// CacheStats counts decoded-record cache traffic: the adjacency cache
// (node -> neighbours) and the group cache (group -> header + offsets). A hit
// is a read answered without touching the page buffer. The cached path also
// finds records through the offset tables Open loads, without an index
// descent, so the paper's logical page-access metric is the page buffer's
// LogicalReads on a store opened with DisableRecordCaches.
// The JSON field names are a stable contract: the netclusd /metrics and
// /v1/datasets payloads serialize these snapshots, so renaming a Go field
// must keep its tag (see TestStatsJSONRoundTrip at the repository root).
type CacheStats struct {
	AdjHits        int64 `json:"adj_hits"`
	AdjMisses      int64 `json:"adj_misses"`
	AdjEvictions   int64 `json:"adj_evictions"`
	GroupHits      int64 `json:"group_hits"`
	GroupMisses    int64 `json:"group_misses"`
	GroupEvictions int64 `json:"group_evictions"`
	// LeafHits and LeafMisses are always zero: the leaf hints they counted
	// gave way to the offset tables. They stay only because the benchmark
	// still reads them (ROADMAP item 1 (A)), and are not serialized.
	LeafHits   int64 `json:"-"`
	LeafMisses int64 `json:"-"`
}

// Sub returns s - o, for measuring a span of work.
func (s CacheStats) Sub(o CacheStats) CacheStats {
	return CacheStats{
		AdjHits:        s.AdjHits - o.AdjHits,
		AdjMisses:      s.AdjMisses - o.AdjMisses,
		AdjEvictions:   s.AdjEvictions - o.AdjEvictions,
		GroupHits:      s.GroupHits - o.GroupHits,
		GroupMisses:    s.GroupMisses - o.GroupMisses,
		GroupEvictions: s.GroupEvictions - o.GroupEvictions,
	}
}

// HitRatio is the fraction of record lookups (adjacency + group) served from
// the decoded caches.
func (s CacheStats) HitRatio() float64 {
	total := s.AdjHits + s.AdjMisses + s.GroupHits + s.GroupMisses
	if total == 0 {
		return 0
	}
	return float64(s.AdjHits+s.GroupHits) / float64(total)
}

// cacheCounters are the shared atomic traffic counters of one record cache.
type cacheCounters struct {
	hits, misses, evictions atomic.Int64
}

// recCache is a bounded, direct-mapped map from a dense uint32 record ID to
// its decoded value: ID k lives in slot k & mask or nowhere, so a lookup is
// one atomic load and no latch. Entries are immutable once published (readers
// share them); a put swaps in a fresh entry, displacing whatever held the
// slot. IDs are dense, so a run of consecutive IDs fills distinct slots.
type recCache[V any] struct {
	slots []atomic.Pointer[recEntry[V]]
	mask  uint32
	cnt   cacheCounters
}

type recEntry[V any] struct {
	key uint32
	val V
}

// newRecCache returns a cache of at most entries values: the slot count is
// entries rounded down to a power of two. It returns nil for entries < 1.
func newRecCache[V any](entries int) *recCache[V] {
	if entries < 1 {
		return nil
	}
	n := 1 << (bits.Len(uint(entries)) - 1)
	return &recCache[V]{slots: make([]atomic.Pointer[recEntry[V]], n), mask: uint32(n - 1)}
}

// get returns the cached value for k.
func (c *recCache[V]) get(k uint32) (V, bool) {
	if e := c.slots[k&c.mask].Load(); e != nil && e.key == k {
		c.cnt.hits.Add(1)
		return e.val, true
	}
	c.cnt.misses.Add(1)
	var zero V
	return zero, false
}

// put publishes v as k's value, counting an eviction when it displaces
// another key. Values must never be mutated after put: readers on other
// goroutines share them.
func (c *recCache[V]) put(k uint32, v V) {
	if old := c.slots[k&c.mask].Swap(&recEntry[V]{key: k, val: v}); old != nil && old.key != k {
		c.cnt.evictions.Add(1)
	}
}
