package server

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// cacheEntry is one cached query result: the encoded response body served
// verbatim on a hit. Entries are immutable after Put; readers share the body.
type cacheEntry struct {
	key  string
	body []byte
}

// entryOverhead approximates the bookkeeping bytes per entry (map slot, list
// element, struct headers) so the byte budget reflects real footprint.
const entryOverhead = 96

func (e *cacheEntry) size() int64 { return int64(len(e.key)+len(e.body)) + entryOverhead }

// ResultCacheStatsSnapshot is the cache-wide counter snapshot for /metrics
// and /v1/datasets.
type ResultCacheStatsSnapshot struct {
	Hits   int64
	Misses int64
	// Containment is always 0: the cache answers exact keys only. It is kept
	// only because benchmark/layers.go compiles against it; ROADMAP item 1 (A)
	// removes it together with the probe that reads it.
	Containment int64
	Shared      int64
	Evictions   int64
	Entries     int64
	Bytes       int64
	Capacity    int64
}

// ResultCache is the epoch-keyed query-result cache: one byte-budget LRU
// under one mutex, with singleflight collapsing of duplicate in-flight
// computations. Keys are (dataset name + epoch, endpoint, canonical request)
// strings built by the handlers; because datasets are immutable per epoch,
// every cached body is an exact answer, and an epoch bump invalidates by key
// mismatch — stale entries age out of the LRU without a scan.
type ResultCache struct {
	mu       sync.Mutex
	entries  map[string]*list.Element // of *cacheEntry
	lru      *list.List               // front = most recently used
	bytes    int64
	capacity int64

	hits      atomic.Int64
	misses    atomic.Int64
	shared    atomic.Int64
	evictions atomic.Int64

	flights flightGroup
}

// NewResultCache builds a cache with the given byte budget.
func NewResultCache(capacity int64) *ResultCache {
	return &ResultCache{entries: make(map[string]*list.Element), lru: list.New(), capacity: capacity}
}

// Get returns the cached body for an exact canonical key.
func (c *ResultCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	elem, ok := c.entries[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.lru.MoveToFront(elem)
	c.hits.Add(1)
	return elem.Value.(*cacheEntry).body, true
}

// Put inserts (or replaces) the body cached under key and evicts from the LRU
// tail until it fits the byte budget. Bodies larger than the whole budget are
// not cached at all — inserting one would immediately wipe the cache.
func (c *ResultCache) Put(key string, body []byte) {
	e := &cacheEntry{key: key, body: body}
	sz := e.size()
	if sz > c.capacity {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[e.key]; ok {
		c.removeLocked(old)
	}
	c.entries[e.key] = c.lru.PushFront(e)
	c.bytes += sz
	for c.bytes > c.capacity {
		c.removeLocked(c.lru.Back())
		c.evictions.Add(1)
	}
}

// removeLocked unlinks elem. Caller holds c.mu.
func (c *ResultCache) removeLocked(elem *list.Element) {
	e := elem.Value.(*cacheEntry)
	delete(c.entries, e.key)
	c.lru.Remove(elem)
	c.bytes -= e.size()
}

// Do collapses concurrent computations of the same key through the cache's
// singleflight group; shared results bump the shared counter.
func (c *ResultCache) Do(ctx context.Context, key string, fn func() ([]byte, error)) ([]byte, bool, error) {
	body, shared, err := c.flights.Do(ctx, key, fn)
	if shared {
		c.shared.Add(1)
	}
	return body, shared, err
}

// Stats snapshots the cache-wide counters.
func (c *ResultCache) Stats() ResultCacheStatsSnapshot {
	c.mu.Lock()
	entries, bytes := int64(c.lru.Len()), c.bytes
	c.mu.Unlock()
	return ResultCacheStatsSnapshot{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Shared:    c.shared.Load(),
		Evictions: c.evictions.Load(),
		Entries:   entries,
		Bytes:     bytes,
		Capacity:  c.capacity,
	}
}
