// Package pagebuf provides the paged-I/O layer of the §4.1 storage
// architecture: fixed-size pages read and written through a shared LRU
// buffer pool with hit/miss accounting. The paper's experiments use a 1 MB
// buffer over 4 KB pages; those are the defaults.
//
// The pool is the paper's single buffer: one latch guards one frame table and
// one LRU ring over the whole frame budget, so the page counts of a workload
// do not depend on how many processors run it. The latch is held only for
// table/ring bookkeeping and the page memcpy (or a View callback); disk reads
// of faulted pages happen under it too. The pool allocates page buffers only
// until it is full: from then on a fault evicts first and reads into the frame
// it just freed, so it allocates nothing at all.
package pagebuf

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"
)

// DefaultPageSize is the page size of the paper's experiments.
const DefaultPageSize = 4096

// DefaultBufferBytes is the buffer-pool size of the paper's experiments.
const DefaultBufferBytes = 1 << 20

// A frame is keyed by one uint64: the file id above pageBits bits of page
// number. Files and pages beyond these limits are refused, never aliased.
const (
	pageBits = 40
	maxPages = 1 << pageBits
	maxFiles = 1 << (64 - pageBits)
)

// ErrClosed is returned by operations on a closed File.
var ErrClosed = errors.New("pagebuf: file closed")

// Stats counts buffer-pool traffic. LogicalReads is the number of page
// requests; PhysicalReads the subset that missed the pool and hit the disk.
//
// The JSON field names are a stable contract: the netclusd /metrics and
// /v1/datasets payloads serialize these snapshots, so renaming a Go field
// must keep its tag (see TestStatsJSONRoundTrip at the repository root).
type Stats struct {
	LogicalReads  int64 `json:"logical_reads"`
	PhysicalReads int64 `json:"physical_reads"`
	PageWrites    int64 `json:"page_writes"`
	Evictions     int64 `json:"evictions"`
}

// HitRatio is the fraction of page requests served from the pool.
func (s Stats) HitRatio() float64 {
	if s.LogicalReads == 0 {
		return 0
	}
	return 1 - float64(s.PhysicalReads)/float64(s.LogicalReads)
}

// Sub returns s - o, for measuring a span of work.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		LogicalReads:  s.LogicalReads - o.LogicalReads,
		PhysicalReads: s.PhysicalReads - o.PhysicalReads,
		PageWrites:    s.PageWrites - o.PageWrites,
		Evictions:     s.Evictions - o.Evictions,
	}
}

// counters is the atomic mirror of Stats, so Stats reads it without the latch.
type counters struct {
	logicalReads  atomic.Int64
	physicalReads atomic.Int64
	pageWrites    atomic.Int64
	evictions     atomic.Int64
}

// Pool is an LRU buffer pool shared by several paged files, mirroring the
// single memory buffer of the paper's setup. It is safe for concurrent use.
type Pool struct {
	pageSize int
	capacity int
	nextFile atomic.Int64
	stats    counters

	mu     sync.Mutex // guards frames, the ring and frame contents
	frames map[uint64]*frame
	ring   frame // sentinel: ring.next is the most recently used frame, ring.prev the least
}

// frame is one page buffer, linked into the pool's LRU ring.
type frame struct {
	prev, next *frame
	page       int64
	data       []byte
	dirty      bool
	f          *File
}

// unlink takes fr out of its ring.
func (fr *frame) unlink() {
	fr.prev.next, fr.next.prev = fr.next, fr.prev
}

// pushFront links fr in as the pool's most recently used frame.
func (p *Pool) pushFront(fr *frame) {
	fr.prev, fr.next = &p.ring, p.ring.next
	p.ring.next.prev = fr
	p.ring.next = fr
}

// NewPool returns a pool of bufferBytes/pageSize frames.
func NewPool(bufferBytes, pageSize int) (*Pool, error) {
	if pageSize < 64 {
		return nil, fmt.Errorf("pagebuf: page size %d too small", pageSize)
	}
	capacity := bufferBytes / pageSize
	if capacity < 1 {
		return nil, fmt.Errorf("pagebuf: buffer of %d bytes holds no %d-byte page", bufferBytes, pageSize)
	}
	p := &Pool{
		pageSize: pageSize,
		capacity: capacity,
		frames:   make(map[uint64]*frame, capacity),
	}
	p.ring.prev, p.ring.next = &p.ring, &p.ring
	return p, nil
}

// PageSize returns the pool's page size.
func (p *Pool) PageSize() int { return p.pageSize }

// Capacity returns the number of frames.
func (p *Pool) Capacity() int { return p.capacity }

// Stats returns a snapshot of the traffic counters.
func (p *Pool) Stats() Stats {
	c := &p.stats
	return Stats{
		LogicalReads:  c.logicalReads.Load(),
		PhysicalReads: c.physicalReads.Load(),
		PageWrites:    c.pageWrites.Load(),
		Evictions:     c.evictions.Load(),
	}
}

// ResetStats zeroes the traffic counters.
func (p *Pool) ResetStats() {
	c := &p.stats
	c.logicalReads.Store(0)
	c.physicalReads.Store(0)
	c.pageWrites.Store(0)
	c.evictions.Store(0)
}

// File is one paged file attached to a pool. All reads and writes go through
// the pool's frames. A File may be used from several goroutines; individual
// page accesses are atomic with respect to each other, and multi-page
// ReadAt/WriteAt calls take the pool latch once per page.
type File struct {
	pool   *Pool
	id     uint64 // < maxFiles
	os     *os.File
	pages  atomic.Int64 // allocated pages (max written page + 1)
	size   atomic.Int64 // logical byte size
	closed atomic.Bool

	readOnly bool
	unsynced bool // a frame was dirtied since the last sync; guarded by the pool latch
}

// Open attaches the file at path to the pool for reading and writing,
// creating it if absent.
func (p *Pool) Open(path string) (*File, error) {
	return p.open(path, os.O_RDWR|os.O_CREATE)
}

// OpenReadOnly attaches the existing file at path to the pool for reading
// only: it creates nothing (a missing file is an error naming it and wrapping
// fs.ErrNotExist), and WriteAt on it is refused.
func (p *Pool) OpenReadOnly(path string) (*File, error) {
	return p.open(path, os.O_RDONLY)
}

func (p *Pool) open(path string, flag int) (*File, error) {
	osf, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := osf.Stat()
	if err != nil {
		osf.Close()
		return nil, err
	}
	id := p.nextFile.Add(1) - 1
	if id >= maxFiles {
		osf.Close()
		return nil, fmt.Errorf("pagebuf: %s: the pool has opened %d files, its limit", path, maxFiles)
	}
	f := &File{pool: p, id: uint64(id), os: osf, readOnly: flag == os.O_RDONLY}
	f.size.Store(st.Size())
	f.pages.Store((st.Size() + int64(p.pageSize) - 1) / int64(p.pageSize))
	return f, nil
}

// Name returns the path the file was opened with, for error messages.
func (f *File) Name() string { return f.os.Name() }

// Size returns the logical byte size of the file.
func (f *File) Size() int64 { return f.size.Load() }

// key is the frame-table key of one page of f.
func (f *File) key(pageNo int64) uint64 { return f.id<<pageBits | uint64(pageNo) }

// page returns the frame for pageNo (< maxPages), faulting it in if needed.
// The pool latch must be held; the returned frame is only valid while it
// stays held.
func (f *File) page(pageNo int64) (*frame, error) {
	p := f.pool
	p.stats.logicalReads.Add(1)
	key := f.key(pageNo)
	if fr, ok := p.frames[key]; ok {
		fr.unlink()
		p.pushFront(fr)
		return fr, nil
	}
	p.stats.physicalReads.Add(1)
	// A full pool evicts first and faults into the frame it just freed;
	// only a pool still below capacity allocates.
	var fr *frame
	if len(p.frames) >= p.capacity {
		var err error
		if fr, err = p.evict(); err != nil {
			return nil, err
		}
	}
	if fr == nil {
		fr = &frame{data: make([]byte, p.pageSize)}
	}
	fr.page, fr.f = pageNo, f
	n := 0
	if pageNo < f.pages.Load() {
		var err error
		if n, err = f.os.ReadAt(fr.data, pageNo*int64(p.pageSize)); err != nil && err != io.EOF {
			return nil, fmt.Errorf("pagebuf: %s: read page %d: %w", f.Name(), pageNo, err)
		}
	}
	// Whatever the read left uncovered (a partial last page, a page never
	// written) must not show the frame's previous page.
	clear(fr.data[n:])
	p.frames[key] = fr
	p.pushFront(fr)
	return fr, nil
}

// evict writes back and drops the least recently used frame, handing it
// (clean) to the caller for reuse; nil when the pool is empty. The latch must
// be held.
func (p *Pool) evict() (*frame, error) {
	fr := p.ring.prev
	if fr == &p.ring {
		return nil, nil
	}
	if fr.dirty {
		if err := fr.f.writeBack(fr); err != nil {
			return nil, err
		}
		fr.dirty = false
	}
	p.drop(fr)
	p.stats.evictions.Add(1)
	return fr, nil
}

// drop removes fr from the pool's table and ring. The latch must be held.
func (p *Pool) drop(fr *frame) {
	fr.unlink()
	delete(p.frames, fr.f.key(fr.page))
}

// writeBack flushes one frame to disk. The pool latch must be held.
func (f *File) writeBack(fr *frame) error {
	p := f.pool
	if _, err := f.os.WriteAt(fr.data, fr.page*int64(p.pageSize)); err != nil {
		return fmt.Errorf("pagebuf: write page %d: %w", fr.page, err)
	}
	for {
		pages := f.pages.Load()
		if fr.page < pages || f.pages.CompareAndSwap(pages, fr.page+1) {
			break
		}
	}
	p.stats.pageWrites.Add(1)
	return nil
}

// ReadAt copies len(buf) bytes starting at byte offset off into buf, reading
// through the pool page by page. Reading past the logical end of the file is
// an error.
func (f *File) ReadAt(buf []byte, off int64) error {
	if f.closed.Load() {
		return ErrClosed
	}
	if size := f.Size(); off < 0 || off > size || int64(len(buf)) > size-off {
		return fmt.Errorf("pagebuf: %s: read [%d,%d) beyond file size %d", f.Name(), off, off+int64(len(buf)), size)
	}
	return f.copyPages(buf, off, false)
}

// copyPages copies between buf and [off, off+len(buf)) page by page, taking
// the pool latch once per page: into the frames (dirtying them) when write is
// set, out of them otherwise. A span reaching page 2^pageBits is refused.
// (A flag, not a callback: buf passed to a func value would escape, moving
// every caller's stack buffer to the heap.)
func (f *File) copyPages(buf []byte, off int64, write bool) error {
	p := f.pool
	ps := int64(p.pageSize)
	if len(buf) > 0 && (off+int64(len(buf))-1)/ps >= maxPages {
		return fmt.Errorf("pagebuf: %s: [%d,%d) reaches past page 2^%d", f.Name(), off, off+int64(len(buf)), pageBits)
	}
	for len(buf) > 0 {
		pageNo, in := off/ps, off%ps
		n := min(ps-in, int64(len(buf)))
		p.mu.Lock()
		fr, err := f.page(pageNo)
		if err == nil {
			if write {
				copy(fr.data[in:in+n], buf[:n])
				fr.dirty, f.unsynced = true, true
			} else {
				copy(buf[:n], fr.data[in:in+n])
			}
		}
		p.mu.Unlock()
		if err != nil {
			return err
		}
		buf, off = buf[n:], off+n
	}
	return nil
}

// View runs fn on page pageNo's bytes, up to the file's logical end, while
// the pool latch is held, and counts one logical read. It is ReadAt
// for a span inside one page without the copy: fn must not keep the slice
// past its return, modify it, or call back into the pool (the latch is not
// reentrant). A page at or past the logical end is an error.
func (f *File) View(pageNo int64, fn func(page []byte) error) error {
	if f.closed.Load() {
		return ErrClosed
	}
	ps, size := int64(f.pool.pageSize), f.Size()
	if pageNo < 0 || pageNo >= maxPages || size <= 0 || pageNo > (size-1)/ps {
		return fmt.Errorf("pagebuf: %s: page %d beyond file size %d", f.Name(), pageNo, size)
	}
	f.pool.mu.Lock()
	defer f.pool.mu.Unlock()
	fr, err := f.page(pageNo)
	if err != nil {
		return err
	}
	return fn(fr.data[:min(ps, size-pageNo*ps)])
}

// WriteAt writes buf at byte offset off through the pool, extending the file
// as needed. Pages become dirty and reach disk on eviction or Flush.
func (f *File) WriteAt(buf []byte, off int64) error {
	if f.closed.Load() {
		return ErrClosed
	}
	if f.readOnly {
		return fmt.Errorf("pagebuf: %s: write to a file opened read-only", f.Name())
	}
	if off < 0 || off > math.MaxInt64-int64(len(buf)) {
		return fmt.Errorf("pagebuf: %s: write of %d bytes at offset %d", f.Name(), len(buf), off)
	}
	end := off + int64(len(buf))
	if err := f.copyPages(buf, off, true); err != nil {
		return err
	}
	for {
		size := f.size.Load()
		if end <= size || f.size.CompareAndSwap(size, end) {
			break
		}
	}
	return nil
}

// Append writes buf at the current end of the file and returns the offset it
// landed at. Concurrent appenders must synchronize externally (the store
// only appends while building, single-threaded).
func (f *File) Append(buf []byte) (int64, error) {
	off := f.Size()
	return off, f.WriteAt(buf, off)
}

// Flush writes every dirty frame of this file back to disk and syncs it,
// unless no frame of it was dirtied since the last sync.
func (f *File) Flush() error {
	if f.closed.Load() {
		return ErrClosed
	}
	return f.flush()
}

func (f *File) flush() error {
	p := f.pool
	p.mu.Lock()
	for fr := p.ring.next; fr != &p.ring; fr = fr.next {
		if fr.f == f && fr.dirty {
			if err := f.writeBack(fr); err != nil {
				p.mu.Unlock()
				return err
			}
			fr.dirty = false
		}
	}
	sync := f.unsynced
	f.unsynced = false
	p.mu.Unlock()
	if !sync {
		return nil
	}
	if err := f.os.Sync(); err != nil {
		p.mu.Lock()
		f.unsynced = true
		p.mu.Unlock()
		return err
	}
	return nil
}

// Close flushes and closes the file, dropping its frames from the pool.
// Further operations return ErrClosed; Close itself is idempotent.
func (f *File) Close() error {
	if f.closed.Swap(true) {
		return nil
	}
	if err := f.flush(); err != nil {
		f.os.Close()
		return err
	}
	p := f.pool
	p.mu.Lock()
	for fr := p.ring.next; fr != &p.ring; {
		next := fr.next
		if fr.f == f {
			p.drop(fr)
		}
		fr = next
	}
	p.mu.Unlock()
	return f.os.Close()
}
