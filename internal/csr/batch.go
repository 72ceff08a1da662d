package csr

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"netclus/internal/network"
)

// RangeEach is the batched multi-source range mode: it runs one ε-range
// query for every element of pts, fanned across workers goroutines, each
// holding a private Scratch drawn from the snapshot's pool over the shared
// immutable arrays — zero allocation per query in steady state.
//
// visit is called from worker goroutines (concurrently across workers,
// sequentially within one) with the index into pts, the queried point and
// the result: the IDs within eps and, aligned with them, their exact
// network distances. Both slices are scratch-owned and reused by the next
// query on the same worker; copy anything retained. A non-nil error from
// visit (or from a query) stops the remaining batches and is returned.
func (s *Snapshot) RangeEach(ctx context.Context, pts []network.PointID, eps float64, workers int, visit func(i int, p network.PointID, res []network.PointID, dists []float64) error) error {
	if workers < 1 {
		workers = 1
	}
	if workers > len(pts) {
		workers = len(pts)
	}
	if len(pts) == 0 {
		return nil
	}
	// Contiguous batches off a shared counter: big enough to amortize the
	// atomic, small enough to balance skewed per-query cost.
	batch := len(pts) / (workers * 8)
	if batch < 8 {
		batch = 8
	}
	if batch > 512 {
		batch = 512
	}
	var next atomic.Int64
	var failed atomic.Bool
	errs := make([]error, workers)
	work := func(w int) {
		sc := s.acquire()
		defer s.release(sc)
		dists := make([]float64, 0, 64)
		for !failed.Load() {
			lo := int(next.Add(int64(batch))) - batch
			if lo >= len(pts) {
				return
			}
			hi := lo + batch
			if hi > len(pts) {
				hi = len(pts)
			}
			for i := lo; i < hi; i++ {
				if err := sc.run(ctx, pts[i], eps); err != nil {
					errs[w] = err
					failed.Store(true)
					return
				}
				dists = dists[:0]
				for _, q := range sc.result {
					dists = append(dists, sc.ptDist[q])
				}
				if err := visit(i, pts[i], sc.result, dists); err != nil {
					errs[w] = err
					failed.Store(true)
					return
				}
			}
		}
	}
	if workers == 1 {
		// One worker runs on the caller's goroutine: no hand-off for the
		// scheduler to fill with other work while the caller waits.
		work(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				work(w)
			}(w)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// KNNBatch is a reusable multi-query kNN runner in structure-of-arrays
// layout: queries accumulate via Add, Run answers them all in one
// cache-friendly sweep, and Results hands each answer back without copying.
// Nothing in the module batches kNN queries: it is kept only because
// benchmark/layers.go compiles against it, and ROADMAP item 1 (A) removes it
// together with the probe that reads it.
//
// Every query is answered by the same kernel as a lone Snapshot.KNNCtx call
// — identical results, fuzz-asserted — but the batch amortizes scratch
// acquisition across queries and visits them in point-bucket order, so
// consecutive queries touch neighbouring regions of the flat arrays instead
// of hopping across the network in arrival order.
//
// A KNNBatch belongs to one goroutine between Reset and Run; Run itself
// fans the queries across workers internally. Results stay valid until the
// next Reset.
type KNNBatch struct {
	sn *Snapshot

	pts []network.PointID
	ks  []int

	off  []int64             // query i's result slot is res[off[i] : off[i]+ks[i]]
	cnt  []int32             // results actually found per query
	res  []network.PointDist // slot storage, stride ks[i]
	errs []error             // per-query validation errors (nil when ok)
	ord  []int32             // query visit order, sorted by point locality
}

// NewKNNBatch returns an empty batch over the snapshot.
func (s *Snapshot) NewKNNBatch() *KNNBatch { return &KNNBatch{sn: s} }

// Reset empties the batch, keeping every backing array.
func (b *KNNBatch) Reset() {
	b.pts, b.ks = b.pts[:0], b.ks[:0]
	b.off, b.cnt = b.off[:0], b.cnt[:0]
	b.res, b.errs = b.res[:0], b.errs[:0]
	b.ord = b.ord[:0]
}

// Add queues one (point, k) query and returns its index for Results/Err.
func (b *KNNBatch) Add(p network.PointID, k int) int {
	b.pts = append(b.pts, p)
	b.ks = append(b.ks, min(k, len(b.sn.ptPos))) // Run sizes result slots by k; no more points exist
	return len(b.pts) - 1
}

// Len reports the number of queued queries.
func (b *KNNBatch) Len() int { return len(b.pts) }

// Run answers every queued query, fanning across workers goroutines with
// pooled scratches. Per-query validation failures (point out of range,
// k < 1) are recorded for Err and do not disturb other queries; only
// cancellation aborts the sweep and is returned.
func (b *KNNBatch) Run(ctx context.Context, workers int) error {
	n := len(b.pts)
	if n == 0 {
		return nil
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	// Slot offsets (stride k) and the locality order: queries sorted by
	// their point's group visit neighbouring buckets back to back.
	var total int64
	for _, k := range b.ks {
		b.off = append(b.off, total)
		if k > 0 {
			total += int64(k)
		}
	}
	if cap(b.res) < int(total) {
		b.res = make([]network.PointDist, total)
	} else {
		b.res = b.res[:total]
	}
	b.cnt = append(b.cnt, make([]int32, n)...)
	b.errs = append(b.errs, make([]error, n)...)
	for i := 0; i < n; i++ {
		b.ord = append(b.ord, int32(i))
	}
	sn := b.sn
	sort.Slice(b.ord, func(x, y int) bool {
		px, py := b.pts[b.ord[x]], b.pts[b.ord[y]]
		gx, gy := int32(-1), int32(-1)
		if px >= 0 && int(px) < len(sn.ptGrp) {
			gx = sn.ptGrp[px]
		}
		if py >= 0 && int(py) < len(sn.ptGrp) {
			gy = sn.ptGrp[py]
		}
		if gx != gy {
			return gx < gy
		}
		if px != py {
			return px < py
		}
		return b.ord[x] < b.ord[y]
	})

	if workers == 1 {
		sc := sn.acquire()
		defer sn.release(sc)
		for _, qi := range b.ord {
			if err := b.one(ctx, sc, int(qi)); err != nil {
				return err
			}
		}
		return nil
	}

	batch := n / (workers * 4)
	if batch < 4 {
		batch = 4
	}
	if batch > 256 {
		batch = 256
	}
	var next atomic.Int64
	var failed atomic.Bool
	werrs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := sn.acquire()
			defer sn.release(sc)
			for !failed.Load() {
				lo := int(next.Add(int64(batch))) - batch
				if lo >= n {
					return
				}
				hi := lo + batch
				if hi > n {
					hi = n
				}
				for _, qi := range b.ord[lo:hi] {
					if err := b.one(ctx, sc, int(qi)); err != nil {
						werrs[w] = err
						failed.Store(true)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(werrs...)
}

// one answers query qi into its slot. Validation errors are recorded
// per-query; only cancellation propagates.
func (b *KNNBatch) one(ctx context.Context, sc *Scratch, qi int) error {
	k := b.ks[qi]
	if k < 1 {
		b.errs[qi] = fmt.Errorf("%w: k-NN needs k >= 1, got %d", network.ErrInvalidOptions, k)
		return nil
	}
	slot := b.res[b.off[qi] : b.off[qi]+int64(k)]
	m, err := sc.knnInto(ctx, b.pts[qi], k, slot)
	if err != nil {
		if ctx.Err() != nil {
			return err
		}
		b.errs[qi] = err
		return nil
	}
	b.cnt[qi] = int32(m)
	return nil
}

// Results returns query i's answer in ascending (Dist, Point) order,
// aliasing batch storage (valid until the next Reset). It returns nil when
// the query failed validation — check Err.
func (b *KNNBatch) Results(i int) []network.PointDist {
	if b.errs[i] != nil {
		return nil
	}
	return b.res[b.off[i] : b.off[i]+int64(b.cnt[i])]
}

// Err returns query i's validation error, nil when it succeeded.
func (b *KNNBatch) Err(i int) error { return b.errs[i] }
