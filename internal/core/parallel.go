package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"netclus/internal/network"
)

// ErrInvalidOptions is wrapped by every option-validation failure of the
// clustering algorithms and the query layer (aliasing the network package's
// sentinel), so callers can recognize all of them with a single errors.Is
// check.
var ErrInvalidOptions = network.ErrInvalidOptions

// ctxCheckMask paces context polls in core-level loops: the context is
// polled once every ctxCheckMask+1 bumps, mirroring the pacing inside the
// network traversal loops.
const ctxCheckMask = 255

// ctxCheck polls ctx once every ctxCheckMask+1 bumps of *counter and at the
// first bump, returning a wrapped ctx.Err() when the context is done. Like
// the traversal polls, it receives from ctx.Done() without blocking and calls
// ctx.Err() only once that fires.
func ctxCheck(ctx context.Context, counter *int) error {
	*counter++
	if *counter != 1 && *counter&ctxCheckMask != 0 {
		return nil
	}
	return pollCtx(ctx)
}

// pollCtx is ctxCheck's poll, out of line so that the counting above inlines
// into every traversal loop.
func pollCtx(ctx context.Context) error {
	done := ctx.Done()
	if done == nil {
		return nil // a context that is never cancelled, such as Background
	}
	select {
	case <-done:
		return fmt.Errorf("core: run cancelled: %w", ctx.Err())
	default:
		return nil
	}
}

// normWorkers resolves a Workers option value to an effective worker count
// (0 and negative mean sequential).
func normWorkers(w int) int {
	if w < 1 {
		return 1
	}
	return w
}

// batchSize picks the contiguous batch length for fanning n items across
// workers: small enough to balance skewed per-item cost, large enough to
// amortize the shared counter and keep same-edge points on one worker.
func batchSize(n, workers int) int {
	b := n / (workers * 8)
	if b < 16 {
		b = 16
	}
	if b > 1024 {
		b = 1024
	}
	return b
}

// parallelPoints fans work over the index range [0, n) across workers
// goroutines. Each goroutine calls handler(w) once to build its batch
// function — handler typically allocates per-worker state there (a graph
// read view, a RangeScratch) — then pulls contiguous batches [lo, hi) from a
// shared counter until the range is exhausted or any worker fails. The first
// error stops the remaining batches and is returned. One worker runs the
// whole range on the caller's goroutine.
func parallelPoints(workers, n int, handler func(w int) func(lo, hi int) error) error {
	if workers == 1 {
		return handler(0)(0, n)
	}
	size := batchSize(n, workers)
	var next atomic.Int64
	var failed atomic.Bool
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn := handler(w)
			for !failed.Load() {
				lo := int(next.Add(int64(size))) - size
				if lo >= n {
					return
				}
				hi := lo + size
				if hi > n {
					hi = n
				}
				if err := fn(lo, hi); err != nil {
					errs[w] = err
					failed.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
