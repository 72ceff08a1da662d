package core

import (
	"context"
	"fmt"

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
