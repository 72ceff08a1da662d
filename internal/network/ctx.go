package network

import (
	"context"
	"fmt"
)

// cancelCheckMask paces the context checks inside traversal loops: the
// context is polled once every cancelCheckMask+1 iterations, keeping the
// overhead of cancellation support off the hot path.
const cancelCheckMask = 255

// cancelCheck polls ctx once every cancelCheckMask+1 bumps of *counter and
// at the first bump, returning a wrapped ctx.Err() when the context is done.
// Traversal loops call it once per settled node / popped entry. A poll is a
// non-blocking receive on ctx.Done(), which for a cancellable context is an
// atomic load, where ctx.Err() would take the context's mutex.
func cancelCheck(ctx context.Context, counter *int) error {
	*counter++
	if *counter != 1 && *counter&cancelCheckMask != 0 {
		return nil
	}
	return pollCancel(ctx)
}

// pollCancel is cancelCheck's poll, out of line so that the counting above
// inlines into every traversal loop.
func pollCancel(ctx context.Context) error {
	done := ctx.Done()
	if done == nil {
		return nil // a context that is never cancelled, such as Background
	}
	select {
	case <-done:
		return fmt.Errorf("network: traversal cancelled: %w", ctx.Err())
	default:
		return nil
	}
}
