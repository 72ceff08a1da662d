package network

import (
	"context"
	"fmt"
)

// ViewCloner is implemented by Graphs that can mint independent read views
// sharing the same underlying data. A view belongs to one goroutine: its
// query methods may reuse per-view buffers, but any number of views can
// query concurrently. The disk store implements it; the in-memory Network
// is immutable and needs no views.
type ViewCloner interface {
	// ReadView returns a read view of the graph for use by one goroutine.
	ReadView() Graph
}

// ReadView returns a graph view that one goroutine may query while other
// goroutines query their own views of g: g.ReadView() when g implements
// ViewCloner, else g itself (immutable in-memory graphs are safe to share).
func ReadView(g Graph) Graph {
	if vc, ok := g.(ViewCloner); ok {
		return vc.ReadView()
	}
	return g
}

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
