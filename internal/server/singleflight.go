package server

import (
	"context"
	"errors"
	"sync"
)

// flightCall is one in-flight computation that followers can ride.
type flightCall struct {
	done chan struct{} // closed when body/err are set
	body []byte
	err  error
}

// flightGroup collapses duplicate in-flight computations of the same key:
// the first caller (the leader) runs fn, every concurrent duplicate (a
// follower) blocks until the leader finishes and shares its result. Under a
// skewed workload this turns a thundering herd on a cold hot-key into one
// engine execution — the cache miss cost is paid once per key, not once per
// waiter.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

// Do executes fn for key, collapsing concurrent duplicates. shared reports
// whether the result came from another caller's work. A follower whose ctx
// expires stops waiting and returns ctx.Err() — the leader keeps computing
// for the remaining waiters. A follower that sees the leader fail reruns fn
// itself: leader errors are often deadline- or client-specific, so inheriting
// them would fail unrelated requests.
func (g *flightGroup) Do(ctx context.Context, key string, fn func() ([]byte, error)) (body []byte, shared bool, err error) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[string]*flightCall)
	}
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
			if c.err != nil {
				body, err = fn()
				return body, false, err
			}
			return c.body, true, nil
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	// err stays errLeaderPanicked unless fn returns, so a panicking leader
	// sends its followers to rerun fn; the deferred cleanup frees the key
	// either way, and the panic goes on up the leader's stack.
	c := &flightCall{done: make(chan struct{}), err: errLeaderPanicked}
	g.calls[key] = c
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
	}()

	c.body, c.err = fn()
	return c.body, false, c.err
}

var errLeaderPanicked = errors.New("singleflight: the leader panicked")
