package delta

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"netclus/internal/testnet"
)

// holdCtx holds the reconciler the first time it asks the batch whether its
// context is still live (applyBatch's first step), until release is closed.
type holdCtx struct {
	context.Context
	once          sync.Once
	held, release chan struct{}
}

func (c *holdCtx) Err() error {
	c.once.Do(func() {
		close(c.held)
		<-c.release
	})
	return c.Context.Err()
}

// TestApplyOrderIsArrivalOrder holds the reconciler inside one batch while
// five more queue one after another, then releases it: each batch's
// Result.Epoch must be later than that of the batch queued before it, at any
// processor count.
func TestApplyOrderIsArrivalOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		g, err := testnet.Random(7, 30, 60)
		if err != nil {
			t.Fatal(err)
		}
		o, err := New(g, Options{CompactOps: -1})
		if err != nil {
			t.Fatal(err)
		}
		hold := &holdCtx{Context: context.Background(), held: make(chan struct{}), release: make(chan struct{})}
		apply := func(ctx context.Context, tag int32) <-chan Result {
			out := make(chan Result, 1)
			go func() {
				r, err := o.Apply(ctx, []Op{InsertNear(0, 0.5, tag)})
				if err != nil {
					t.Error(err)
				}
				out <- r
			}()
			return out
		}
		queued := func() int {
			o.qmu.Lock()
			defer o.qmu.Unlock()
			return len(o.q)
		}

		blocker := apply(hold, 0)
		<-hold.held
		const batches = 5
		var results [batches]<-chan Result
		for i := range results {
			results[i] = apply(context.Background(), int32(i+1))
			for queued() != i+1 {
				time.Sleep(time.Millisecond)
			}
		}
		close(hold.release)
		<-blocker
		prev := int64(0)
		for i, ch := range results {
			r := <-ch
			if r.Epoch <= prev {
				t.Errorf("GOMAXPROCS %d: batch %d committed at epoch %d, after the batch queued before it (%d)", procs, i+1, r.Epoch, prev)
			}
			prev = r.Epoch
		}
		o.Close()
	}
}
