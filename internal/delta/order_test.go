package delta

import (
	"context"
	"runtime"
	"testing"
	"time"

	"netclus/internal/testnet"
)

// TestApplyOrderIsArrivalOrder holds the reconciler inside Bump while five
// batches queue one after another, then releases it: each batch must commit
// at a later epoch than the one queued before it, at any processor count.
func TestApplyOrderIsArrivalOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		g, err := testnet.Random(7, 30, 60)
		if err != nil {
			t.Fatal(err)
		}
		held, release := make(chan struct{}), make(chan struct{})
		epoch, first := int64(initialEpoch), true
		bump := func() int64 { // runs on the reconciler only
			if first {
				first = false
				close(held)
				<-release
			}
			epoch++
			return epoch
		}
		o, err := New(g, Options{Bump: bump, CompactOps: -1})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		apply := func(tag int32) <-chan Result {
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

		blocker := apply(0)
		<-held
		const batches = 5
		var results [batches]<-chan Result
		for i := range results {
			results[i] = apply(int32(i + 1))
			for queued() != i+1 {
				time.Sleep(time.Millisecond)
			}
		}
		close(release)
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
