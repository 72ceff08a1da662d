package delta_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"netclus/internal/core"
	"netclus/internal/delta"
	"netclus/internal/network"
	"netclus/internal/testnet"
)

// TestHammerWritesReads (run under -race in CI) interleaves mutation batches
// and range/kNN/DBSCAN reads. Every
// reader pins one published view and asserts internal consistency against
// the epoch it reports: the pinned graph answers identically across repeated
// queries, the live labelling length matches the pinned point count, and
// epochs observed by each goroutine only move forward.
func TestHammerWritesReads(t *testing.T) {
	g, err := testnet.Random(23, 40, 120)
	if err != nil {
		t.Fatalf("Random: %v", err)
	}
	o, err := delta.New(g, delta.Options{
		Live: &delta.LiveOptions{Eps: testEps, MinPts: testMinPts},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer o.Close()
	ctx := context.Background()

	const (
		writers    = 4
		readers    = 4
		batchesPer = 40
		readsPer   = 60
	)
	var (
		wg       sync.WaitGroup
		applied  atomic.Int64
		rejected atomic.Int64
	)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < batchesPer; i++ {
				cur := o.Current()
				var ops []delta.Op
				for len(ops) < 1+rng.Intn(4) {
					switch rng.Intn(3) {
					case 0:
						ops = append(ops, delta.InsertNear(network.PointID(rng.Intn(cur.Points)), rng.Float64(), int32(rng.Intn(3))))
					case 1:
						ops = append(ops, delta.MoveSame(network.PointID(rng.Intn(cur.Points)), rng.Float64()))
					default:
						if cur.Points > 40 {
							ops = append(ops, delta.Delete(network.PointID(rng.Intn(cur.Points))))
						}
					}
				}
				// Concurrent writers race on IDs of a moving epoch; whole-batch
				// rejection (stale or duplicate targets) is expected and must
				// leave no partial effects — the oracle tests prove that part.
				if _, err := o.Apply(ctx, ops); err != nil {
					if errors.Is(err, delta.ErrClosed) {
						t.Errorf("overlay closed under writer: %v", err)
						return
					}
					rejected.Add(1)
					continue
				}
				applied.Add(1)
			}
		}(int64(w) + 1)
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			lastEpoch := int64(0)
			for i := 0; i < readsPer; i++ {
				cur := o.Current()
				if cur.Epoch < lastEpoch {
					t.Errorf("epoch went backwards: %d -> %d", lastEpoch, cur.Epoch)
					return
				}
				lastEpoch = cur.Epoch
				if cur.Graph.NumPoints() != cur.Points {
					t.Errorf("epoch %d: graph has %d points, Current says %d",
						cur.Epoch, cur.Graph.NumPoints(), cur.Points)
					return
				}
				p := network.PointID(rng.Intn(cur.Points))
				sc := network.ScratchFor(cur.Graph)
				first, err := sc.RangeQueryDistCtx(ctx, cur.Graph, p, testEps)
				if err != nil {
					t.Errorf("epoch %d: range: %v", cur.Epoch, err)
					return
				}
				firstCopy := append([]network.PointDist{}, first...)
				again, err := sc.RangeQueryDistCtx(ctx, cur.Graph, p, testEps)
				if err != nil || !reflect.DeepEqual(firstCopy, append([]network.PointDist{}, again...)) {
					t.Errorf("epoch %d: pinned view not frozen: %v vs %v (%v)", cur.Epoch, firstCopy, again, err)
					return
				}
				if _, err := network.KNearestNeighborsCtx(ctx, cur.Graph, p, 5); err != nil {
					t.Errorf("epoch %d: knn: %v", cur.Epoch, err)
					return
				}
				labels, _, _, ok := cur.LiveDBSCAN(testEps, testMinPts)
				if !ok || len(labels) != cur.Points {
					t.Errorf("epoch %d: live labels %d for %d points (ok=%v)", cur.Epoch, len(labels), cur.Points, ok)
					return
				}
				if i%20 == 10 {
					// Full recompute on the pinned view must match the labels
					// published with it.
					res, err := core.DBSCANCtx(ctx, cur.Graph, core.DBSCANOptions{Eps: testEps, MinPts: testMinPts})
					if err != nil {
						t.Errorf("epoch %d: dbscan: %v", cur.Epoch, err)
						return
					}
					if !reflect.DeepEqual(append([]int32{}, labels...), res.Labels) {
						t.Errorf("epoch %d: live labels diverge from recompute", cur.Epoch)
						return
					}
				}
			}
		}(int64(r) + 100)
	}

	wg.Wait()
	if applied.Load() == 0 {
		t.Fatalf("no batch applied (%d rejected) — hammer exercised nothing", rejected.Load())
	}
	// Quiesced: the final view must agree with a full rebuild of itself.
	cur := o.Current()
	m := newModel(cur.Graph)
	checkGraphEqual(t, m.rebuild(t, g.NumNodes()), cur.Graph)
	checkLiveEqual(t, cur, testEps, testMinPts)
	st := o.Stats()
	if st.Batches != applied.Load() || st.Rejected != rejected.Load() {
		t.Fatalf("stats %+v disagree with observed %d applied / %d rejected", st, applied.Load(), rejected.Load())
	}
	if st.Epoch != cur.Epoch || st.Points != cur.Points {
		t.Fatalf("stats %+v disagree with current %+v", st, cur)
	}
}
