package delta

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"netclus/internal/csr"
	"netclus/internal/datagen"
	"netclus/internal/network"
)

// The write-path benchmarks run on the road stand-in the serve-write
// workload serves: TG ×1.0 compiled to a snapshot, ε from its generator,
// MinPts 3, CompactOps 1024. Run them at one core to size a batch the way
// that workload pays for it:
//
//	go test -run '^$' -bench 'LiveBatch|Freeze|Derive' -benchmem -cpu 1 ./internal/delta

const benchCompactOps = 1024

var benchTG struct {
	once sync.Once
	sn   *csr.Snapshot
	eps  float64
	err  error
}

// tgSnapshot compiles the TG ×1.0 stand-in once per test binary.
func tgSnapshot(b *testing.B) (*csr.Snapshot, float64) {
	b.Helper()
	benchTG.once.Do(func() {
		g, cfg, err := datagen.RoadDataset("TG", 1.0, 10)
		if err != nil {
			benchTG.err = err
			return
		}
		benchTG.eps = cfg.Eps()
		benchTG.sn, benchTG.err = csr.Compile(g)
	})
	if benchTG.err != nil {
		b.Fatal(benchTG.err)
	}
	return benchTG.sn, benchTG.eps
}

// benchOps draws one write batch the way the serve-write clients do: 1–8
// ops on distinct points, 60 % insert-near, 30 % same-edge move, 10 % delete,
// over the IDs a little below the current point count.
func benchOps(rng *rand.Rand, points int) []Op {
	n := 1 + rng.Intn(8)
	ops := make([]Op, 0, n)
	used := make(map[network.PointID]bool, n)
	for len(ops) < n {
		p := network.PointID(rng.Intn(points - 64))
		if used[p] {
			continue
		}
		used[p] = true
		frac := rng.Float64()
		switch u := rng.Float64(); {
		case u < 0.6:
			ops = append(ops, InsertNear(p, frac, 0))
		case u < 0.9:
			ops = append(ops, MoveSame(p, frac))
		default:
			ops = append(ops, Delete(p))
		}
	}
	return ops
}

// benchOverlay opens an overlay over the TG stand-in, with live clustering
// or without, applies first and then warm batches to it.
func benchOverlay(b *testing.B, live bool, first []Op, warm int) (*Overlay, *rand.Rand) {
	b.Helper()
	sn, eps := tgSnapshot(b)
	opts := Options{CompactOps: benchCompactOps}
	if live {
		opts.Live = &LiveOptions{Eps: eps, MinPts: 3}
	}
	o, err := New(sn, opts)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	ctx := context.Background()
	if len(first) > 0 {
		if _, err := o.Apply(ctx, first); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < warm; i++ {
		if _, err := o.Apply(ctx, benchOps(rng, o.Current().Points)); err != nil {
			b.Fatal(err)
		}
	}
	return o, rng
}

// BenchmarkLiveBatch times one write batch end to end: queue, apply, freeze,
// live repair and labels, publish, and every CompactOps ops a rebase. Each
// of the framework's calls opens a fresh overlay, its bootstrap untimed, and
// applies b.N batches to it, so -benchtime 3000x times 3000 batches from the
// base as the dataset grows, as a served one does.
func BenchmarkLiveBatch(b *testing.B) {
	for _, mode := range []struct {
		name string
		live bool
	}{{"live=off", false}, {"live=on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var o *Overlay
			var rng *rand.Rand
			b.Cleanup(func() {
				if o != nil {
					o.Close()
				}
			})
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if o == nil {
					b.StopTimer()
					o, rng = benchOverlay(b, mode.live, nil, 0)
					b.StartTimer()
				}
				if _, err := o.Apply(ctx, benchOps(rng, o.Current().Points)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// quiescentOverlay is a live overlay that had its first base group emptied,
// took 200 warm batches (≈ 900 ops, below one compaction) and was then
// closed: its reconciler is gone, so a benchmark may drive freeze and derive
// on the state it left.
func quiescentOverlay(b *testing.B) *Overlay {
	b.Helper()
	sn, _ := tgSnapshot(b)
	pg, err := sn.Group(0)
	if err != nil {
		b.Fatal(err)
	}
	empty := make([]Op, pg.Count)
	for i := range empty {
		empty[i] = Delete(pg.First + network.PointID(i))
	}
	o, _ := benchOverlay(b, true, empty, 200)
	o.Close()
	if len(o.adopted) == 0 {
		b.Fatal("the warm batches left no delta to freeze")
	}
	return o
}

// BenchmarkFreeze times the merged view of a closed overlay: "shared" is a
// batch that left the populated edges alone and reuses the last view's
// adjacency, "renumber" one that moved them and renumbers the base's, with
// the emptied group's edge unpopulated.
func BenchmarkFreeze(b *testing.B) {
	o := quiescentOverlay(b)
	for _, mode := range []struct {
		name  string
		moved bool
	}{{"shared", false}, {"renumber", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				o.adjMoved = mode.moved
				sn, _, _ := o.freeze(o.nextSlot)
				if sn.NumPoints() != o.points {
					b.Fatalf("froze %d points, want %d", sn.NumPoints(), o.points)
				}
			}
		})
	}
}

// BenchmarkDerive times the canonical label pass of a closed live overlay
// over its last published view.
func BenchmarkDerive(b *testing.B) {
	o := quiescentOverlay(b)
	idToSlot := o.Current().idToSlot
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.live.derive(idToSlot)
	}
}
