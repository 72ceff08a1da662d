package delta_test

import (
	"context"
	"math"
	"testing"

	"netclus/internal/delta"
	"netclus/internal/network"
	"netclus/internal/testnet"
)

// FuzzOverlayOps drives the overlay with an arbitrary byte-encoded op stream
// against the flat-model oracle: every applied batch must leave the merged
// view record-identical to a from-scratch rebuild and byte-identical to a
// compile of it, and the maintained labellings identical to a full recompute.
// Rejected batches must leave the view untouched.
func FuzzOverlayOps(f *testing.F) {
	f.Add([]byte{0x00, 0x11, 0x42, 0x83, 0x24, 0xc5})
	f.Add([]byte{0xff, 0xfe, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08})
	f.Add([]byte{0x40, 0x41, 0x42, 0x43, 0x80, 0x81, 0x82, 0x83})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := testnet.Line(12, 0.75)
		if err != nil {
			t.Fatalf("Line: %v", err)
		}
		o, err := delta.New(g, delta.Options{
			Live: &delta.LiveOptions{Eps: 2.0, MinPts: 2},
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer o.Close()
		m := newModel(g)
		keys := make([]uint64, 0, len(m.edges))
		for k := range m.edges {
			keys = append(keys, k)
		}
		for i := 1; i < len(keys); i++ {
			for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
				keys[j], keys[j-1] = keys[j-1], keys[j]
			}
		}
		ctx := context.Background()
		// Labels that diverge on a view with a pair an ulp off ε are not a
		// finding (pairAtEps); every other divergence is.
		checkLabels := func(cur *delta.Current) {
			if err := liveDiff(cur, 2.0, 2); err != nil && !pairAtEps(t, cur.Graph, 2.0) {
				t.Fatal(err)
			}
		}
		var batch []delta.Op
		flush := func() {
			if len(batch) == 0 {
				return
			}
			ops := batch
			batch = nil
			pre := o.Current()
			if _, err := o.Apply(ctx, ops); err != nil {
				// Rejected wholesale: the view must not have moved.
				if cur := o.Current(); cur.Epoch != pre.Epoch || cur.Points != pre.Points {
					t.Fatalf("rejected batch mutated view: %+v -> %+v (%v)", pre, cur, err)
				}
				return
			}
			m.apply(ops)
			cur := o.Current()
			if cur.Points != len(m.pts) {
				t.Fatalf("view has %d points, model %d", cur.Points, len(m.pts))
			}
			checkGraphEqual(t, m.rebuild(t, g.NumNodes()), cur.Graph)
			checkMatchesCompile(t, cur.Graph)
			checkLabels(cur)
		}
		// Decode three bytes per op; top bits of the first pick the kind.
		for i := 0; i+2 < len(data); i += 3 {
			b0, b1, b2 := data[i], data[i+1], data[i+2]
			live := len(m.pts) + countInserts(batch) - countRemovals(batch)
			switch b0 >> 6 {
			case 0: // explicit insert
				e := m.edges[keys[int(b1)%len(keys)]]
				batch = append(batch, delta.Insert(e.u, e.v, float64(b2)/255*e.w, int32(b0&7)))
			case 1: // near insert (may target an already-mutated point: rejection path)
				if live <= 0 {
					continue
				}
				batch = append(batch, delta.InsertNear(network.PointID(int(b1)%live), float64(b2)/255, int32(b0&7)))
			case 2: // move
				if live <= 0 {
					continue
				}
				p := network.PointID(int(b1) % live)
				if b0&1 == 0 {
					batch = append(batch, delta.MoveSame(p, float64(b2)/255))
				} else {
					e := m.edges[keys[int(b2)%len(keys)]]
					batch = append(batch, delta.Move(p, e.u, e.v, float64(b1)/255*e.w))
				}
			default: // delete
				if live <= 0 {
					continue
				}
				batch = append(batch, delta.Delete(network.PointID(int(b1)%live)))
			}
			if b2&3 == 0 || len(batch) >= 5 {
				flush()
			}
		}
		flush()
	})
}

// pairAtEps reports whether some pair on g lies within a few ulps of eps. On
// such a pair the labellers have no common answer: d(p,q) and d(q,p) are
// summed along the path in opposite orders, and the growth sweep tests
// `off + dist <= eps` where the range query — which the maintainer builds its
// edges from — tests `off <= eps - dist` (DESIGN §"Exactness"), so the pair is
// an edge to one and not to the other (ROADMAP, aim 3).
func pairAtEps(t *testing.T, g network.Graph, eps float64) bool {
	t.Helper()
	tol := 8 * (math.Nextafter(eps, math.Inf(1)) - eps)
	sc := network.ScratchFor(g)
	for p := 0; p < g.NumPoints(); p++ {
		res, err := sc.RangeQueryDistCtx(context.Background(), g, network.PointID(p), eps+tol)
		if err != nil {
			t.Fatalf("range(%d): %v", p, err)
		}
		for _, r := range res {
			if math.Abs(r.Dist-eps) <= tol {
				return true
			}
		}
	}
	return false
}

// countInserts/countRemovals approximate the live point count mid-batch so
// the generator mostly emits resolvable targets; exact resolvability is not
// required — rejections exercise the rollback path.
func countInserts(ops []delta.Op) int {
	n := 0
	for _, op := range ops {
		if op.Kind == delta.OpInsert {
			n++
		}
	}
	return n
}

func countRemovals(ops []delta.Op) int {
	n := 0
	for _, op := range ops {
		if op.Kind == delta.OpDelete {
			n++
		}
	}
	return n
}
