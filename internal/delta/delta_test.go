// Equivalence suite for the delta overlay: after any mutation sequence, the
// frozen merged view must be record-for-record and kernel-for-kernel
// identical to a from-scratch Builder rebuild of the same logical content,
// and the incrementally maintained ε-Link/DBSCAN labellings must match a
// full recompute — over in-memory, compiled-snapshot, and snapshot-file
// bases. The oracle is an independent flat model ordered by
// (edge key, offset, insertion sequence), the exact order Builder.Build's
// stable sort produces.
package delta_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"unsafe"

	"netclus/internal/core"
	"netclus/internal/csr"
	"netclus/internal/delta"
	"netclus/internal/network"
	"netclus/internal/testnet"
)

// modelPoint is one logical point in the oracle: its canonical edge key,
// offset, tag, and a global insertion sequence number that reproduces the
// stable-sort tie order among equal offsets.
type modelPoint struct {
	key uint64
	pos float64
	tag int32
	seq int64
}

type edgeRec struct {
	u, v network.NodeID
	w    float64
}

// model tracks the expected canonical point sequence independently of the
// overlay's data structures.
type model struct {
	pts   []modelPoint // always in canonical (key, pos, seq) order
	edges map[uint64]edgeRec
	seq   int64
}

func newModel(g network.Graph) *model {
	m := &model{edges: make(map[uint64]edgeRec)}
	for u := 0; u < g.NumNodes(); u++ {
		nbs, _ := g.Neighbors(network.NodeID(u))
		for _, nb := range nbs {
			if nb.Node > network.NodeID(u) {
				m.edges[network.EdgeKey(network.NodeID(u), nb.Node)] = edgeRec{u: network.NodeID(u), v: nb.Node, w: nb.Weight}
			}
		}
	}
	_ = g.ScanGroups(func(_ network.GroupID, pg network.PointGroup, offs []float64) error {
		key := network.EdgeKey(pg.N1, pg.N2)
		for i, pos := range offs {
			p := pg.First + network.PointID(i)
			pi, _ := g.PointInfo(p)
			m.pts = append(m.pts, modelPoint{key: key, pos: pos, tag: pi.Tag, seq: m.seq})
			m.seq++
		}
		return nil
	})
	return m
}

// insertAt places a fresh point at the canonical rank the Builder's stable
// sort would give it: after every existing entry with (key, pos) <= its own.
func (m *model) insertAt(key uint64, pos float64, tag int32) {
	i := len(m.pts)
	for i > 0 && (m.pts[i-1].key > key || (m.pts[i-1].key == key && m.pts[i-1].pos > pos)) {
		i--
	}
	m.pts = append(m.pts, modelPoint{})
	copy(m.pts[i+1:], m.pts[i:])
	m.pts[i] = modelPoint{key: key, pos: pos, tag: tag, seq: m.seq}
	m.seq++
}

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// apply mirrors one op batch onto the model. Batches reaching here are
// pre-validated by the generator, so resolution cannot fail.
func (m *model) apply(ops []delta.Op) {
	// Resolve every move/delete target against the pre-batch content first,
	// exactly like the overlay does; a seq is unique, so targets stay
	// addressable while earlier ops in the batch reshuffle ranks.
	type target struct{ seq int64 }
	targets := make([]target, len(ops))
	nears := make([]modelPoint, len(ops))
	for i, op := range ops {
		if op.Kind == delta.OpMove || op.Kind == delta.OpDelete {
			targets[i] = target{seq: m.pts[op.Point].seq}
		}
		if op.Edge == delta.EdgeNear {
			nears[i] = m.pts[op.Near]
		}
	}
	bySeq := func(seq int64) int {
		for i := range m.pts {
			if m.pts[i].seq == seq {
				return i
			}
		}
		return -1
	}
	dest := func(i int, op delta.Op) (uint64, float64) {
		if op.Edge == delta.EdgeNear {
			key := nears[i].key
			return key, clamp01(op.Pos) * m.edges[key].w
		}
		n1, n2 := network.CanonEdge(op.N1, op.N2)
		return network.EdgeKey(n1, n2), op.Pos
	}
	for i, op := range ops {
		switch op.Kind {
		case delta.OpInsert:
			key, pos := dest(i, op)
			m.insertAt(key, pos, op.Tag)
		case delta.OpDelete:
			at := bySeq(targets[i].seq)
			m.pts = append(m.pts[:at], m.pts[at+1:]...)
		case delta.OpMove:
			at := bySeq(targets[i].seq)
			old := m.pts[at]
			m.pts = append(m.pts[:at], m.pts[at+1:]...)
			if op.Edge == delta.EdgeSame {
				m.insertAt(old.key, clamp01(op.Pos)*m.edges[old.key].w, old.tag)
			} else {
				key, pos := dest(i, op)
				m.insertAt(key, pos, old.tag)
			}
		}
	}
}

// rebuild constructs the from-scratch network for the model's content,
// feeding points in canonical order so the stable sort keeps it.
func (m *model) rebuild(t *testing.T, nodes int) *network.Network {
	t.Helper()
	b := network.NewBuilder()
	b.AddNodes(nodes)
	for _, e := range m.edges {
		b.AddEdge(e.u, e.v, e.w)
	}
	for _, mp := range m.pts {
		n1, n2 := network.UnpackEdgeKey(mp.key)
		b.AddPoint(n1, n2, mp.pos, mp.tag)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	return g
}

// randomOps generates one valid batch against the model's current content.
func randomOps(rng *rand.Rand, m *model, n int) []delta.Op {
	keys := make([]uint64, 0, len(m.edges))
	for k := range m.edges {
		keys = append(keys, k)
	}
	// map order is random; sort for per-seed determinism
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	var ops []delta.Op
	livePts := len(m.pts)
	for len(ops) < n {
		switch k := rng.Intn(10); {
		case k < 4: // insert
			key := keys[rng.Intn(len(keys))]
			e := m.edges[key]
			// The donor is a pre-batch ID: livePts counts this batch's own
			// inserts too, which no ID names yet.
			if rng.Intn(3) == 0 && len(m.pts) > 0 {
				ops = append(ops, delta.InsertNear(network.PointID(rng.Intn(len(m.pts))), rng.Float64(), int32(rng.Intn(5))))
			} else {
				ops = append(ops, delta.Insert(e.u, e.v, rng.Float64()*e.w, int32(rng.Intn(5))))
			}
			livePts++
		case k < 7: // move
			if livePts == 0 {
				continue
			}
			p := network.PointID(rng.Intn(livePts))
			if rng.Intn(2) == 0 {
				ops = append(ops, delta.MoveSame(p, rng.Float64()))
			} else {
				key := keys[rng.Intn(len(keys))]
				e := m.edges[key]
				ops = append(ops, delta.Move(p, e.u, e.v, rng.Float64()*e.w))
			}
		default: // delete
			if livePts == 0 {
				continue
			}
			ops = append(ops, delta.Delete(network.PointID(rng.Intn(livePts))))
			livePts--
		}
		// One batch resolves against pre-batch IDs: cap targets to the
		// pre-batch count and avoid duplicate targets, which would reject.
		if dup := func() bool {
			last := ops[len(ops)-1]
			if last.Kind == delta.OpInsert {
				return false
			}
			if int(last.Point) >= len(m.pts) {
				return true
			}
			for _, prev := range ops[:len(ops)-1] {
				if prev.Kind != delta.OpInsert && prev.Point == last.Point {
					return true
				}
			}
			return false
		}(); dup {
			ops = ops[:len(ops)-1]
			if ops == nil || len(ops) == 0 {
				continue
			}
		}
	}
	return ops
}

func sortedIDs(ids []network.PointID) []network.PointID {
	out := append([]network.PointID{}, ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkGraphEqual asserts two graphs are record-for-record identical.
func checkGraphEqual(t *testing.T, want, got network.Graph) {
	t.Helper()
	if want.NumNodes() != got.NumNodes() || want.NumEdges() != got.NumEdges() ||
		want.NumPoints() != got.NumPoints() || want.NumGroups() != got.NumGroups() {
		t.Fatalf("cardinalities: want (%d,%d,%d,%d), got (%d,%d,%d,%d)",
			want.NumNodes(), want.NumEdges(), want.NumPoints(), want.NumGroups(),
			got.NumNodes(), got.NumEdges(), got.NumPoints(), got.NumGroups())
	}
	for u := 0; u < want.NumNodes(); u++ {
		w, _ := want.Neighbors(network.NodeID(u))
		g, _ := got.Neighbors(network.NodeID(u))
		if !reflect.DeepEqual(append([]network.Neighbor{}, w...), append([]network.Neighbor{}, g...)) {
			t.Fatalf("node %d adjacency: want %v, got %v", u, w, g)
		}
	}
	for gi := 0; gi < want.NumGroups(); gi++ {
		w, _ := want.Group(network.GroupID(gi))
		g, err := got.Group(network.GroupID(gi))
		if err != nil || w != g {
			t.Fatalf("group %d: want %+v, got %+v (%v)", gi, w, g, err)
		}
		wo, _ := want.GroupOffsets(network.GroupID(gi))
		go_, _ := got.GroupOffsets(network.GroupID(gi))
		if !reflect.DeepEqual(append([]float64{}, wo...), append([]float64{}, go_...)) {
			t.Fatalf("group %d offsets: want %v, got %v", gi, wo, go_)
		}
	}
	for p := 0; p < want.NumPoints(); p++ {
		w, _ := want.PointInfo(network.PointID(p))
		g, err := got.PointInfo(network.PointID(p))
		if err != nil || w != g {
			t.Fatalf("point %d: want %+v, got %+v (%v)", p, w, g, err)
		}
	}
}

// checkKernelsEqual runs range, kNN and the clustering algorithms on both
// graphs and asserts byte-identical results.
func checkKernelsEqual(t *testing.T, want, got network.Graph, eps float64, minPts int) {
	t.Helper()
	ctx := context.Background()
	n := want.NumPoints()
	if n == 0 {
		return
	}
	scW, scG := network.ScratchFor(want), network.ScratchFor(got)
	for _, p := range []int{0, n / 2, n - 1} {
		// ID-only range order is kernel-specific; the contract is on the set.
		w, err := scW.RangeQueryCtx(ctx, want, network.PointID(p), eps)
		if err != nil {
			t.Fatalf("range want: %v", err)
		}
		g, err := scG.RangeQueryCtx(ctx, got, network.PointID(p), eps)
		if err != nil {
			t.Fatalf("range got: %v", err)
		}
		if !reflect.DeepEqual(sortedIDs(w), sortedIDs(g)) {
			t.Fatalf("range(%d, %g): want %v, got %v", p, eps, sortedIDs(w), sortedIDs(g))
		}
		// The dists flavour has one canonical (dist, point) order everywhere.
		wd, err := scW.RangeQueryDistCtx(ctx, want, network.PointID(p), eps)
		if err != nil {
			t.Fatalf("range dists want: %v", err)
		}
		gd, err := scG.RangeQueryDistCtx(ctx, got, network.PointID(p), eps)
		if err != nil {
			t.Fatalf("range dists got: %v", err)
		}
		if !reflect.DeepEqual(append([]network.PointDist{}, wd...), append([]network.PointDist{}, gd...)) {
			t.Fatalf("range dists(%d, %g): want %v, got %v", p, eps, wd, gd)
		}
		wk, err1 := network.KNearestNeighborsCtx(ctx, want, network.PointID(p), 4)
		gk, err2 := network.KNearestNeighborsCtx(ctx, got, network.PointID(p), 4)
		if err1 != nil || err2 != nil {
			t.Fatalf("knn: %v / %v", err1, err2)
		}
		if !reflect.DeepEqual(append([]network.PointDist{}, wk...), append([]network.PointDist{}, gk...)) {
			t.Fatalf("knn(%d): want %v, got %v", p, wk, gk)
		}
	}
	wd, err := core.DBSCANCtx(ctx, want, core.DBSCANOptions{Eps: eps, MinPts: minPts})
	if err != nil {
		t.Fatalf("dbscan want: %v", err)
	}
	gd, err := core.DBSCANCtx(ctx, got, core.DBSCANOptions{Eps: eps, MinPts: minPts})
	if err != nil {
		t.Fatalf("dbscan got: %v", err)
	}
	if !reflect.DeepEqual(wd.Labels, gd.Labels) || wd.CorePoints != gd.CorePoints {
		t.Fatalf("dbscan labels diverge: want %v, got %v", wd.Labels, gd.Labels)
	}
	we, err := core.EpsLinkCtx(ctx, want, core.EpsLinkOptions{Eps: eps})
	if err != nil {
		t.Fatalf("epslink want: %v", err)
	}
	ge, err := core.EpsLinkCtx(ctx, got, core.EpsLinkOptions{Eps: eps})
	if err != nil {
		t.Fatalf("epslink got: %v", err)
	}
	if !reflect.DeepEqual(we.Labels, ge.Labels) {
		t.Fatalf("epslink labels diverge: want %v, got %v", we.Labels, ge.Labels)
	}
}

// checkLiveEqual asserts the maintained labellings match a full recompute on
// the same view.
func checkLiveEqual(t *testing.T, cur *delta.Current, eps float64, minPts int) {
	t.Helper()
	if err := liveDiff(cur, eps, minPts); err != nil {
		t.Fatal(err)
	}
}

// liveDiff is checkLiveEqual's comparison: nil when the maintained labellings,
// cluster counts and core-point count equal a full recompute on the same view.
func liveDiff(cur *delta.Current, eps float64, minPts int) error {
	ctx := context.Background()
	labels, clusters, corePts, ok := cur.LiveDBSCAN(eps, minPts)
	if !ok {
		return errors.New("LiveDBSCAN unavailable")
	}
	want, err := core.DBSCANCtx(ctx, cur.Graph, core.DBSCANOptions{Eps: eps, MinPts: minPts})
	if err != nil {
		return fmt.Errorf("dbscan recompute: %v", err)
	}
	if !reflect.DeepEqual(append([]int32{}, labels...), want.Labels) {
		return fmt.Errorf("live dbscan labels diverge:\nlive %v\nfull %v", labels, want.Labels)
	}
	if corePts != want.CorePoints || int(clusters) != core.CountClusters(want.Labels) {
		return fmt.Errorf("live dbscan meta: %d cores / %d clusters, want %d / %d",
			corePts, clusters, want.CorePoints, core.CountClusters(want.Labels))
	}
	elabels, eclusters, ok := cur.LiveEpsLink(eps)
	if !ok {
		return errors.New("LiveEpsLink unavailable")
	}
	wantE, err := core.EpsLinkCtx(ctx, cur.Graph, core.EpsLinkOptions{Eps: eps})
	if err != nil {
		return fmt.Errorf("epslink recompute: %v", err)
	}
	if !reflect.DeepEqual(append([]int32{}, elabels...), wantE.Labels) {
		return fmt.Errorf("live epslink labels diverge:\nlive %v\nfull %v", elabels, wantE.Labels)
	}
	if int(eclusters) != wantE.ClustersFound {
		return fmt.Errorf("live epslink clusters %d, want %d", eclusters, wantE.ClustersFound)
	}
	return nil
}

// bases returns the backend zoo: the in-memory network, its compiled
// snapshot, and the snapshot round-tripped through a file.
func bases(t *testing.T, g *network.Network) map[string]network.Graph {
	t.Helper()
	sn, err := csr.Compile(g)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	path := t.TempDir() + "/base.ncsnap"
	if err := csr.WriteSnapshotFile(sn, path); err != nil {
		t.Fatalf("WriteSnapshotFile: %v", err)
	}
	fsn, err := csr.OpenSnapshot(path)
	if err != nil {
		t.Fatalf("OpenSnapshot: %v", err)
	}
	return map[string]network.Graph{"network": g, "snapshot": sn, "snapfile": fsn}
}

const (
	testEps    = 3.0
	testMinPts = 3
)

func TestOverlayEquivalence(t *testing.T) {
	g, err := testnet.Random(13, 30, 60)
	if err != nil {
		t.Fatalf("Random: %v", err)
	}
	for name, base := range bases(t, g) {
		t.Run(name, func(t *testing.T) {
			o, err := delta.New(base, delta.Options{
				CompactOps: -1, // compaction covered separately
				Live:       &delta.LiveOptions{Eps: testEps, MinPts: testMinPts},
			})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer o.Close()
			m := newModel(base)
			rng := rand.New(rand.NewSource(42))
			epoch := o.Current().Epoch
			for round := 0; round < 30; round++ {
				ops := randomOps(rng, m, 1+rng.Intn(6))
				m.apply(ops)
				res, err := o.Apply(context.Background(), ops)
				if err != nil {
					t.Fatalf("round %d: Apply: %v", round, err)
				}
				if res.Epoch != epoch+1 {
					t.Fatalf("round %d: epoch %d, want %d (exactly one bump per batch)", round, res.Epoch, epoch+1)
				}
				epoch = res.Epoch
				cur := o.Current()
				if cur.Epoch != epoch || cur.Points != len(m.pts) || res.Points != len(m.pts) {
					t.Fatalf("round %d: view (epoch %d, %d pts), want (%d, %d)",
						round, cur.Epoch, cur.Points, epoch, len(m.pts))
				}
				rebuilt := m.rebuild(t, base.NumNodes())
				checkGraphEqual(t, rebuilt, cur.Graph)
				if round%5 == 4 {
					checkKernelsEqual(t, rebuilt, cur.Graph, testEps, testMinPts)
				}
				checkLiveEqual(t, cur, testEps, testMinPts)
			}
		})
	}
}

func TestBatchAtomicityAndErrors(t *testing.T) {
	g, err := testnet.Random(5, 15, 20)
	if err != nil {
		t.Fatalf("Random: %v", err)
	}
	o, err := delta.New(g, delta.Options{CompactOps: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer o.Close()
	ctx := context.Background()
	cur := o.Current()

	// A batch whose last op is invalid must apply nothing and keep the epoch.
	bad := []delta.Op{
		delta.InsertNear(0, 0.5, 7),
		delta.Delete(network.PointID(cur.Points + 5)),
	}
	if _, err := o.Apply(ctx, bad); err == nil {
		t.Fatal("want error for out-of-range delete")
	}
	after := o.Current()
	if after.Epoch != cur.Epoch || after.Points != cur.Points {
		t.Fatalf("rejected batch mutated the view: %+v -> %+v", cur, after)
	}
	if _, err := o.Apply(ctx, nil); err == nil {
		t.Fatal("want error for empty batch")
	}
	// Duplicate targets in one batch reject as a whole.
	if _, err := o.Apply(ctx, []delta.Op{delta.Delete(1), delta.Delete(1)}); err == nil {
		t.Fatal("want error for duplicate target")
	}
	if got := o.Current(); got.Epoch != cur.Epoch {
		t.Fatalf("epoch moved to %d on rejected batches", got.Epoch)
	}
	// Self-loop and unknown-edge inserts reject.
	if _, err := o.Apply(ctx, []delta.Op{delta.Insert(2, 2, 0, 0)}); err == nil {
		t.Fatal("want error for self-loop edge")
	}
	if st := o.Stats(); st.Rejected < 3 {
		t.Fatalf("rejected counter %d, want >= 3", st.Rejected)
	}
}

func TestCompaction(t *testing.T) {
	g, err := testnet.Random(31, 30, 60)
	if err != nil {
		t.Fatalf("Random: %v", err)
	}
	o, err := delta.New(g, delta.Options{
		CompactOps: -1,
		Live:       &delta.LiveOptions{Eps: testEps, MinPts: testMinPts},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer o.Close()
	ctx := context.Background()
	m := newModel(g)
	rng := rand.New(rand.NewSource(7))

	// Nothing pending: CompactNow is a no-op, no epoch churn.
	before := o.Current().Epoch
	if err := o.CompactNow(); err != nil {
		t.Fatalf("empty CompactNow: %v", err)
	}
	if got := o.Current().Epoch; got != before {
		t.Fatalf("empty compaction bumped epoch %d -> %d", before, got)
	}

	for round := 0; round < 8; round++ {
		ops := randomOps(rng, m, 5)
		m.apply(ops)
		if _, err := o.Apply(ctx, ops); err != nil {
			t.Fatalf("Apply: %v", err)
		}
		pre := o.Current()
		if err := o.CompactNow(); err != nil {
			t.Fatalf("CompactNow: %v", err)
		}
		cur := o.Current()
		if cur.Epoch != pre.Epoch+1 {
			t.Fatalf("compaction bumped epoch %d -> %d, want exactly one", pre.Epoch, cur.Epoch)
		}
		// Post-compaction the delta is empty: serving drops back to the raw
		// CSR snapshot and the specialized kernels.
		if _, ok := cur.Graph.(*csr.Snapshot); !ok {
			t.Fatalf("post-compaction graph is %T, want *csr.Snapshot", cur.Graph)
		}
		rebuilt := m.rebuild(t, g.NumNodes())
		checkGraphEqual(t, rebuilt, cur.Graph)
		checkKernelsEqual(t, rebuilt, cur.Graph, testEps, testMinPts)
		checkLiveEqual(t, cur, testEps, testMinPts)
	}
	st := o.Stats()
	if st.Compactions != 8 || st.PendingOps != 0 {
		t.Fatalf("stats after 8 compactions: %+v", st)
	}
	if st.LastCompileMS < 0 || st.LastPauseMS < 0 || st.MaxPauseMS < st.LastPauseMS {
		t.Fatalf("implausible pause accounting: %+v", st)
	}

	// Writes after a compaction keep working against the swapped base.
	ops := randomOps(rng, m, 4)
	m.apply(ops)
	if _, err := o.Apply(ctx, ops); err != nil {
		t.Fatalf("post-compaction Apply: %v", err)
	}
	checkGraphEqual(t, m.rebuild(t, g.NumNodes()), o.Current().Graph)
	checkLiveEqual(t, o.Current(), testEps, testMinPts)
}

func TestSizeTriggeredCompaction(t *testing.T) {
	g, err := testnet.Random(3, 20, 30)
	if err != nil {
		t.Fatalf("Random: %v", err)
	}
	o, err := delta.New(g, delta.Options{CompactOps: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer o.Close()
	m := newModel(g)
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 6; round++ {
		ops := randomOps(rng, m, 3)
		m.apply(ops)
		if _, err := o.Apply(context.Background(), ops); err != nil {
			t.Fatalf("Apply: %v", err)
		}
	}
	// The size trigger rebased on the reconciler; CompactNow folds the rest.
	if err := o.CompactNow(); err != nil {
		t.Fatalf("CompactNow: %v", err)
	}
	if st := o.Stats(); st.Compactions == 0 {
		t.Fatalf("size trigger never fired: %+v", st)
	}
	checkGraphEqual(t, m.rebuild(t, g.NumNodes()), o.Current().Graph)
}

func TestViewPinning(t *testing.T) {
	g, err := testnet.Random(17, 25, 40)
	if err != nil {
		t.Fatalf("Random: %v", err)
	}
	o, err := delta.New(g, delta.Options{CompactOps: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer o.Close()
	ctx := context.Background()
	pinned := o.Current()
	wantN := pinned.Points
	sc := network.ScratchFor(pinned.Graph)
	before, err := sc.RangeQueryCtx(ctx, pinned.Graph, 0, testEps)
	if err != nil {
		t.Fatal(err)
	}
	before = append([]network.PointID{}, before...)
	for i := 0; i < 5; i++ {
		if _, err := o.Apply(ctx, []delta.Op{delta.InsertNear(0, 0.1, 0)}); err != nil {
			t.Fatalf("Apply: %v", err)
		}
	}
	// The pinned view is frozen: same cardinality, same answers, while the
	// published view moved on.
	if pinned.Graph.NumPoints() != wantN {
		t.Fatalf("pinned view grew: %d -> %d points", wantN, pinned.Graph.NumPoints())
	}
	again, err := sc.RangeQueryCtx(ctx, pinned.Graph, 0, testEps)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, append([]network.PointID{}, again...)) {
		t.Fatalf("pinned view answers changed: %v -> %v", before, again)
	}
	if cur := o.Current(); cur.Points != wantN+5 || cur.Epoch != pinned.Epoch+5 {
		t.Fatalf("published view (%d pts, epoch %d), want (%d, %d)",
			cur.Points, cur.Epoch, wantN+5, pinned.Epoch+5)
	}
}

// checkMatchesCompile asserts that a published view is byte for byte the
// snapshot csr.Compile builds from it: freeze derives exactly what a compile
// of the merged content would, so a rebase needs no compile.
func checkMatchesCompile(t *testing.T, g network.Graph) {
	t.Helper()
	var sn *csr.Snapshot
	switch v := g.(type) {
	case *delta.View:
		sn = v.Snapshot
	case *csr.Snapshot:
		sn = v
	default:
		t.Fatalf("published view is a %T, want a snapshot", g)
	}
	want, err := csr.Compile(g)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	var got, exp bytes.Buffer
	if _, err := sn.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if _, err := want.WriteTo(&exp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), exp.Bytes()) {
		t.Fatalf("view of %d points: its snapshot's bytes differ from a compile of it", g.NumPoints())
	}
}

// TestFreezeMatchesCompile drives an overlay through the two batches that
// renumber the adjacency — one empties a base group, one puts points on a
// point-free edge — then random batches around a rebase, and holds every
// published view to a compile of it, byte for byte.
func TestFreezeMatchesCompile(t *testing.T) {
	g, err := testnet.Random(19, 30, 60)
	if err != nil {
		t.Fatal(err)
	}
	base, err := csr.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	o, err := delta.New(base, delta.Options{CompactOps: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	ctx := context.Background()
	m := newModel(g)
	apply := func(ops []delta.Op) {
		t.Helper()
		m.apply(ops)
		if _, err := o.Apply(ctx, ops); err != nil {
			t.Fatalf("Apply: %v", err)
		}
		cur := o.Current()
		checkGraphEqual(t, m.rebuild(t, g.NumNodes()), cur.Graph)
		checkMatchesCompile(t, cur.Graph)
	}

	// Empty base group 0: its edge's adjacency entries lose their group.
	pg, err := base.Group(0)
	if err != nil {
		t.Fatal(err)
	}
	var ops []delta.Op
	for i := int32(0); i < pg.Count; i++ {
		ops = append(ops, delta.Delete(pg.First+network.PointID(i)))
	}
	apply(ops)
	want, _ := base.Neighbors(pg.N1)
	got, _ := o.Current().Graph.Neighbors(pg.N1)
	if reflect.DeepEqual(want, got) {
		t.Fatalf("emptying group 0 left node %d's adjacency as the base's", pg.N1)
	}

	// Populate a point-free edge.
	free := false
	for u := 0; u < g.NumNodes() && !free; u++ {
		nbs, _ := g.Neighbors(network.NodeID(u))
		for _, nb := range nbs {
			if nb.Group == network.NoGroup {
				apply([]delta.Op{delta.Insert(network.NodeID(u), nb.Node, nb.Weight/2, 3), delta.Insert(network.NodeID(u), nb.Node, nb.Weight/4, 4)})
				free = true
				break
			}
		}
	}
	if !free {
		t.Fatal("the base has no point-free edge; the test premise is gone")
	}

	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 20; round++ {
		apply(randomOps(rng, m, 1+rng.Intn(6)))
		if round == 9 {
			if err := o.CompactNow(); err != nil {
				t.Fatalf("CompactNow: %v", err)
			}
			checkMatchesCompile(t, o.Current().Graph)
		}
	}

	// The adjacency cache, on a fresh overlay over the same base: a view
	// shares the last view's adjacency while the populated edges stay the
	// same, and renumbers the base's when they move. Rows alias when shared.
	o2, err := delta.New(base, delta.Options{CompactOps: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer o2.Close()
	m2 := newModel(g)
	row := func() []network.Neighbor {
		nbs, _ := o2.Current().Graph.Neighbors(pg.N1)
		return nbs
	}
	step := func(ops []delta.Op) (prev, cur []network.Neighbor) {
		t.Helper()
		prev = row()
		m2.apply(ops)
		if _, err := o2.Apply(ctx, ops); err != nil {
			t.Fatalf("Apply: %v", err)
		}
		checkGraphEqual(t, m2.rebuild(t, g.NumNodes()), o2.Current().Graph)
		checkMatchesCompile(t, o2.Current().Graph)
		return prev, row()
	}
	same := func(a, b []network.Neighbor) bool { return &a[0] == &b[0] }
	baseRow, _ := base.Neighbors(pg.N1)
	// moveLast repositions the last point on its own edge, which stays
	// populated: groups 0 and 1 (A and B) are not the last.
	moveLast := func() []delta.Op {
		return []delta.Op{delta.MoveSame(network.PointID(o2.Current().Points-1), 0.5)}
	}

	// 1. Empty group A.
	if prev, cur := step(ops); same(prev, cur) {
		t.Fatal("emptying group A kept the base's adjacency")
	}
	// 2. A batch that leaves the populated set alone shares the adjacency.
	if prev, cur := step(moveLast()); !same(prev, cur) {
		t.Fatal("a batch that left the populated edges alone copied the adjacency")
	}
	// 3. Refill A: the populated set is the base's again, and so is the
	// adjacency.
	if _, cur := step([]delta.Op{delta.Insert(pg.N1, pg.N2, pg.Weight/2, 7)}); !same(cur, baseRow) {
		t.Fatal("refilling group A did not return to the base's adjacency")
	}
	// 4. Empty A again: its one point is the first of the view.
	if _, cur := step([]delta.Op{delta.Delete(0)}); same(cur, baseRow) {
		t.Fatal("emptying group A again kept the base's adjacency")
	}
	// 5. A rejected batch that would have emptied group B must not reach
	// the cache: the next batch that leaves the set alone still shares.
	pgB, err := base.Group(1)
	if err != nil {
		t.Fatal(err)
	}
	var reject []delta.Op
	for i := int32(0); i < pgB.Count; i++ {
		reject = append(reject, delta.Delete(network.PointID(i)))
	}
	reject = append(reject, delta.Delete(network.PointID(o2.Current().Points)))
	before := o2.Current()
	if _, err := o2.Apply(ctx, reject); !errors.Is(err, network.ErrPointRange) {
		t.Fatalf("a batch ending in an unknown point: err %v, want ErrPointRange", err)
	}
	if o2.Current() != before {
		t.Fatal("a rejected batch published a view")
	}
	if prev, cur := step(moveLast()); !same(prev, cur) {
		t.Fatal("after a rejected batch, a batch that left the populated edges alone copied the adjacency")
	}
	// 6. CompactNow: the view becomes the base, whose adjacency the next
	// batch that leaves the set alone shares.
	if err := o2.CompactNow(); err != nil {
		t.Fatalf("CompactNow: %v", err)
	}
	checkMatchesCompile(t, o2.Current().Graph)
	if prev, cur := step(moveLast()); !same(prev, cur) {
		t.Fatal("after a rebase, a batch that left the populated edges alone copied the adjacency")
	}
}

// TestSharedAdjacencyAllocatesNoCopy bounds what a batch that leaves the
// populated edges alone allocates, on a network whose adjacency outweighs
// its points many times over: less than half of one adjacency copy. The
// batch before it empties an edge and must pay for that copy, which shows
// that the measure sees one.
func TestSharedAdjacencyAllocatesNoCopy(t *testing.T) {
	g, err := testnet.Random(23, 4000, 40)
	if err != nil {
		t.Fatal(err)
	}
	base, err := csr.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	o, err := delta.New(base, delta.Options{CompactOps: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	ctx := context.Background()
	adjBytes := uint64(2*base.NumEdges()) * uint64(unsafe.Sizeof(network.Neighbor{}))
	allocated := func(ops []delta.Op) uint64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := o.Apply(ctx, ops); err != nil {
			t.Fatalf("Apply: %v", err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	pg, err := base.Group(0)
	if err != nil {
		t.Fatal(err)
	}
	var empty []delta.Op
	for i := int32(0); i < pg.Count; i++ {
		empty = append(empty, delta.Delete(pg.First+network.PointID(i)))
	}
	if got := allocated(empty); got < adjBytes {
		t.Fatalf("emptying an edge allocated %d B, less than the %d B adjacency copy it needs", got, adjBytes)
	}
	last := network.PointID(o.Current().Points - 1)
	if got := allocated([]delta.Op{delta.MoveSame(last, 0.5)}); got >= adjBytes/2 {
		t.Fatalf("a batch that left the populated edges alone allocated %d B; one adjacency copy is %d B", got, adjBytes)
	}
}
