package delta

import (
	"context"
	"math"
	"reflect"
	"testing"

	"netclus/internal/csr"
	"netclus/internal/network"
	"netclus/internal/testnet"
)

// TestLiveInsertRepairBatched checks the insert repair — the batched
// multi-source expansion through the kernel's RangeEach — against a full
// bootstrap. An all-insert batch is the worst case for the positional dedup
// rule: every ε-pair is an insert-insert pair, so every edge depends on the
// replayed pending-skip order.
func TestLiveInsertRepairBatched(t *testing.T) {
	g, err := testnet.Random(31, 50, 120)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := csr.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	n := sn.NumPoints()
	idToSlot := make([]int32, n)
	newIDs := make([]network.PointID, n)
	resolved := make([]resolvedOp, n)
	for p := 0; p < n; p++ {
		idToSlot[p] = int32(p)
		newIDs[p] = network.PointID(p)
		resolved[p] = resolvedOp{kind: rInsert, slot: int32(p)}
	}
	const eps, minPts = 0.8, 3

	var ctBoot liveCounters
	boot := newLive(eps, minPts, &ctBoot)
	want, err := boot.bootstrap(sn, idToSlot)
	if err != nil {
		t.Fatal(err)
	}

	var ct liveCounters
	l := newLive(eps, minPts, &ct)
	got, err := l.apply(sn, idToSlot, newIDs, resolved)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if !reflect.DeepEqual(want.elLabels, got.elLabels) || want.elClusters != got.elClusters {
		t.Fatal("insert repair ε-Link labelling diverged from bootstrap")
	}
	if !reflect.DeepEqual(want.dbLabels, got.dbLabels) || want.dbClusters != got.dbClusters ||
		want.corePoints != got.corePoints {
		t.Fatal("insert repair DBSCAN labelling diverged from bootstrap")
	}
	if ct.rangeQueries.Load() != int64(n) {
		t.Fatalf("repair ran %d range queries, want one per insert (%d)", ct.rangeQueries.Load(), n)
	}
}

// TestLiveRepairWorkBound pins what a write costs the maintainer, in the
// slots Stats.LiveRepairVisits counts. One insert into, and one delete out
// of, the interior of the largest generated cluster walk a neighbourhood —
// the point's ε-neighbours once as touched slots, and for the delete a split
// check that is over after a ring or two — and flood nothing, in a cluster
// of thousands. A delete that really cuts a component floods the pieces it
// leaves and nothing else.
func TestLiveRepairWorkBound(t *testing.T) {
	g, cfg, err := testnet.RandomClustered(3, 400, 6000, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	o, err := New(g, Options{Live: &LiveOptions{Eps: cfg.Eps(), MinPts: 3}})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	// interior returns the highest-degree point of the largest ε-Link
	// cluster, its degree and the cluster's size. Reading o.live between
	// Applies is ordered by their channel hand-offs.
	interior := func() (p network.PointID, deg, size int) {
		cur := o.Current()
		labels, clusters, _ := cur.LiveEpsLink(cfg.Eps())
		sizes := make([]int, clusters)
		for _, lab := range labels {
			sizes[lab]++
		}
		big := 0
		for lab, n := range sizes {
			if n > sizes[big] {
				big = lab
			}
		}
		for q, lab := range labels {
			if d := int(o.live.adj.deg[cur.idToSlot[q]]); int(lab) == big && d > deg {
				p, deg = network.PointID(q), d
			}
		}
		return p, deg, sizes[big]
	}
	step := func(op Op) (visits, floods int64) {
		before := o.Stats()
		if _, err := o.Apply(ctx, []Op{op}); err != nil {
			t.Fatal(err)
		}
		after := o.Stats()
		return after.LiveRepairVisits - before.LiveRepairVisits, after.LiveFloods - before.LiveFloods
	}

	p, deg, size := interior()
	if size < 20*deg {
		t.Fatalf("largest cluster has %d points around a degree-%d interior: too small to tell a neighbourhood from a cluster", size, deg)
	}
	if visits, floods := step(InsertNear(p, 0.5, 0)); floods != 0 || visits > int64(2*deg) {
		t.Fatalf("interior insert: %d visits, %d floods; want <= 2·degree = %d and none (cluster of %d)", visits, floods, 2*deg, size)
	}
	p, deg, size = interior()
	if visits, floods := step(Delete(p)); floods != 0 || visits > int64(3*deg) {
		t.Fatalf("interior delete: %d visits, %d floods; want <= 3·degree = %d and none (cluster of %d)", visits, floods, 3*deg, size)
	}

	// The bridge: a path with a point every half unit at ε = 0.5 is one chain,
	// and its middle point is the only link between the halves. With minPts 2
	// every point is core, so both graphs split in two: four floods, each
	// walking its own half once, after one split check per graph that
	// exhausted one half.
	line, err := testnet.Line(200, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	n := line.NumPoints()
	ol, err := New(line, Options{Live: &LiveOptions{Eps: 0.5, MinPts: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()
	if _, err := ol.Apply(ctx, []Op{Delete(network.PointID(n / 2))}); err != nil {
		t.Fatal(err)
	}
	st := ol.Stats()
	if _, clusters, _ := ol.Current().LiveEpsLink(0.5); clusters != 2 {
		t.Fatalf("bridge delete left %d ε-Link clusters, want 2", clusters)
	}
	if st.LiveFloods != 4 || st.LiveRepairVisits < int64(2*(n-1)) || st.LiveRepairVisits > int64(3*n+8) {
		t.Fatalf("bridge delete: %d floods, %d visits over %d points; want 4 floods and between two and three passes", st.LiveFloods, st.LiveRepairVisits, n)
	}
}

// TestLiveStampWrap drives batches across the stamp counter's clear-on-wrap:
// marks drawn before the clear must not read as live ones after it.
func TestLiveStampWrap(t *testing.T) {
	g, err := testnet.Line(40, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(g, Options{Live: &LiveOptions{Eps: 0.5, MinPts: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	ctx := context.Background()
	o.live.stamp = math.MaxInt32/2 - 3 // the first batch ends past the threshold, the second clears
	for i, clusters := range []int32{2, 3, 4} {
		if _, err := o.Apply(ctx, []Op{Delete(network.PointID(10 * (i + 1)))}); err != nil {
			t.Fatal(err)
		}
		if _, got, _ := o.Current().LiveEpsLink(0.5); got != clusters {
			t.Fatalf("after delete %d: %d clusters, want %d", i, got, clusters)
		}
	}
	if o.live.stamp > math.MaxInt32/4 {
		t.Fatalf("stamp %d never wrapped", o.live.stamp)
	}
}
