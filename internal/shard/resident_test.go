package shard

import (
	"math"
	"runtime"
	"testing"

	"netclus/internal/csr"
)

// liveHeap is the live heap after a forced collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestResidentBytesMatchHeap checks the footprint the snapshot and a 4-shard
// set report against the live heap their construction leaves behind: the
// accounting sizes its records with unsafe.Sizeof, so a layout change to
// network.Neighbor or network.PointGroup must move both numbers together.
// The snapshot row counts the network it is compiled from too: a snapshot
// holds the network's own arrays, so the two together cost one set of them.
func TestResidentBytesMatchHeap(t *testing.T) {
	g := testNetwork(t, 5, 20000, 40000)
	for _, tc := range []struct {
		name  string
		build func() (any, int64)
	}{
		{"snapshot", func() (any, int64) {
			sn, err := csr.Compile(testNetwork(t, 5, 20000, 40000))
			if err != nil {
				t.Fatal(err)
			}
			return sn, sn.Stats().ResidentBytes
		}},
		{"set-4", func() (any, int64) {
			set, err := Partition(g, 4)
			if err != nil {
				t.Fatal(err)
			}
			return set, set.Stats().ResidentBytes
		}},
	} {
		before := liveHeap()
		obj, reported := tc.build()
		grown := liveHeap() - before
		runtime.KeepAlive(obj)
		t.Logf("%s: reported %d B, live heap grew %d B (%.3f)", tc.name, reported, grown, float64(reported)/float64(grown))
		if math.Abs(float64(reported-grown)) > 0.1*float64(grown) {
			t.Errorf("%s: ResidentBytes = %d, but the live heap grew by %d", tc.name, reported, grown)
		}
	}
	runtime.KeepAlive(g)
}
