package core_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"netclus/internal/core"
)

func TestCountClusters(t *testing.T) {
	labels := []int32{0, 0, 1, core.Noise, 2, 2, 2, core.Noise}
	if n := core.CountClusters(labels); n != 3 {
		t.Fatalf("CountClusters = %d", n)
	}
	if n := core.CountClusters(nil); n != 0 {
		t.Fatalf("empty CountClusters = %d", n)
	}
}

func TestSuppressSmallClusters(t *testing.T) {
	labels := []int32{0, 0, 0, 1, 2, 2}
	out := core.SuppressSmallClusters(labels, 2)
	want := []int32{0, 0, 0, core.Noise, 2, 2}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("minSup=2: %v", out)
	}
	// minSup <= 1 is a no-op and must not copy.
	same := core.SuppressSmallClusters(labels, 1)
	if &same[0] != &labels[0] {
		t.Fatal("minSup=1 should return the input slice")
	}
	// Everything below a huge minSup becomes noise.
	out = core.SuppressSmallClusters([]int32{0, 1, 2}, 10)
	for _, l := range out {
		if l != core.Noise {
			t.Fatalf("all should be noise: %v", out)
		}
	}
}

// countClustersRef and suppressRef are the map-based definitions
// CountClusters and SuppressSmallClusters must agree with.
func countClustersRef(labels []int32) int {
	seen := make(map[int32]struct{})
	for _, l := range labels {
		if l != core.Noise {
			seen[l] = struct{}{}
		}
	}
	return len(seen)
}

func suppressRef(labels []int32, minSup int) []int32 {
	sizes := make(map[int32]int)
	for _, l := range labels {
		sizes[l]++
	}
	out := append([]int32(nil), labels...)
	for i, l := range out {
		if l != core.Noise && sizes[l] < minSup {
			out[i] = core.Noise
		}
	}
	return out
}

// TestCountAndSuppressMatchReference: the bitset count and the slice-sized
// suppression agree with the map definitions on dense and gapped labels, all
// noise, an empty slice, and the labels outside [0, len(labels)) that go to
// their map: a negative label other than Noise, one at or past the length,
// and math.MaxInt32.
func TestCountAndSuppressMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dense := make([]int32, 1000)
	for i := range dense {
		dense[i] = int32(rng.Intn(60)) - 1
	}
	gapped := core.SuppressSmallClusters(append([]int32(nil), dense...), 18)
	cases := []struct {
		name   string
		labels []int32
	}{
		{"dense", dense},
		{"gapped after suppression", gapped},
		{"all noise", []int32{core.Noise, core.Noise, core.Noise}},
		{"empty", []int32{}},
		{"nil", nil},
		{"negative non-noise", []int32{-2, -2, 0, -7, core.Noise, 1}},
		{"at and past the length", []int32{4, 4, 5, 3, 1000, core.Noise}},
		{"max int32", []int32{math.MaxInt32, 0, math.MaxInt32, math.MinInt32, 2}},
		{"one label", []int32{0}},
		{"bitset word edges", []int32{63, 64, 127, 128, 0, 63, 64}},
	}
	for _, tc := range cases {
		// Pad the short cases so the out-of-range labels sit next to a
		// bitset wider than one word.
		for _, labels := range [][]int32{tc.labels, append(append([]int32(nil), tc.labels...), make([]int32, 130)...)} {
			if got, want := core.CountClusters(labels), countClustersRef(labels); got != want {
				t.Errorf("%s (len %d): CountClusters = %d, want %d", tc.name, len(labels), got, want)
			}
			for _, minSup := range []int{0, 1, 2, 3, 20} {
				want := suppressRef(labels, minSup)
				got := core.SuppressSmallClusters(append([]int32(nil), labels...), minSup)
				if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
					t.Errorf("%s (len %d), minSup %d:\n got %v\nwant %v", tc.name, len(labels), minSup, got, want)
				}
			}
		}
	}
}

// TestCountClustersAllocs: counting 50 000 dense labels allocates the bitset
// and nothing else.
func TestCountClustersAllocs(t *testing.T) {
	labels := make([]int32, 50000)
	for i := range labels {
		labels[i] = int32(i%400) - 1
	}
	if got := testing.AllocsPerRun(20, func() { core.CountClusters(labels) }); got > 1 {
		t.Fatalf("CountClusters on 50 000 dense labels: %v allocations, want <= 1", got)
	}
}
