package netclus

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"
)

// The stats snapshots travel over the wire (netclusd /metrics labels and the
// /v1/datasets JSON), so their lowercase field names are a compatibility
// contract. These tests pin the exact key sets and check that marshalling
// round-trips every counter, so renaming a Go field without keeping its tag
// fails loudly instead of silently changing the payload.

func jsonKeys(t *testing.T, v any) []string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal %T: %v", v, err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("unmarshal %T: %v", v, err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func roundTrip[T any](t *testing.T, in T) {
	t.Helper()
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal %T: %v", in, err)
	}
	var out T
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("unmarshal %T: %v", in, err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("%T round trip: got %+v, want %+v", in, out, in)
	}
}

func TestStatsJSONRoundTrip(t *testing.T) {
	buf := BufferStats{LogicalReads: 1, PhysicalReads: 2, PageWrites: 3, Evictions: 4}
	roundTrip(t, buf)
	wantBuf := []string{"evictions", "logical_reads", "page_writes", "physical_reads"}
	if got := jsonKeys(t, buf); !reflect.DeepEqual(got, wantBuf) {
		t.Errorf("BufferStats keys = %v, want %v", got, wantBuf)
	}

	cache := CacheStats{
		AdjHits: 1, AdjMisses: 2, AdjEvictions: 3,
		GroupHits: 4, GroupMisses: 5, GroupEvictions: 6,
		LeafHits: 7, LeafMisses: 8,
	}
	roundTrip(t, cache)
	wantCache := []string{
		"adj_evictions", "adj_hits", "adj_misses",
		"group_evictions", "group_hits", "group_misses",
		"leaf_hits", "leaf_misses",
	}
	if got := jsonKeys(t, cache); !reflect.DeepEqual(got, wantCache) {
		t.Errorf("CacheStats keys = %v, want %v", got, wantCache)
	}

	prune := PruneStats{
		Candidates: 1, FilterAccepted: 2, FilterRejected: 3, FilterUncertain: 4,
		ZeroTraversalQueries: 5, EarlyStops: 6, PrunedPushes: 7, Refinements: 8,
	}
	roundTrip(t, prune)
	wantPrune := []string{
		"candidates", "early_stops", "filter_accepted", "filter_rejected",
		"filter_uncertain", "pruned_pushes", "refinements", "zero_traversal_queries",
	}
	if got := jsonKeys(t, prune); !reflect.DeepEqual(got, wantPrune) {
		t.Errorf("PruneStats keys = %v, want %v", got, wantPrune)
	}

	// Every exported counter field must carry an explicit lowercase tag, so
	// adding a field without one is caught here rather than on the wire.
	for _, v := range []any{buf, cache, prune, StoreStats{}} {
		rt := reflect.TypeOf(v)
		for i := 0; i < rt.NumField(); i++ {
			f := rt.Field(i)
			tag := f.Tag.Get("json")
			if tag == "" || tag == "-" {
				t.Errorf("%s.%s has no json tag", rt.Name(), f.Name)
			}
		}
	}

	combined := StoreStats{Buffer: buf, Cache: cache}
	roundTrip(t, combined)
	wantCombined := []string{"buffer", "cache"}
	if got := jsonKeys(t, combined); !reflect.DeepEqual(got, wantCombined) {
		t.Errorf("StoreStats keys = %v, want %v", got, wantCombined)
	}
}

func TestStoreStatsSub(t *testing.T) {
	a := StoreStats{
		Buffer: BufferStats{LogicalReads: 10, PhysicalReads: 4},
		Cache:  CacheStats{AdjHits: 8, GroupMisses: 3},
	}
	b := StoreStats{
		Buffer: BufferStats{LogicalReads: 7, PhysicalReads: 1},
		Cache:  CacheStats{AdjHits: 5, GroupMisses: 1},
	}
	d := a.Sub(b)
	if d.Buffer.LogicalReads != 3 || d.Buffer.PhysicalReads != 3 {
		t.Errorf("buffer delta = %+v", d.Buffer)
	}
	if d.Cache.AdjHits != 3 || d.Cache.GroupMisses != 2 {
		t.Errorf("cache delta = %+v", d.Cache)
	}

	pa := PruneStats{Candidates: 9, EarlyStops: 4}
	pb := PruneStats{Candidates: 5, EarlyStops: 1}
	if d := pa.Sub(pb); d.Candidates != 4 || d.EarlyStops != 3 {
		t.Errorf("PruneStats.Sub = %+v", d)
	}
}
