package api

import (
	"fmt"
	"math/rand"
	"net/url"
	"strings"
	"testing"

	"netclus"
)

func mustQuery(t *testing.T, raw string) url.Values {
	t.Helper()
	q, err := url.ParseQuery(raw)
	if err != nil {
		t.Fatalf("ParseQuery(%q): %v", raw, err)
	}
	return q
}

// TestRangeCanonicalization: param order, float spellings and defaulted
// fields all map onto one key.
func TestRangeCanonicalization(t *testing.T) {
	spellings := []string{
		"p=3&eps=0.5",
		"eps=.5&p=3",
		"p=3&eps=0.50&dists=0",
		"eps=5e-1&p=3&prune=0",
		"p=3&eps=0.5&prune=false&dists=false",
	}
	want := "p=3&eps=0.5&dists=0&prune=0"
	for _, raw := range spellings {
		req, err := DecodeRange(mustQuery(t, raw))
		if err != nil {
			t.Fatalf("DecodeRange(%q): %v", raw, err)
		}
		if got := req.Canonical(); got != want {
			t.Errorf("Canonical(%q) = %q, want %q", raw, got, want)
		}
	}
	// The dists flavour canonicalizes prune away: it always runs the plain
	// expansion, so prune=0 and prune=1 are the same computation.
	a, _ := DecodeRange(mustQuery(t, "p=1&eps=2&dists=1&prune=0"))
	b, _ := DecodeRange(mustQuery(t, "p=1&eps=2&dists=1&prune=1"))
	if a.Canonical() != b.Canonical() {
		t.Errorf("dists keys differ on inert prune: %q vs %q", a.Canonical(), b.Canonical())
	}
	// But the two flavours never share a key.
	c, _ := DecodeRange(mustQuery(t, "p=1&eps=2"))
	if a.Canonical() == c.Canonical() {
		t.Errorf("dists and ID-only flavours share key %q", a.Canonical())
	}
}

// rangeDecodeErrors, knnDecodeErrors, clusterQueryErrors and
// clusterBodyErrors are the refused inputs of each decoder; FuzzDecode starts
// from them.
var (
	rangeDecodeErrors = []string{"p=3", "p=3&eps=0", "p=3&eps=-1", "p=x&eps=5", "p=3&eps=wat",
		"p=3&eps=NaN", "p=3&eps=nan", "p=3&eps=Inf", "p=3&eps=%2BInf", "p=3&eps=-Inf", "p=3&eps=1e999",
		"p=4294967299&eps=5", "p=-2147483649&eps=5"}
	knnDecodeErrors    = []string{"p=1&k=0", "p=1&k=x", "p=4294967297&k=3"}
	clusterQueryErrors = []string{
		"algo=wat&eps=5",
		"algo=dbscan&eps=NaN", "algo=dbscan&eps=Inf", "algo=dbscan&eps=-Inf", "algo=dbscan&eps=1e999",
		"algo=epslink&eps=NaN", "algo=epslink&eps=0", "algo=dbscan&eps=-2",
		"algo=kmedoids&eps=NaN", "algo=kmedoids&eps=Inf", "algo=kmedoids&eps=-1",
		"algo=dbscan&eps=5&minpts=-5", "algo=dbscan&eps=5&minpts=0", "algo=kmedoids&minpts=-1",
		"algo=kmedoids&restarts=-1", "algo=kmedoids&restarts=0", "algo=kmedoids&restarts=257",
		"algo=kmedoids&restarts=2147483647",
	}
	clusterBodyErrors = []string{
		"{nope",
		`{"algo":"dbscan","eps":5,"minpts":-5}`, `{"algo":"dbscan","eps":0}`, `{"algo":"epslink","eps":-3}`,
		`{"algo":"dbscan","eps":1e999}`, `{"algo":"dbscan","eps":"NaN"}`, `{"algo":"kmedoids","minpts":0}`,
		`{"algo":"kmedoids","restarts":-1}`, `{"algo":"kmedoids","restarts":257}`,
	}
)

func TestRangeDecodeErrors(t *testing.T) {
	for _, raw := range rangeDecodeErrors {
		if _, err := DecodeRange(mustQuery(t, raw)); err == nil {
			t.Errorf("DecodeRange(%q) succeeded", raw)
		}
	}
}

func TestKNNCanonicalization(t *testing.T) {
	defaulted, err := DecodeKNN(mustQuery(t, "p=7"))
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := DecodeKNN(mustQuery(t, "prune=0&k=5&p=7"))
	if err != nil {
		t.Fatal(err)
	}
	if defaulted.Canonical() != explicit.Canonical() {
		t.Errorf("defaulted %q != explicit %q", defaulted.Canonical(), explicit.Canonical())
	}
	if want := "p=7&k=5&prune=0"; defaulted.Canonical() != want {
		t.Errorf("Canonical = %q, want %q", defaulted.Canonical(), want)
	}
	for _, raw := range knnDecodeErrors {
		if _, err := DecodeKNN(mustQuery(t, raw)); err == nil {
			t.Errorf("DecodeKNN(%q) succeeded", raw)
		}
	}
}

// TestClusterCanonicalization: the GET and POST decode paths, algorithm
// aliases and defaulted fields all land on one canonical form.
func TestClusterCanonicalization(t *testing.T) {
	get, err := DecodeClusterValues(mustQuery(t, "algo=eps-link&eps=12.0&minsup=2"))
	if err != nil {
		t.Fatal(err)
	}
	post, err := DecodeClusterJSON(strings.NewReader(`{"algo":"epslink","eps":12,"minsup":2}`))
	if err != nil {
		t.Fatal(err)
	}
	if get.Canonical() != post.Canonical() {
		t.Errorf("GET %q != POST %q", get.Canonical(), post.Canonical())
	}
	if !strings.Contains(get.Canonical(), "algo=epslink") {
		t.Errorf("alias not folded: %q", get.Canonical())
	}
	kmAlias, err := DecodeClusterValues(mustQuery(t, "algo=k-medoids&k=4"))
	if err != nil {
		t.Fatal(err)
	}
	km, err := DecodeClusterValues(mustQuery(t, "algo=kmedoids&k=4"))
	if err != nil {
		t.Fatal(err)
	}
	if kmAlias.Canonical() != km.Canonical() {
		t.Errorf("k-medoids alias: %q != %q", kmAlias.Canonical(), km.Canonical())
	}
	// Prune is off by default: absent and explicit prune=0 share a key, on
	// GET and POST alike.
	a, _ := DecodeClusterValues(mustQuery(t, "algo=dbscan&eps=5"))
	b, _ := DecodeClusterValues(mustQuery(t, "algo=dbscan&eps=5&prune=0"))
	bp, _ := DecodeClusterJSON(strings.NewReader(`{"algo":"dbscan","eps":5}`))
	if a.Canonical() != b.Canonical() || a.Canonical() != bp.Canonical() {
		t.Errorf("prune default: %q, %q, %q", a.Canonical(), b.Canonical(), bp.Canonical())
	}
	c, _ := DecodeClusterValues(mustQuery(t, "algo=dbscan&eps=5&prune=1"))
	if a.Canonical() == c.Canonical() {
		t.Error("prune=1 shares key with prune=0")
	}
	// ε-Link has no pruned form, so prune is no part of its key.
	e0, _ := DecodeClusterValues(mustQuery(t, "algo=epslink&eps=5&prune=0"))
	e1, _ := DecodeClusterValues(mustQuery(t, "algo=eps-link&eps=5"))
	if e0.Canonical() != e1.Canonical() || strings.Contains(e0.Canonical(), "prune") {
		t.Errorf("epslink keys on inert prune: %q vs %q", e0.Canonical(), e1.Canonical())
	}
	if _, err := DecodeClusterValues(mustQuery(t, "algo=wat&eps=5")); err == nil {
		t.Error("unknown algo decoded")
	}
	if _, err := DecodeClusterJSON(strings.NewReader("{nope")); err == nil {
		t.Error("bad JSON decoded")
	}
}

// TestClusterRestartsBounded: restarts outside [1, maxRestarts] is refused on
// both decode paths (the engine sized four arrays by it and panicked on a
// negative count), and the bounds themselves decode.
func TestClusterRestartsBounded(t *testing.T) {
	for _, n := range []int{-1, 0, maxRestarts + 1, 1<<31 - 1} {
		if _, err := DecodeClusterValues(mustQuery(t, fmt.Sprintf("algo=kmedoids&restarts=%d", n))); err == nil {
			t.Errorf("GET restarts=%d decoded", n)
		}
		if _, err := DecodeClusterJSON(strings.NewReader(fmt.Sprintf(`{"algo":"kmedoids","restarts":%d}`, n))); err == nil {
			t.Errorf("POST restarts=%d decoded", n)
		}
	}
	for _, n := range []int{1, maxRestarts} {
		req, err := DecodeClusterValues(mustQuery(t, fmt.Sprintf("algo=kmedoids&restarts=%d", n)))
		if err != nil || req.Restarts != n {
			t.Errorf("restarts=%d: %+v, %v", n, req, err)
		}
	}
}

// TestClusterDensityParamsChecked: an eps that is not finite (on every
// algorithm) or not > 0 (on the density algorithms), a minpts below 1, an
// unknown algorithm and a restart count out of range are refused on both
// decode paths instead of reaching the engine and the cache key; k-medoids,
// which ignores eps, still decodes at its default 0.
func TestClusterDensityParamsChecked(t *testing.T) {
	for _, raw := range clusterQueryErrors {
		if req, err := DecodeClusterValues(mustQuery(t, raw)); err == nil {
			t.Errorf("GET %s decoded as %q", raw, req.Canonical())
		}
	}
	for _, body := range clusterBodyErrors {
		if req, err := DecodeClusterJSON(strings.NewReader(body)); err == nil {
			t.Errorf("POST %s decoded as %q", body, req.Canonical())
		}
	}
	for _, raw := range []string{"algo=kmedoids&k=4", "algo=kmedoids&k=4&eps=0", "algo=dbscan&eps=5&minpts=1"} {
		if _, err := DecodeClusterValues(mustQuery(t, raw)); err != nil {
			t.Errorf("GET %s: %v", raw, err)
		}
	}
}

// TestMutateOpsCapped: a batch of MaxMutateOps ops decodes, one more op is
// refused with a message naming the cap.
func TestMutateOpsCapped(t *testing.T) {
	batch := func(n int) string {
		return `{"ops":[` + strings.TrimSuffix(strings.Repeat(`{"op":"delete","point":1},`, n), ",") + `]}`
	}
	req, err := DecodeMutate(strings.NewReader(batch(MaxMutateOps)))
	if err != nil || len(req.Ops) != MaxMutateOps {
		t.Fatalf("%d ops: %d decoded, %v", MaxMutateOps, len(req.Ops), err)
	}
	_, err = DecodeMutate(strings.NewReader(batch(MaxMutateOps + 1)))
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(MaxMutateOps)) {
		t.Fatalf("%d ops: %v, want an error naming the cap", MaxMutateOps+1, err)
	}
}

// TestValuesRoundTrip: Decode(req.Values()) reproduces req exactly, so the
// loadtest client and the server agree on every request by construction.
func TestValuesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		rr := RangeRequest{
			Point: 1 + netclus.PointID(rng.Intn(1000)),
			Eps:   0.001 + rng.Float64()*100,
			Dists: rng.Intn(2) == 0,
			Prune: rng.Intn(2) == 0,
		}
		if rr.Dists {
			rr.Prune = false // canonical form
		}
		back, err := DecodeRange(rr.Values())
		if err != nil {
			t.Fatalf("range round trip: %v", err)
		}
		if back != rr {
			t.Fatalf("range round trip: %+v != %+v", back, rr)
		}
		if back.Canonical() != rr.Canonical() {
			t.Fatalf("range canonical drift: %q vs %q", back.Canonical(), rr.Canonical())
		}

		kr := KNNRequest{Point: netclus.PointID(rng.Intn(1000)), K: 1 + rng.Intn(50), Prune: rng.Intn(2) == 0}
		kback, err := DecodeKNN(kr.Values())
		if err != nil || kback != kr {
			t.Fatalf("knn round trip: %+v != %+v (%v)", kback, kr, err)
		}

		cr := ClusterRequest{
			Algo:     []string{"dbscan", "epslink", "kmedoids"}[rng.Intn(3)],
			Eps:      rng.Float64() * 50,
			MinPts:   1 + rng.Intn(8),
			MinSup:   rng.Intn(4),
			K:        1 + rng.Intn(12),
			Workers:  rng.Intn(8),
			Restarts: 1 + rng.Intn(3),
			Seed:     rng.Int63n(1 << 40),
			Labels:   rng.Intn(2) == 0,
			Prune:    rng.Intn(2) == 0,
		}
		cback, err := DecodeClusterValues(cr.Values())
		if err != nil {
			t.Fatalf("cluster round trip: %v", err)
		}
		if cback != cr {
			t.Fatalf("cluster round trip: %+v != %+v", cback, cr)
		}
		if cback.Canonical() != cr.Canonical() {
			t.Fatalf("cluster canonical drift: %q vs %q", cback.Canonical(), cr.Canonical())
		}
	}
}

// TestCanonFloatSpellings pins the float normalization: any parseable
// spelling of the same value canonicalizes identically.
func TestCanonFloatSpellings(t *testing.T) {
	cases := map[string][]string{
		"0.5":   {"0.5", ".5", "0.50", "5e-1", "0.5000"},
		"25":    {"25", "25.0", "2.5e1", "25.00"},
		"0.125": {"0.125", ".125", "1.25e-1"},
	}
	for want, raws := range cases {
		for _, raw := range raws {
			req, err := DecodeRange(mustQuery(t, "p=1&eps="+raw))
			if err != nil {
				t.Fatalf("eps=%s: %v", raw, err)
			}
			if got := req.Canonical(); !strings.Contains(got, "eps="+want+"&") {
				t.Errorf("eps=%s canonicalized to %q, want eps=%s", raw, got, want)
			}
		}
	}
}

func TestErrorEnvelope(t *testing.T) {
	e := Error(CodeBadRequest, "eps must be > 0")
	if e.Error.Code != "bad_request" || e.Error.Message == "" || e.Error.RetryAfterMS != 0 {
		t.Fatalf("envelope = %+v", e)
	}
}

func TestHitRatio(t *testing.T) {
	if r := (ResultCacheStats{}).HitRatio(); r != 0 {
		t.Fatalf("empty ratio = %v", r)
	}
	s := ResultCacheStats{Hits: 8, Misses: 2}
	if r := s.HitRatio(); r != 0.8 {
		t.Fatalf("ratio = %v, want 0.8", r)
	}
}

func ExampleRangeRequest_Canonical() {
	req, _ := DecodeRange(url.Values{"p": {"3"}, "eps": {".50"}})
	fmt.Println(req.Canonical())
	// Output: p=3&eps=0.5&dists=0&prune=0
}
