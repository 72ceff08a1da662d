package api

import (
	"bytes"
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"testing"
)

// FuzzDecode feeds hostile query strings to the three query decoders and
// hostile bodies to the two body decoders. Every input must come back as an
// error or a request, never a panic; an accepted read request must re-decode
// from its own Values() to the same Canonical() — the whole result-cache key
// besides dataset and epoch — and name the point its query named; an accepted
// mutation batch holds 1 to MaxMutateOps ops.
func FuzzDecode(f *testing.F) {
	for _, q := range rangeDecodeErrors {
		f.Add(q, []byte(nil))
	}
	for _, q := range knnDecodeErrors {
		f.Add(q, []byte(nil))
	}
	for _, q := range clusterQueryErrors {
		f.Add(q, []byte(nil))
	}
	for _, b := range clusterBodyErrors {
		f.Add("", []byte(b))
	}
	f.Add("p=3&eps=.5&dists=1&prune=0", []byte(`{"algo":"eps-link","eps":12,"minsup":2,"prune":false}`))
	f.Add("p=7&k=5&algo=kmedoids&restarts=256&seed=-9", []byte(`{"ops":[{"op":"insert","near":0,"pos":0.5,"tag":7},{"op":"move","point":20,"n1":1,"n2":2,"pos":0.3},{"op":"delete","point":10}]}`))
	f.Add("", []byte(`{"ops":[]}`))
	f.Add("", []byte(`{"ops":[`+strings.TrimSuffix(strings.Repeat(`{"op":"delete","point":1},`, MaxMutateOps+1), ",")+`]}`))

	f.Fuzz(func(t *testing.T, query string, body []byte) {
		q, _ := url.ParseQuery(query) // keeps every pair it could parse
		if req, err := DecodeRange(q); err == nil {
			back, err := DecodeRange(req.Values())
			if err != nil || back.Canonical() != req.Canonical() {
				t.Fatalf("range %q: %q re-decodes as %q, %v", query, req.Canonical(), back.Canonical(), err)
			}
			checkPoint(t, q, int(req.Point))
		}
		if req, err := DecodeKNN(q); err == nil {
			back, err := DecodeKNN(req.Values())
			if err != nil || back.Canonical() != req.Canonical() {
				t.Fatalf("knn %q: %q re-decodes as %q, %v", query, req.Canonical(), back.Canonical(), err)
			}
			checkPoint(t, q, int(req.Point))
		}
		if req, err := DecodeClusterValues(q); err == nil {
			checkClusterRoundTrip(t, "GET "+query, req)
		}
		if req, err := DecodeClusterJSON(bytes.NewReader(body)); err == nil {
			checkClusterRoundTrip(t, fmt.Sprintf("POST %q", body), req)
		}
		if req, err := DecodeMutate(bytes.NewReader(body)); err == nil {
			if n := len(req.Ops); n < 1 || n > MaxMutateOps {
				t.Fatalf("mutation batch of %d ops accepted", n)
			}
			_, _ = req.LiveOps()
		}
	})
}

// checkPoint asserts an accepted request names the point its query did, not
// another one its ID truncated to.
func checkPoint(t *testing.T, q url.Values, point int) {
	t.Helper()
	if raw := q.Get("p"); raw != "" {
		if p, _ := strconv.Atoi(raw); p != point {
			t.Fatalf("p=%s decoded as point %d", raw, point)
		}
	}
}

func checkClusterRoundTrip(t *testing.T, in string, req ClusterRequest) {
	t.Helper()
	back, err := DecodeClusterValues(req.Values())
	if err != nil || back.Canonical() != req.Canonical() {
		t.Fatalf("cluster %s: %q re-decodes as %q, %v", in, req.Canonical(), back.Canonical(), err)
	}
}
