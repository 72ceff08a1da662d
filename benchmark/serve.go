package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"netclus"
	"netclus/internal/server/api"
)

// sample is one timed request as its client saw it.
type sample struct {
	kind  reqKind
	cache string // X-Netclusd-Cache: hit, wider, shared, miss or ""
	burst int    // the burst it was sent in
	start time.Duration
	lat   time.Duration
	bytes int
}

// client is one closed-loop caller; its streams carry on from burst to burst.
type client struct {
	st    *stream
	check *rand.Rand    // which replies are rebuilt from a direct library call
	view  netclus.Graph // what those calls run on
	sent  int
	timed []sample
}

// serveSection drives the deployment's server closed-loop: N clients, each
// sending its next request only when the previous reply has been read and
// checked, in bursts that alternate with the library rounds. A closed loop
// hides the queueing an open loop would show; the reads that sat behind a
// clustering job are counted instead.
type serveSection struct {
	d       *deployment
	clients int
	live    *liveState // nil on immutable datasets

	cl      []*client
	origin  time.Time // sample.start counts from here
	bursts  int
	samples []sample  // timed requests of every client, gathered by finish
	rates   []float64 // requests per second of each timed burst

	mu                sync.Mutex
	attempted, failed int
	failures          []string
	checked           int // replies compared byte-for-byte with a direct library call
}

func (s *serveSection) fail(format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failed++
	if len(s.failures) < 20 {
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

// newServeSection readies n closed-loop clients against the deployment.
func newServeSection(d *deployment, seed int64, wi, n int, live *liveState) *serveSection {
	s := &serveSection{d: d, clients: n, live: live, origin: time.Now()}
	for c := 0; c < n; c++ {
		s.cl = append(s.cl, &client{
			st:    newStream(substream(seed, wi, roleClient, c), d.w, c, d.eps, n, d.net.NumPoints(), live),
			check: substream(seed, wi, roleCheck, c),
			view:  d.readView(),
		})
	}
	return s
}

// burst has every client send requests requests. A timed burst's requests
// count towards the latencies and its rate is one sample of the throughput.
func (s *serveSection) burst(ctx context.Context, requests int, timed bool, tr *tracer) {
	start := time.Now()
	burst := s.bursts
	s.bursts++
	var wg sync.WaitGroup
	for c, cl := range s.cl {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				req := cl.st.next()
				reqID := int64(c)<<40 | int64(cl.sent)
				cl.sent++
				root := tr.begin("request."+req.kind.String(), -1, reqID)
				sm, body, ok := s.do(ctx, &req, tr, root, reqID)
				if ok {
					id := tr.begin("check", root, reqID)
					s.check(ctx, &req, body, cl.view, cl.check.Intn(100) == 0)
					tr.end(id)
				}
				tr.end(root)
				if timed {
					sm.burst = burst
					cl.timed = append(cl.timed, sm)
				}
			}
		}()
	}
	wg.Wait()
	if timed {
		s.rates = append(s.rates, float64(requests*len(s.cl))/time.Since(start).Seconds())
	}
}

// finish gathers the clients' timed requests once the last burst is over.
func (s *serveSection) finish() {
	for _, cl := range s.cl {
		s.samples = append(s.samples, cl.timed...)
	}
}

// do sends one request and reads the whole reply; the latency runs from just
// before the send to the last body byte. ok is false when the request failed
// (and has been counted).
func (s *serveSection) do(ctx context.Context, req *request, tr *tracer, parent int32, reqID int64) (sm sample, body []byte, ok bool) {
	method, path, payload := req.target()
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	s.mu.Lock()
	s.attempted++
	s.mu.Unlock()
	hreq, err := http.NewRequestWithContext(ctx, method, s.d.baseURL+path, rd)
	if err != nil {
		s.fail("%s: %v", path, err)
		return sm, nil, false
	}
	id := tr.begin("socket", parent, reqID)
	t0 := time.Now()
	resp, err := s.d.client.Do(hreq)
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	lat := time.Since(t0)
	tr.end(id)
	sm = sample{kind: req.kind, start: t0.Sub(s.origin), lat: lat, bytes: len(body)}
	if err != nil {
		s.fail("%s: %v", path, err)
		return sm, nil, false
	}
	if resp.StatusCode != http.StatusOK {
		s.fail("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
		return sm, nil, false
	}
	sm.cache = resp.Header.Get("X-Netclusd-Cache")
	return sm, body, true
}

// readView returns a graph view for one client's direct library calls.
func (d *deployment) readView() netclus.Graph {
	if d.store != nil {
		return d.store.Reader()
	}
	return d.snap
}

// ascending reports whether the distances do not decrease.
func ascending(rows []api.PointDist) bool {
	return sort.SliceIsSorted(rows, func(i, j int) bool { return rows[i].Dist < rows[j].Dist })
}

// check decodes a 200 reply and checks its shape; for a sampled read it also
// rebuilds the body from a direct library call on the same epoch and
// compares the bytes — which covers cached, ε-contained and computed replies
// alike, since all three must equal a recompute.
func (s *serveSection) check(ctx context.Context, req *request, body []byte, view netclus.Graph, sampled bool) {
	switch req.kind {
	case kindKNN:
		var got api.KNNResponse
		if err := json.Unmarshal(body, &got); err != nil {
			s.fail("knn %s: %v", req.knn.Canonical(), err)
			return
		}
		if len(got.Results) != req.knn.K || !ascending(got.Results) || got.Point != req.knn.Point {
			s.fail("knn %s: %d results for k=%d", req.knn.Canonical(), len(got.Results), req.knn.K)
			return
		}
		if g := s.pinned(view, got.Epoch); sampled && g != nil {
			res, err := netclus.KNearestNeighborsCtx(ctx, g, req.knn.Point, req.knn.K)
			want := api.KNNResponse{
				Dataset: datasetName, Epoch: got.Epoch, Point: req.knn.Point, K: req.knn.K,
				Results: api.PointDists(res), Pruned: req.knn.Prune && s.d.ds.Bounds() != nil,
			}
			s.sameBody("knn "+req.knn.Canonical(), body, want, err)
		}
	case kindRange:
		var got api.RangeResponse
		if err := json.Unmarshal(body, &got); err != nil {
			s.fail("range %s: %v", req.rng.Canonical(), err)
			return
		}
		if got.Count != len(got.Results) || got.Count == 0 || !ascending(got.Results) {
			s.fail("range %s: count %d, %d results", req.rng.Canonical(), got.Count, len(got.Results))
			return
		}
		if g := s.pinned(view, got.Epoch); sampled && g != nil {
			res, err := netclus.ScratchFor(g).RangeQueryDistCtx(ctx, g, req.rng.Point, req.rng.Eps)
			want := api.RangeResponse{
				Dataset: datasetName, Epoch: got.Epoch, Point: req.rng.Point, Eps: req.rng.Eps,
				Count: len(res), Results: api.PointDists(res),
			}
			s.sameBody("range "+req.rng.Canonical(), body, want, err)
		}
	case kindCluster:
		var got api.ClusterResponse
		if err := json.Unmarshal(body, &got); err != nil {
			s.fail("cluster %s: %v", req.cluster.Canonical(), err)
			return
		}
		noise := 0
		for _, l := range got.Labels {
			if l == netclus.Noise {
				noise++
			}
		}
		if len(got.Labels) == 0 || got.Clusters < 1 || noise != got.Noise {
			s.fail("cluster %s: %d labels, %d clusters, noise %d vs %d", req.cluster.Canonical(), len(got.Labels), got.Clusters, noise, got.Noise)
		}
	case kindWrite:
		var got api.MutateResponse
		if err := json.Unmarshal(body, &got); err != nil {
			s.fail("write: %v", err)
			return
		}
		if got.Applied != len(req.ops) {
			s.fail("write: applied %d of %d ops", got.Applied, len(req.ops))
			return
		}
		s.live.acked(req.ops, got.Points)
	}
}

// pinned returns the graph a reply stamped with epoch was computed on: the
// client's view of an immutable dataset, or the live view if it still is at
// that epoch (nil when a later batch has replaced it).
func (s *serveSection) pinned(view netclus.Graph, epoch int64) netclus.Graph {
	if ov := s.d.ds.Live(); ov != nil {
		if cur := ov.Current(); cur.Epoch == epoch {
			return cur.Graph
		}
		return nil
	}
	return view
}

// sameBody fails unless body is exactly the server's encoding of want.
func (s *serveSection) sameBody(what string, body []byte, want any, err error) {
	if err != nil {
		s.fail("%s: direct call: %v", what, err)
		return
	}
	enc, _ := json.Marshal(want)
	s.mu.Lock()
	s.checked++
	s.mu.Unlock()
	if !bytes.Equal(body, append(enc, '\n')) {
		s.fail("%s: reply differs from the direct library call", what)
	}
}

// latencies returns the timed latencies, in ms, of the samples keep accepts.
func (s *serveSection) latencies(keep func(sample) bool) []float64 {
	var out []float64
	for _, sm := range s.samples {
		if keep(sm) {
			out = append(out, float64(sm.lat.Nanoseconds())/1e6)
		}
	}
	return out
}

func isRead(sm sample) bool { return sm.kind == kindKNN || sm.kind == kindRange }

// minBurstReads is how many reads a burst must hold for its read percentiles
// to count: a burst that a clustering job filled holds few.
const minBurstReads = 50

// readsPerBurst takes stat of the reads of each timed burst and returns the
// quiet quartile over bursts: reads are too unlike each other for the
// quartile of their latencies to mean anything, but a burst's median or 95th
// percentile is one sample of the same thing. A run without one full burst
// reports stat over all its reads.
func (s *serveSection) readsPerBurst(stat func([]float64) float64) float64 {
	byBurst := make(map[int][]float64)
	for _, sm := range s.samples {
		if isRead(sm) {
			byBurst[sm.burst] = append(byBurst[sm.burst], float64(sm.lat.Nanoseconds())/1e6)
		}
	}
	var perBurst []float64
	for _, lats := range byBurst {
		if len(lats) >= minBurstReads {
			perBurst = append(perBurst, stat(lats))
		}
	}
	if len(perBurst) == 0 {
		return stat(s.latencies(isRead))
	}
	return quietQuartile(perBurst)
}

// metrics returns the serving end-to-end metrics.
func (s *serveSection) metrics() values {
	return values{
		"read_p50_ms":    s.readsPerBurst(median),
		"read_p95_ms":    s.readsPerBurst(func(xs []float64) float64 { return percentile(xs, 0.95) }),
		"cluster_ms":     quietQuartile(s.latencies(func(sm sample) bool { return sm.kind == kindCluster })),
		"throughput_rps": percentile(s.rates, 0.75),
	}
}
