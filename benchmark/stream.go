package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/url"
	"strconv"
	"sync/atomic"

	"netclus"
	"netclus/internal/server/api"
)

type reqKind uint8

const (
	kindKNN reqKind = iota
	kindRange
	kindCluster
	kindWrite
)

func (k reqKind) String() string {
	return [...]string{"knn", "range", "cluster", "write"}[k]
}

// request is one generated operation against the served dataset, in the
// server's own DTOs so client and server agree on every parameter.
type request struct {
	kind    reqKind
	knn     api.KNNRequest
	rng     api.RangeRequest
	cluster api.ClusterRequest
	ops     []api.MutateOp
}

// target returns the method, path and body of the request.
func (r *request) target() (method, path string, body []byte) {
	var q url.Values
	switch r.kind {
	case kindKNN:
		q = r.knn.Values()
	case kindRange:
		q = r.rng.Values()
	case kindCluster:
		q = r.cluster.Values()
	case kindWrite:
		body, _ = json.Marshal(api.MutateRequest{Ops: r.ops})
		return "POST", "/v1/datasets/" + datasetName + "/points", body
	}
	return "GET", "/v1/" + datasetName + "/" + r.kind.String() + "?" + q.Encode(), nil
}

var (
	knnKs     = [...]int{1, 10, 10, 50}
	epsLadder = [...]float64{0.5, 1, 1, 2, 4, 16}
)

// idMargin keeps generated point IDs this far below the last acknowledged
// point count of a live dataset: concurrent clients may each have a batch of
// deletes in flight, and every batch renumbers the IDs above its deletes.
const idMargin = 64

// liveState is what the clients of a live dataset share: the point count the
// last acknowledged batch reported, and what the acknowledged batches did.
type liveState struct {
	points  atomic.Int64
	batches atomic.Int64
	inserts atomic.Int64
	deletes atomic.Int64
}

// stream generates one client's requests from its own substream.
type stream struct {
	rng     *rand.Rand
	w       workload
	eps     float64
	workers int
	points  int        // immutable datasets: the point count
	live    *liveState // live datasets; nil otherwise
	zipf    *rand.Zipf

	sent, jobs int // requests and clustering jobs drawn so far
}

// newStream returns client c's stream. Clients start at different phases of
// the write and clustering schedule, so their heavy requests do not coincide.
func newStream(rng *rand.Rand, w workload, c int, eps float64, workers, points int, live *liveState) *stream {
	s := &stream{rng: rng, w: w, eps: eps, workers: workers, points: points, live: live}
	s.sent = c * (w.ClusterEvery + w.WriteEvery) / workers
	if w.Zipf > 1 {
		s.zipf = rand.NewZipf(rng, w.Zipf, 1, uint64(points-1))
	}
	return s
}

// idSpace is the number of point IDs it is safe to draw from.
func (s *stream) idSpace() int {
	if s.live != nil {
		return int(s.live.points.Load()) - idMargin
	}
	return s.points
}

// point draws a query point: uniform, or zipf-ranked with the ranks scattered
// over the ID space so the hot set is not one stretch of road.
func (s *stream) point() netclus.PointID {
	n := s.idSpace()
	if s.zipf != nil {
		return netclus.PointID(s.zipf.Uint64() * 2654435761 % uint64(n))
	}
	return netclus.PointID(s.rng.Intn(n))
}

// next draws the next request: a mutation batch or a clustering job where the
// workload's schedule has one, else a read.
func (s *stream) next() request {
	i := s.sent
	s.sent++
	switch {
	case s.w.WriteEvery > 0 && i%s.w.WriteEvery == s.w.WriteEvery-1:
		return request{kind: kindWrite, ops: s.batch()}
	case s.w.ClusterEvery > 0 && i%s.w.ClusterEvery == s.w.ClusterEvery/2:
		return request{kind: kindCluster, cluster: s.clusterJob()}
	}
	return s.read()
}

// read draws a read, 60% kNN and 40% range: a kNN (k from {1,10,10,50}, half unpruned so both the pruned
// path and the batched sweep run) or a range with distances on the ε ladder.
func (s *stream) read() request {
	if s.rng.Float64() < 0.6 {
		return request{kind: kindKNN, knn: api.KNNRequest{
			Point: s.point(), K: knnKs[s.rng.Intn(len(knnKs))], Prune: s.rng.Intn(2) == 0,
		}}
	}
	return request{kind: kindRange, rng: api.RangeRequest{
		Point: s.point(), Eps: s.eps * epsLadder[s.rng.Intn(len(epsLadder))], Dists: true, Prune: true,
	}}
}

// sixDigits rounds x to the six significant digits it is spelled with on the
// wire, so the generated value and the decoded one are the same float.
func sixDigits(x float64) float64 {
	y, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'g', 6, 64), 64)
	return y
}

// clusterJob draws a clustering request with labels. Every ε is drawn afresh
// and spelled to six digits, so every job is a cache miss. On an immutable
// dataset eight in ten are DBSCAN with workers = 0 at ε = eps·U[0.9,1.1), so
// the quartile cluster_ms reports sits firmly in that mode however few jobs a
// run fits in (a pruned DBSCAN costs ten times an ε-Link; an even mix would
// put it on the cliff between them); one in ten is DBSCAN with workers = N
// and one in ten ε-Link. On a live dataset three in four ask for the maintained
// configuration (answered from the live labels, the mode cluster_ms sits in)
// and the fourth for an ε the overlay does not maintain (a full recompute on
// the merged view). Which job is which follows the job count, not a draw.
func (s *stream) clusterJob() api.ClusterRequest {
	j := s.jobs
	s.jobs++
	req := api.ClusterRequest{Algo: "dbscan", Eps: s.eps, MinPts: 3, K: 8, Restarts: 1, Seed: 1, Labels: true}
	if s.live != nil {
		if j%4 == 3 {
			req.Eps = sixDigits(s.eps * (0.5 + 1.5*s.rng.Float64()))
		}
		return req
	}
	req.Eps = sixDigits(s.eps * (0.9 + 0.2*s.rng.Float64()))
	switch j % 10 {
	case 4:
		req.Workers = s.workers
	case 9:
		req.Algo, req.Eps, req.MinSup = "epslink", sixDigits(req.Eps/2), 3
	}
	return req
}

// batch draws a mutation batch of 1–8 ops, 60/30/10 insert-near/move/delete,
// over distinct target points of the tracked ID space.
func (s *stream) batch() []api.MutateOp {
	n := 1 + s.rng.Intn(8)
	ops := make([]api.MutateOp, 0, n)
	used := make(map[int32]bool, n)
	for len(ops) < n {
		p := int32(s.rng.Intn(s.idSpace()))
		if used[p] {
			continue
		}
		used[p] = true
		frac := s.rng.Float64()
		switch u := s.rng.Float64(); {
		case u < 0.6:
			ops = append(ops, api.MutateOp{Op: "insert", Near: &p, Pos: frac})
		case u < 0.9:
			ops = append(ops, api.MutateOp{Op: "move", Point: &p, Pos: frac})
		default:
			ops = append(ops, api.MutateOp{Op: "delete", Point: &p})
		}
	}
	return ops
}

// acked records an acknowledged batch in the shared live state.
func (l *liveState) acked(ops []api.MutateOp, points int) {
	l.points.Store(int64(points))
	l.batches.Add(1)
	for _, op := range ops {
		switch op.Op {
		case "insert":
			l.inserts.Add(1)
		case "delete":
			l.deletes.Add(1)
		}
	}
}

// applyBatch draws one mutation batch and applies it straight to the overlay,
// without the server in between, recording the acknowledgement. It returns
// the number of ops applied.
func (s *stream) applyBatch(ctx context.Context, ov *netclus.LiveOverlay) (int, error) {
	batch := s.batch()
	ops, err := api.MutateRequest{Ops: batch}.LiveOps()
	if err != nil {
		return 0, err
	}
	res, err := ov.Apply(ctx, ops)
	if err != nil {
		return 0, err
	}
	s.live.acked(batch, res.Points)
	return len(ops), nil
}
