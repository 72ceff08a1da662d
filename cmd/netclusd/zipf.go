package main

import (
	"encoding/json"
	"math/rand"
	"net/url"
	"sort"

	"netclus"
	"netclus/internal/server/api"
)

// splitmix64 is the SplitMix64 finalizer: a cheap bijective mixer whose
// outputs pass statistical independence tests even for sequential inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// substream derives an independent per-worker RNG seed from the loadtest
// seed, the run index (0 = primary leg, 1 = the -compare leg) and the worker
// index. The naive seed+worker scheme shared streams across runs: worker w
// of the compare leg replayed worker w of the first leg request-for-request,
// so the "independent" legs measured identical traffic. Mixing run and worker
// through splitmix64 keeps runs reproducible from one seed while making every
// (run, worker) stream distinct.
func substream(seed int64, run, worker int) int64 {
	x := splitmix64(uint64(seed))
	x = splitmix64(x ^ (uint64(run)+1)*0xa0761d6478bd642f)
	x = splitmix64(x ^ (uint64(worker)+1)*0xe7037ed1a0b428db)
	return int64(x)
}

// epsLadder scales the base -eps into the radii a zipf-skewed client asks
// for; rank 0 — the most popular — is the largest. Each (point, rank) pair is
// its own exact cache key, so the skew over both is what makes repeats hits.
var epsLadder = [...]float64{1, 0.5, 0.25, 0.125}

// reqPicker draws each request's endpoint and parameters: uniformly when
// -zipf is 0, zipf-skewed over points, ε ranks and the endpoint mix when
// s > 1.
type reqPicker struct {
	rng                *rand.Rand
	cfg                *ltConfig
	mix                []mixEntry
	pointZ, epsZ, mixZ *rand.Zipf
}

func newReqPicker(rng *rand.Rand, cfg *ltConfig) *reqPicker {
	p := &reqPicker{rng: rng, cfg: cfg, mix: cfg.mix}
	if cfg.zipf > 1 {
		p.pointZ = rand.NewZipf(rng, cfg.zipf, 1, uint64(cfg.points-1))
		p.epsZ = rand.NewZipf(rng, cfg.zipf, 1, uint64(len(epsLadder)-1))
		// Endpoint skew: rank the mix by weight and zipf over the ranks, so
		// the heaviest endpoint dominates even harder than its weight says.
		p.mix = append([]mixEntry(nil), cfg.mix...)
		sort.SliceStable(p.mix, func(i, j int) bool { return p.mix[i].weight > p.mix[j].weight })
		p.mixZ = rand.NewZipf(rng, cfg.zipf, 1, uint64(len(p.mix)-1))
	}
	return p
}

// pick returns the endpoint path segment and the request's query values,
// built from the same api DTOs the server decodes — client and server agree
// on every parameter by construction.
func (p *reqPicker) pick() (string, url.Values) {
	var ep string
	var point int
	eps := p.cfg.eps
	if p.pointZ != nil {
		ep = p.mix[p.mixZ.Uint64()].endpoint
		point = int(p.pointZ.Uint64())
		eps *= epsLadder[p.epsZ.Uint64()]
	} else {
		ep = pickEndpoint(p.mix, p.rng)
		point = p.rng.Intn(p.cfg.points)
	}
	switch ep {
	case "write":
		// Mutations POST a JSON body, not query values: the worker calls
		// pickWrite for the payload when it sees this endpoint.
		return ep, nil
	case "knn":
		return ep, api.KNNRequest{Point: netclus.PointID(point), K: p.cfg.k, Prune: true}.Values()
	case "range":
		// The skewed workload asks for exact distances and the uniform one
		// for IDs only, so the two cover both range flavours.
		req := api.RangeRequest{Point: netclus.PointID(point), Eps: eps, Dists: p.pointZ != nil, Prune: true}
		return ep, req.Values()
	default: // cluster
		// Clustering ignores the point and the ladder: repeats are identical
		// requests, so on a cached server they become cache reads.
		req := api.ClusterRequest{Algo: "dbscan", Eps: p.cfg.eps, MinPts: 3, K: 8, Restarts: 1, Seed: 1}
		return ep, req.Values()
	}
}

// pickWrite builds a single-op mutation body. Target points are drawn from
// the shared live point counter — the server's post-batch count fed back by
// every acked write — so IDs stay inside the dataset's current ID space even
// as inserts grow it and deletes never shrink it below the draw range.
func (p *reqPicker) pickWrite() []byte {
	n := int64(p.cfg.points)
	if p.cfg.livePoints != nil {
		if live := p.cfg.livePoints.Load(); live > 0 {
			n = live
		}
	}
	var point int32
	if p.pointZ != nil {
		point = int32(int64(p.pointZ.Uint64()) % n)
	} else {
		point = int32(p.rng.Int63n(n))
	}
	frac := p.rng.Float64()
	var op api.MutateOp
	switch pickEndpoint(p.cfg.writeMix, p.rng) {
	case "insert":
		op = api.MutateOp{Op: "insert", Near: &point, Pos: frac}
	case "move":
		op = api.MutateOp{Op: "move", Point: &point, Pos: frac}
	default: // delete
		op = api.MutateOp{Op: "delete", Point: &point}
	}
	body, _ := json.Marshal(api.MutateRequest{Ops: []api.MutateOp{op}})
	return body
}
