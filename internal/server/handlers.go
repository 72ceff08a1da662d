package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"netclus"
	"netclus/internal/server/api"
)

// resultKey builds the exact result-cache key of a canonicalized request:
// dataset name + epoch pin the immutable snapshot, endpoint + canonical
// parameters pin the pure function evaluated over it. NUL separators cannot
// appear in any component.
func resultKey(dataset string, epoch int64, endpoint, canonical string) string {
	return dataset + "\x00" + strconv.FormatInt(epoch, 10) + "\x00" + endpoint + "\x00" + canonical
}

// bodyOf finishes a read body encoded by its response's AppendJSON with the
// trailing newline json.Encoder writes, so a body is byte-identical to what
// writeJSON would send for the same response. An unencodable response — a
// distance that overflowed to +Inf — is an error, answered 500 and never
// cached.
func bodyOf(b []byte, err error) ([]byte, error) {
	if err != nil {
		return nil, fmt.Errorf("encoding the response: %w", err)
	}
	return append(b, '\n'), nil
}

// writeBody writes an encoded 200 response. cache tags the X-Netclusd-Cache
// header — hit, shared (rode another request's singleflight) or miss — and is
// empty when the server runs without a result cache.
func writeBody(w http.ResponseWriter, body []byte, cache string) {
	w.Header().Set("Content-Type", "application/json")
	if cache != "" {
		w.Header().Set("X-Netclusd-Cache", cache)
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// cacheKey is the result-cache identity of one decoded read request: epoch
// pins the immutable snapshot; endpoint and canonical (the request's
// canonical parameter string) name the pure function evaluated over it.
type cacheKey struct {
	epoch               int64
	endpoint, canonical string
}

// cachedRead is the one read path of /range, /knn and /cluster: exact hit →
// counted miss → singleflight compute → put → tagged write. Results are pure
// functions of the canonical request and the dataset epoch — datasets are
// immutable per epoch — so repeats become cache reads and concurrent
// duplicates collapse to one engine run. compute runs the engine; it is a
// parameter of its own, apart from the key whose strings end up in the cache,
// so that a hit costs no closure allocation. compute returns the encoded
// body; an error from it is answered and not cached.
func (s *Server) cachedRead(w http.ResponseWriter, r *http.Request, d *Dataset, k cacheKey, compute func() ([]byte, error)) {
	c := s.cache
	if c == nil {
		body, err := compute()
		if err != nil {
			s.queryError(w, r, err)
			return
		}
		writeBody(w, body, "")
		return
	}
	key := resultKey(d.Name, k.epoch, k.endpoint, k.canonical)
	if body, ok := c.Get(key); ok {
		d.cstats.hits.Add(1)
		writeBody(w, body, "hit")
		return
	}
	d.cstats.misses.Add(1)
	body, shared, err := c.Do(r.Context(), key, func() ([]byte, error) {
		body, err := compute()
		if err != nil {
			return nil, err
		}
		c.Put(key, body)
		return body, nil
	})
	if err != nil {
		s.queryError(w, r, err)
		return
	}
	tag := "miss"
	if shared {
		d.cstats.shared.Add(1)
		tag = "shared"
	}
	writeBody(w, body, tag)
}

// handleRange serves GET /v1/{dataset}/range?p=&eps=[&dists=1][&prune=0].
// The ID-only flavour runs the filter-and-refine path when the dataset has
// bounds; dists=1 needs exact distances, which only the plain expansion
// produces.
func (s *Server) handleRange(w http.ResponseWriter, r *http.Request, d *Dataset) {
	req, err := api.DecodeRange(r.URL.Query())
	if err != nil {
		s.writeError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}
	va := d.viewAt()
	k := cacheKey{epoch: va.epoch, endpoint: "range", canonical: req.Canonical()}
	s.cachedRead(w, r, d, k, func() ([]byte, error) {
		resp, err := s.computeRange(r.Context(), d, va, req)
		if err != nil {
			return nil, err
		}
		return bodyOf(resp.AppendJSON(nil))
	})
}

// computeRange runs the engine for a range request.
func (s *Server) computeRange(ctx context.Context, d *Dataset, va viewAt, req api.RangeRequest) (api.RangeResponse, error) {
	view := va.graph
	box := d.backend.scratch(view)
	defer d.putScratch(box)
	resp := api.RangeResponse{Dataset: d.Name, Epoch: va.epoch, Point: req.Point, Eps: req.Eps}
	if req.Dists {
		res, err := box.sc.RangeQueryDistCtx(ctx, view, req.Point, req.Eps)
		if err != nil {
			return resp, err
		}
		resp.Count = len(res)
		resp.Results = api.PointDists(res)
		return resp, nil
	}
	if req.Prune {
		b, err := d.backend.bounds(ctx)
		if err != nil {
			return resp, err
		}
		// The guard matters: a typed-nil *Bounds stored through the interface
		// would read as a live bounder and send the query down the pruned path.
		if b != nil {
			box.sc.SetBounder(b)
		}
	}
	res, err := box.sc.RangeQueryCtx(ctx, view, req.Point, req.Eps)
	if err != nil {
		return resp, err
	}
	resp.Count = len(res)
	resp.Points = append([]netclus.PointID(nil), res...)
	return resp, nil
}

// handleKNN serves GET /v1/{dataset}/knn?p=&k=[&prune=0].
func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request, d *Dataset) {
	req, err := api.DecodeKNN(r.URL.Query())
	if err != nil {
		s.writeError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}
	va := d.viewAt()
	k := cacheKey{epoch: va.epoch, endpoint: "knn", canonical: req.Canonical()}
	s.cachedRead(w, r, d, k, func() ([]byte, error) {
		resp, err := s.computeKNN(r.Context(), d, va, req)
		if err != nil {
			return nil, err
		}
		return bodyOf(resp.AppendJSON(nil))
	})
}

// computeKNN runs the engine for a kNN request: pruned when the dataset has
// bounds and the request did not opt out, else the engine's direct search.
func (s *Server) computeKNN(ctx context.Context, d *Dataset, va viewAt, req api.KNNRequest) (api.KNNResponse, error) {
	var (
		res    []netclus.PointDist
		b      *netclus.Bounds
		err    error
		pruned bool
	)
	if req.Prune {
		if b, err = d.backend.bounds(ctx); err != nil {
			return api.KNNResponse{}, err
		}
	}
	if b != nil {
		var ps netclus.PruneStats
		res, err = netclus.KNearestNeighborsPrunedCtx(ctx, va.graph, b, req.Point, req.K, &ps)
		d.addPrune(ps)
		pruned = true
	} else {
		res, err = netclus.KNearestNeighborsCtx(ctx, va.graph, req.Point, req.K)
	}
	if err != nil {
		return api.KNNResponse{}, err
	}
	return api.KNNResponse{
		Dataset: d.Name, Epoch: va.epoch, Point: req.Point, K: req.K,
		Pruned: pruned, Results: api.PointDists(res),
	}, nil
}

// maxBodyBytes bounds a POST body. Clustering requests are a dozen scalars
// and mutation batches a handful of ops, so 1 MiB is far above any honest
// request and far below what would hurt.
const maxBodyBytes = 1 << 20

// bodyError answers a request that failed to decode: 413 when its body ran
// past maxBodyBytes, 400 otherwise.
func (s *Server) bodyError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	s.writeError(w, status, api.CodeBadRequest, err.Error())
}

// handleCluster serves /v1/{dataset}/cluster for dbscan, epslink and
// kmedoids. Clustering rides the same *Ctx engine entry points as the CLI,
// with the request deadline flowing into every traversal.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request, d *Dataset) {
	var (
		req api.ClusterRequest
		err error
	)
	if r.Method == http.MethodPost {
		req, err = api.DecodeClusterJSON(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	} else {
		req, err = api.DecodeClusterValues(r.URL.Query())
	}
	if err != nil {
		s.bodyError(w, err)
		return
	}
	va := d.viewAt()
	k := cacheKey{epoch: va.epoch, endpoint: "cluster", canonical: req.Canonical()}
	s.cachedRead(w, r, d, k, func() ([]byte, error) {
		resp, err := s.computeCluster(r.Context(), d, va, req)
		if err != nil {
			return nil, err
		}
		return bodyOf(resp.AppendJSON(nil))
	})
}

// computeCluster runs one clustering job against the pinned view — or takes
// the labels the backend already maintains for it, in which case Stats stay
// zero: no traversal ran, which is the point.
func (s *Server) computeCluster(ctx context.Context, d *Dataset, va viewAt, req api.ClusterRequest) (api.ClusterResponse, error) {
	resp := api.ClusterResponse{Dataset: d.Name, Epoch: va.epoch, Algo: req.Algo}
	labels, corePoints, ok := d.backend.maintained(va, req)
	if ok {
		resp.CorePoints = corePoints
	} else {
		var err error
		if labels, err = runCluster(ctx, d, va.graph, req, &resp); err != nil {
			return resp, err
		}
	}
	// ε-Link folds MinSup into its labelling (and maintained ε-Link labels
	// are served only for MinSup <= 1), so only the other algorithms
	// suppress here.
	if req.MinSup > 1 && req.Algo != "epslink" {
		netclus.SuppressSmallClusters(labels, req.MinSup)
	}
	resp.Clusters = netclus.CountClusters(labels)
	for _, l := range labels {
		if l == netclus.Noise {
			resp.Noise++
		}
	}
	if req.Labels {
		resp.Labels = labels
	}
	return resp, nil
}

// runCluster runs the engine for req on g, books the traversal and prune work
// on resp and d, and returns the labels.
func runCluster(ctx context.Context, d *Dataset, g netclus.Graph, req api.ClusterRequest, resp *api.ClusterResponse) ([]int32, error) {
	// ε-Link has no pruned form.
	var bounds netclus.Bounder
	if req.PruneEnabled() && req.Algo != "epslink" {
		b, err := d.backend.bounds(ctx)
		if err != nil {
			return nil, err
		}
		if b != nil {
			bounds = b
		}
	}
	var (
		labels []int32
		stats  netclus.ClusterStats
	)
	switch req.Algo {
	case "dbscan":
		opts := netclus.DBSCANOptions{Eps: req.Eps, MinPts: req.MinPts, Prune: bounds}
		res, err := netclus.DBSCANCtx(ctx, g, opts)
		if err != nil {
			return nil, err
		}
		labels, stats, resp.CorePoints = res.Labels, res.Stats, res.CorePoints
	case "epslink":
		opts := netclus.EpsLinkOptions{Eps: req.Eps, MinSup: req.MinSup}
		res, err := netclus.EpsLinkCtx(ctx, g, opts)
		if err != nil {
			return nil, err
		}
		labels, stats = res.Labels, res.Stats
	case "kmedoids":
		opts := netclus.KMedoidsOptions{
			K: req.K, Restarts: req.Restarts, Prune: bounds,
			Rand: rand.New(rand.NewSource(req.Seed)),
		}
		res, err := netclus.KMedoidsCtx(ctx, g, opts)
		if err != nil {
			return nil, err
		}
		labels, stats, resp.R = res.Labels, res.Stats, res.R
	}
	resp.Stats = statsJSON(stats)
	d.addPrune(stats.Prune)
	if bounds != nil {
		resp.Prune = &stats.Prune
	}
	return labels, nil
}

func statsJSON(st netclus.ClusterStats) api.ClusterStats {
	return api.ClusterStats{
		NodesSettled: st.NodesSettled,
		HeapPushes:   st.HeapPushes,
		EdgesVisited: st.EdgesVisited,
		GroupsRead:   st.GroupsRead,
		RangeQueries: st.RangeQueries,
	}
}

// handleMutate serves POST /v1/datasets/{dataset}/points: one batch of point
// mutations, applied atomically under a single epoch bump. The response's
// Epoch is the first epoch whose reads reflect the batch — by the time the
// client sees it, the new view is published and every result cached under an
// older epoch is unreachable (its key names the stale epoch). Mutations ride
// the standard query middleware, so they flow through the uniform error
// envelope and pay their own admission weight class ("write").
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request, d *Dataset) {
	ov, err := d.backend.writer()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, api.CodeBadRequest, fmt.Sprintf("dataset %q %v", d.Name, err))
		return
	}
	req, err := api.DecodeMutate(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.bodyError(w, err)
		return
	}
	ops, err := req.LiveOps()
	if err != nil {
		s.writeError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}
	res, err := ov.Apply(r.Context(), ops)
	if err != nil {
		s.queryError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, api.MutateResponse{
		Dataset: d.Name, Epoch: res.Epoch, Applied: len(ops), Points: res.Points,
	})
}

// handleDatasets serves GET /v1/datasets: the registry with live counters,
// each dataset's epoch and result-cache share, plus the cache-wide totals.
func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	list := s.reg.List()
	out := make([]api.DatasetInfo, 0, len(list))
	for _, d := range list {
		info := d.info()
		if s.cache != nil {
			rc := d.ResultCacheStats()
			info.ResultCache = &rc
		}
		out = append(out, info)
	}
	resp := api.DatasetsResponse{Datasets: out}
	if s.cache != nil {
		cs := s.cache.Stats()
		resp.ResultCache = &api.CacheTotals{
			ResultCacheStats: api.ResultCacheStats{
				Hits: cs.Hits, Misses: cs.Misses, SingleflightShared: cs.Shared,
			},
			Evictions: cs.Evictions, Entries: cs.Entries,
			Bytes: cs.Bytes, CapacityBytes: cs.Capacity,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz reports ready until the drain begins.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	code := http.StatusOK
	status := "ok"
	if s.draining.Load() {
		code, status = http.StatusServiceUnavailable, "draining"
	}
	writeJSON(w, code, api.HealthResponse{
		Status: status, Datasets: len(s.reg.List()),
		UptimeS: time.Since(s.started).Seconds(),
	})
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WritePrometheus(w, s.adm, s.reg, s.cache)
}
