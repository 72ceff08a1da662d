// Package api is the typed request/response contract of netclusd: one DTO
// per query endpoint with a single Decode path and a Canonical() string key,
// the response structs the handlers encode, and the uniform JSON error
// envelope. Both the server handlers and the loadtest client consume these
// types, so the two sides cannot drift.
//
// Canonicalization is what makes result-cache keys well-defined: Decode fills
// every defaulted field, normalizes float spellings ("0.50", ".5" and "5e-1"
// all canonicalize to "0.5"), folds algorithm aliases, and Canonical() emits
// the fields in one fixed order. Two requests with the same canonical string
// are the same pure function of the view they run on and must produce
// byte-identical response bodies. See DESIGN.md §11.
package api

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/url"
	"strconv"

	"netclus"
)

// Error codes carried by the error envelope. They classify the failure for
// clients that want to branch without parsing messages.
const (
	CodeBadRequest   = "bad_request"   // malformed or invalid parameters
	CodeNotFound     = "not_found"     // unknown dataset, point or node
	CodeOverloaded   = "overloaded"    // shed by admission control (429)
	CodeTimeout      = "timeout"       // deadline exceeded (504)
	CodeClientClosed = "client_closed" // client went away mid-request (499)
	CodeDraining     = "draining"      // server is shutting down (503)
	CodeUnavailable  = "unavailable"   // backing store closed (503)
	CodeInternal     = "internal"      // anything else (500)
)

// ErrorDetail is the payload of the error envelope.
type ErrorDetail struct {
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// ErrorBody is the uniform JSON error envelope every non-2xx response
// carries: {"error":{"code","message","retry_after_ms"}}.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// Error builds an envelope from a code and message.
func Error(code, message string) ErrorBody {
	return ErrorBody{Error: ErrorDetail{Code: code, Message: message}}
}

// canonFloat renders f in the canonical spelling shared by Canonical() and
// Values(): the shortest representation that round-trips, so every query
// spelling of the same value maps to one key.
func canonFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func canonBool(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// intValue reads an integer query parameter with a default.
func intValue(q url.Values, name string, def int) (int, error) {
	raw := q.Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", name, raw)
	}
	return v, nil
}

// pointValue reads the p parameter, -1 when absent (the engine then answers
// not found). A value outside the ID type's range is refused rather than
// truncated, which would alias it to another point.
func pointValue(q url.Values) (netclus.PointID, error) {
	p, err := intValue(q, "p", -1)
	if err != nil {
		return 0, err
	}
	if p < math.MinInt32 || p > math.MaxInt32 {
		return 0, fmt.Errorf("bad p %q", q.Get("p"))
	}
	return netclus.PointID(p), nil
}

// floatValue reads a float query parameter with a default.
func floatValue(q url.Values, name string, def float64) (float64, error) {
	raw := q.Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", name, raw)
	}
	return v, nil
}

// boolValue reads a 0/1 query parameter, defaulting on anything else.
func boolValue(q url.Values, name string, def bool) bool {
	switch q.Get(name) {
	case "1", "true":
		return true
	case "0", "false":
		return false
	default:
		return def
	}
}

// RangeRequest is GET /v1/{dataset}/range: every point within network
// distance Eps of Point. Dists asks for exact distances (canonical
// ascending (dist, point) order); Prune enables filter-and-refine on the
// ID-only flavour when the dataset has bounds.
type RangeRequest struct {
	Point netclus.PointID
	Eps   float64
	Dists bool
	Prune bool
}

// DecodeRange decodes and canonicalizes a range request from query values.
func DecodeRange(q url.Values) (RangeRequest, error) {
	var req RangeRequest
	var err error
	if req.Point, err = pointValue(q); err != nil {
		return req, err
	}
	if req.Eps, err = floatValue(q, "eps", 0); err != nil {
		return req, err
	}
	if !validEps(req.Eps) {
		return req, fmt.Errorf("eps must be finite and > 0 (got %v)", req.Eps)
	}
	req.Dists = boolValue(q, "dists", false)
	req.Prune = boolValue(q, "prune", true)
	if req.Dists {
		// The distance flavour always runs the plain expansion (upper-bound
		// acceptance does not produce exact distances), so prune is inert:
		// canonicalize it away to merge the keys.
		req.Prune = true
	}
	return req, nil
}

// Canonical returns the stable cache-key fragment of the request: defaults
// filled, floats normalized, fields in fixed order.
func (r RangeRequest) Canonical() string {
	return "p=" + strconv.Itoa(int(r.Point)) +
		"&eps=" + canonFloat(r.Eps) +
		"&dists=" + canonBool(r.Dists) +
		"&prune=" + canonBool(r.Prune)
}

// Values renders the request as query values, for clients.
func (r RangeRequest) Values() url.Values {
	return url.Values{
		"p":     {strconv.Itoa(int(r.Point))},
		"eps":   {canonFloat(r.Eps)},
		"dists": {canonBool(r.Dists)},
		"prune": {canonBool(r.Prune)},
	}
}

// KNNRequest is GET /v1/{dataset}/knn: the K points nearest to Point.
type KNNRequest struct {
	Point netclus.PointID
	K     int
	Prune bool
}

// DecodeKNN decodes and canonicalizes a kNN request from query values.
func DecodeKNN(q url.Values) (KNNRequest, error) {
	var req KNNRequest
	var err error
	if req.Point, err = pointValue(q); err != nil {
		return req, err
	}
	if req.K, err = intValue(q, "k", 5); err != nil {
		return req, err
	}
	if req.K < 1 {
		return req, fmt.Errorf("k must be >= 1")
	}
	req.Prune = boolValue(q, "prune", true)
	return req, nil
}

// Canonical returns the stable cache-key fragment of the request.
func (r KNNRequest) Canonical() string {
	return "p=" + strconv.Itoa(int(r.Point)) +
		"&k=" + strconv.Itoa(r.K) +
		"&prune=" + canonBool(r.Prune)
}

// Values renders the request as query values, for clients.
func (r KNNRequest) Values() url.Values {
	return url.Values{
		"p":     {strconv.Itoa(int(r.Point))},
		"k":     {strconv.Itoa(r.K)},
		"prune": {canonBool(r.Prune)},
	}
}

// ClusterRequest is /v1/{dataset}/cluster for dbscan, epslink and kmedoids.
// Every field can arrive as a query parameter on GET or as the JSON body of a
// POST; both decode paths land on the same canonical form.
type ClusterRequest struct {
	Algo   string  `json:"algo"`
	Eps    float64 `json:"eps"`
	MinPts int     `json:"minpts"`
	MinSup int     `json:"minsup"`
	K      int     `json:"k"`
	// Workers changes nothing: every algorithm runs on one goroutine. It is
	// still decoded and rendered because benchmark/ sends it (ROADMAP item
	// 1 (A)); it is not part of Canonical.
	Workers  int   `json:"workers"`
	Restarts int   `json:"restarts"`
	Seed     int64 `json:"seed"`
	Labels   bool  `json:"labels"`
	Prune    *bool `json:"prune,omitempty"`
}

// clusterDefaults is the canonical zero request.
func clusterDefaults() ClusterRequest {
	return ClusterRequest{Algo: "dbscan", MinPts: 3, K: 8, Restarts: 1, Seed: 1}
}

// maxRestarts bounds k-medoids restarts. Each restart is a full local search
// and the run sizes per-restart arrays up front, so a request's count is
// capped far above any useful value and far below what would hurt.
const maxRestarts = 256

// validEps reports whether eps is a usable radius: finite and > 0. NaN fails
// every comparison, so a plain eps <= 0 check lets it through to the engine.
func validEps(eps float64) bool { return eps > 0 && !math.IsInf(eps, 1) }

// normalize folds aliases and clamps nonsense so that equivalent requests
// share one canonical form. Unknown algorithms, a restart count outside
// [1, maxRestarts], minpts < 1 and an eps that is not finite — or, for the
// density algorithms, not > 0 — are errors.
func (r *ClusterRequest) normalize() error {
	if r.Restarts < 1 || r.Restarts > maxRestarts {
		return fmt.Errorf("restarts must be in [1, %d] (got %d)", maxRestarts, r.Restarts)
	}
	switch r.Algo {
	case "dbscan", "epslink", "kmedoids":
	case "eps-link":
		r.Algo = "epslink"
	case "k-medoids":
		r.Algo = "kmedoids"
	default:
		return fmt.Errorf("unknown algo %q (want dbscan, epslink or kmedoids)", r.Algo)
	}
	// k-medoids ignores eps, so its default 0 stays legal there.
	if !validEps(r.Eps) && (r.Algo != "kmedoids" || r.Eps != 0) {
		return fmt.Errorf("eps must be finite and > 0 (got %v)", r.Eps)
	}
	if r.MinPts < 1 {
		return fmt.Errorf("minpts must be >= 1 (got %d)", r.MinPts)
	}
	if r.Workers < 0 {
		r.Workers = 0
	}
	return nil
}

// DecodeClusterValues decodes and canonicalizes a cluster request from query
// values (the GET flavour).
func DecodeClusterValues(q url.Values) (ClusterRequest, error) {
	req := clusterDefaults()
	if v := q.Get("algo"); v != "" {
		req.Algo = v
	}
	var err error
	if req.Eps, err = floatValue(q, "eps", 0); err != nil {
		return req, err
	}
	if req.MinPts, err = intValue(q, "minpts", req.MinPts); err != nil {
		return req, err
	}
	if req.MinSup, err = intValue(q, "minsup", 0); err != nil {
		return req, err
	}
	if req.K, err = intValue(q, "k", req.K); err != nil {
		return req, err
	}
	if req.Workers, err = intValue(q, "workers", 0); err != nil {
		return req, err
	}
	if req.Restarts, err = intValue(q, "restarts", req.Restarts); err != nil {
		return req, err
	}
	seed, err := intValue(q, "seed", 1)
	if err != nil {
		return req, err
	}
	req.Seed = int64(seed)
	req.Labels = boolValue(q, "labels", false)
	if q.Get("prune") != "" {
		p := boolValue(q, "prune", true)
		req.Prune = &p
	}
	return req, req.normalize()
}

// DecodeClusterJSON decodes and canonicalizes a cluster request from a JSON
// body (the POST flavour).
func DecodeClusterJSON(body io.Reader) (ClusterRequest, error) {
	req := clusterDefaults()
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		return req, fmt.Errorf("bad request body: %w", err)
	}
	return req, req.normalize()
}

// PruneEnabled resolves the tri-state prune field: absent means true.
func (r ClusterRequest) PruneEnabled() bool {
	return r.Prune == nil || *r.Prune
}

// Canonical returns the stable cache-key fragment of the request. It leaves
// out Workers, which changes no answer, so equal jobs share one entry.
func (r ClusterRequest) Canonical() string {
	return "algo=" + r.Algo +
		"&eps=" + canonFloat(r.Eps) +
		"&minpts=" + strconv.Itoa(r.MinPts) +
		"&minsup=" + strconv.Itoa(r.MinSup) +
		"&k=" + strconv.Itoa(r.K) +
		"&restarts=" + strconv.Itoa(r.Restarts) +
		"&seed=" + strconv.FormatInt(r.Seed, 10) +
		"&labels=" + canonBool(r.Labels) +
		"&prune=" + canonBool(r.PruneEnabled())
}

// Values renders the request as query values, for clients.
func (r ClusterRequest) Values() url.Values {
	return url.Values{
		"algo":     {r.Algo},
		"eps":      {canonFloat(r.Eps)},
		"minpts":   {strconv.Itoa(r.MinPts)},
		"minsup":   {strconv.Itoa(r.MinSup)},
		"k":        {strconv.Itoa(r.K)},
		"workers":  {strconv.Itoa(r.Workers)},
		"restarts": {strconv.Itoa(r.Restarts)},
		"seed":     {strconv.FormatInt(r.Seed, 10)},
		"labels":   {canonBool(r.Labels)},
		"prune":    {canonBool(r.PruneEnabled())},
	}
}

// MutateOp is one point mutation in a POST /v1/datasets/{dataset}/points
// batch. Op selects the kind:
//
//   - "insert": place a new point. Either n1+n2 name the edge and pos is the
//     absolute offset from the canonical endpoint, or near names an existing
//     point and pos is a [0,1] fraction along that point's edge.
//   - "move": relocate point. With n1+n2 the destination is explicit
//     (absolute pos); without, the point slides along its own edge to the
//     [0,1] fraction pos.
//   - "delete": remove point.
//
// Pointer fields distinguish "absent" from node/point 0.
type MutateOp struct {
	Op    string  `json:"op"`
	Point *int32  `json:"point,omitempty"`
	N1    *int32  `json:"n1,omitempty"`
	N2    *int32  `json:"n2,omitempty"`
	Near  *int32  `json:"near,omitempty"`
	Pos   float64 `json:"pos"`
	Tag   int32   `json:"tag,omitempty"`
}

// MutateRequest is the body of POST /v1/datasets/{dataset}/points: one batch
// of mutations, applied atomically — all ops commit under a single epoch bump
// or the whole batch is rejected.
type MutateRequest struct {
	Ops []MutateOp `json:"ops"`
}

// MaxMutateOps caps the ops of one mutation batch. The overlay's single
// reconciler applies a batch as one unit under one epoch bump, so the batch
// size bounds how long every other writer waits; a body under the size limit
// could otherwise carry tens of thousands of ops.
const MaxMutateOps = 1024

// DecodeMutate decodes a mutation batch from a JSON body: 1 to MaxMutateOps
// ops. Shape validation (which fields each op kind needs) happens in LiveOps.
func DecodeMutate(body io.Reader) (MutateRequest, error) {
	var req MutateRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		return req, fmt.Errorf("bad request body: %w", err)
	}
	if len(req.Ops) == 0 {
		return req, fmt.Errorf("ops must be non-empty")
	}
	if len(req.Ops) > MaxMutateOps {
		return req, fmt.Errorf("ops holds %d entries, at most %d are allowed in one batch", len(req.Ops), MaxMutateOps)
	}
	return req, nil
}

// LiveOps converts the batch to engine ops, validating each op's shape.
// Target IDs resolve against the pre-batch view; range checks happen in the
// engine where the view is known.
func (r MutateRequest) LiveOps() ([]netclus.LiveOp, error) {
	ops := make([]netclus.LiveOp, 0, len(r.Ops))
	for i, m := range r.Ops {
		edge := m.N1 != nil && m.N2 != nil
		if (m.N1 != nil) != (m.N2 != nil) {
			return nil, fmt.Errorf("ops[%d]: n1 and n2 must be given together", i)
		}
		switch m.Op {
		case "insert":
			if edge == (m.Near != nil) {
				return nil, fmt.Errorf("ops[%d]: insert needs either n1+n2 or near", i)
			}
			if m.Point != nil {
				return nil, fmt.Errorf("ops[%d]: insert does not take point", i)
			}
			if edge {
				ops = append(ops, netclus.LiveInsert(netclus.NodeID(*m.N1), netclus.NodeID(*m.N2), m.Pos, m.Tag))
			} else {
				ops = append(ops, netclus.LiveInsertNear(netclus.PointID(*m.Near), m.Pos, m.Tag))
			}
		case "move":
			if m.Point == nil {
				return nil, fmt.Errorf("ops[%d]: move needs point", i)
			}
			if m.Near != nil {
				return nil, fmt.Errorf("ops[%d]: move does not take near", i)
			}
			if edge {
				ops = append(ops, netclus.LiveMove(netclus.PointID(*m.Point), netclus.NodeID(*m.N1), netclus.NodeID(*m.N2), m.Pos))
			} else {
				ops = append(ops, netclus.LiveMoveSame(netclus.PointID(*m.Point), m.Pos))
			}
		case "delete":
			if m.Point == nil {
				return nil, fmt.Errorf("ops[%d]: delete needs point", i)
			}
			if edge || m.Near != nil {
				return nil, fmt.Errorf("ops[%d]: delete takes only point", i)
			}
			ops = append(ops, netclus.LiveDelete(netclus.PointID(*m.Point)))
		default:
			return nil, fmt.Errorf("ops[%d]: unknown op %q (want insert, move or delete)", i, m.Op)
		}
	}
	return ops, nil
}

// MutateResponse is the body of a committed mutation batch. Epoch is the
// epoch the batch produced — the first epoch whose reads reflect it.
type MutateResponse struct {
	Dataset string `json:"dataset"`
	Epoch   int64  `json:"epoch"`
	Applied int    `json:"applied"`
	Points  int    `json:"points"`
}

// PointDist is one (point, distance) result row.
type PointDist struct {
	Point netclus.PointID `json:"point"`
	Dist  float64         `json:"dist"`
}

// PointDists converts engine results to response rows.
func PointDists(res []netclus.PointDist) []PointDist {
	out := make([]PointDist, len(res))
	for i, pd := range res {
		out[i] = PointDist{Point: pd.Point, Dist: pd.Dist}
	}
	return out
}

// RangeResponse is the body of a range query. Epoch identifies the dataset
// view the result was computed against (always 1 for an immutable dataset);
// response bodies are pure functions of (dataset, epoch, canonical request),
// which is what makes an immutable dataset's cacheable byte-for-byte. Timing
// lives in the X-Netclusd-Elapsed-Ms header and /metrics, not the body.
type RangeResponse struct {
	Dataset string            `json:"dataset"`
	Epoch   int64             `json:"epoch"`
	Point   netclus.PointID   `json:"point"`
	Eps     float64           `json:"eps"`
	Count   int               `json:"count"`
	Points  []netclus.PointID `json:"points,omitempty"`
	Results []PointDist       `json:"results,omitempty"`
}

// KNNResponse is the body of a kNN query.
type KNNResponse struct {
	Dataset string          `json:"dataset"`
	Epoch   int64           `json:"epoch"`
	Point   netclus.PointID `json:"point"`
	K       int             `json:"k"`
	Results []PointDist     `json:"results"`
	Pruned  bool            `json:"pruned"`
}

// ClusterStats is the traversal-work accounting attached to a clustering
// response.
type ClusterStats struct {
	NodesSettled int `json:"nodes_settled"`
	HeapPushes   int `json:"heap_pushes"`
	EdgesVisited int `json:"edges_visited"`
	GroupsRead   int `json:"groups_read"`
	RangeQueries int `json:"range_queries"`
}

// ClusterResponse is the body of a clustering run.
type ClusterResponse struct {
	Dataset    string              `json:"dataset"`
	Epoch      int64               `json:"epoch"`
	Algo       string              `json:"algo"`
	Clusters   int                 `json:"clusters"`
	Noise      int                 `json:"noise"`
	CorePoints int                 `json:"core_points,omitempty"`
	R          float64             `json:"r,omitempty"`
	Labels     []int32             `json:"labels,omitempty"`
	Stats      ClusterStats        `json:"stats"`
	Prune      *netclus.PruneStats `json:"prune,omitempty"`
}

// ResultCacheStats is one dataset's share of result-cache traffic.
type ResultCacheStats struct {
	Hits               int64 `json:"hits"`
	Misses             int64 `json:"misses"`
	SingleflightShared int64 `json:"singleflight_shared"`
}

// HitRatio is the fraction of lookups served without recomputing.
func (s ResultCacheStats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// CacheTotals is the cache-wide view exported at the top level of
// /v1/datasets: the summed traffic counters plus the byte budget state.
type CacheTotals struct {
	ResultCacheStats
	Evictions     int64 `json:"evictions"`
	Entries       int64 `json:"entries"`
	Bytes         int64 `json:"bytes"`
	CapacityBytes int64 `json:"capacity_bytes"`
}

// DatasetInfo is one /v1/datasets entry. The pre-epoch fields keep their
// exact JSON names — TestDatasetsGolden pins that contract. ResultCache is
// absent when the server runs without a cache and on a live dataset, whose
// reads are never cached.
type DatasetInfo struct {
	Name        string              `json:"name"`
	Kind        string              `json:"kind"`
	Source      string              `json:"source"`
	Epoch       int64               `json:"epoch"`
	Nodes       int                 `json:"nodes"`
	Edges       int                 `json:"edges"`
	Points      int                 `json:"points"`
	Bounds      bool                `json:"bounds"`
	Hot         bool                `json:"hot"`
	Queries     int64               `json:"queries"`
	Store       *netclus.StoreStats `json:"store,omitempty"`
	CSR         *netclus.CSRStats   `json:"csr,omitempty"`
	Prune       netclus.PruneStats  `json:"prune"`
	ResultCache *ResultCacheStats   `json:"result_cache,omitempty"`

	// Sharded-dataset fields (absent for unsharded datasets — additive, so
	// the golden contract above is untouched). Shards is the shard count;
	// ShardSet describes the partition (cut edges, boundary nodes, per-shard
	// sizes).
	Shards   int                      `json:"shards,omitempty"`
	ShardSet *netclus.ShardedSetStats `json:"shard_set,omitempty"`

	// Live-dataset write-path telemetry (absent for immutable datasets):
	// epoch, point count, batch/op/rejection counters and the live
	// maintainer's work. Additive, so the golden contract above
	// is untouched.
	Live *netclus.LiveStats `json:"live,omitempty"`
}

// DatasetsResponse is the /v1/datasets payload.
type DatasetsResponse struct {
	Datasets    []DatasetInfo `json:"datasets"`
	ResultCache *CacheTotals  `json:"result_cache,omitempty"`
}

// HealthResponse is the /healthz payload.
type HealthResponse struct {
	Status   string  `json:"status"`
	Datasets int     `json:"datasets"`
	UptimeS  float64 `json:"uptime_s"`
}
