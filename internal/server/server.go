package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"netclus"
	"netclus/internal/server/api"
)

// EndpointCosts sets the admission cost of each query endpoint in abstract
// units. A clustering job touches every point of the dataset and fans out
// workers, so its default cost is many times a point query's — the semaphore
// then guarantees heavy jobs can't occupy the whole server and starve kNN
// traffic, and vice versa.
type EndpointCosts struct {
	Range   int64 `json:"range"`
	KNN     int64 `json:"knn"`
	Cluster int64 `json:"cluster"`
	// Write is the admission cost of a mutation batch. Writes serialize
	// through the dataset's reconciler and trigger incremental re-clustering,
	// so they weigh more than a point query but far less than a full
	// clustering job.
	Write int64 `json:"write"`
}

func (c EndpointCosts) withDefaults() EndpointCosts {
	if c.Range <= 0 {
		c.Range = 1
	}
	if c.KNN <= 0 {
		c.KNN = 1
	}
	if c.Cluster <= 0 {
		c.Cluster = 8
	}
	if c.Write <= 0 {
		c.Write = 2
	}
	return c
}

// Config assembles a Server.
type Config struct {
	// Addr is the listen address for ListenAndServe (default ":8080").
	Addr string
	// Registry holds the served datasets (required).
	Registry *Registry
	// Capacity is the admission controller's total cost units
	// (0 = 2×GOMAXPROCS).
	Capacity int64
	// MaxQueue bounds the admission wait queue (0 = 64).
	MaxQueue int
	// Costs are the per-endpoint admission costs.
	Costs EndpointCosts
	// DefaultTimeout bounds a request that names none (default 10s).
	DefaultTimeout time.Duration
	// MaxTimeout caps the client-requested timeout_ms (default 2m).
	MaxTimeout time.Duration
	// RetryAfter is the hint returned with 429 responses (default 1s).
	RetryAfter time.Duration
	// MaxClusterWorkers caps the workers parameter of clustering requests
	// (default 8).
	MaxClusterWorkers int
	// ResultCacheBytes is the result cache's byte budget (0 = 64 MiB,
	// negative = caching disabled). Datasets can opt out individually via
	// Dataset.DisableCache.
	ResultCacheBytes int64
	// Log receives serving errors and panics; nil discards them.
	Log *log.Logger
}

// Server is the netclusd HTTP server: routing, middleware (panic isolation,
// instrumentation, deadline propagation, admission) and the graceful drain
// sequence over a dataset registry.
type Server struct {
	cfg      Config
	reg      *Registry
	adm      *Admission
	metrics  *Metrics
	mux      *http.ServeMux
	http     *http.Server
	cache    *ResultCache // nil when disabled
	draining atomic.Bool
	started  time.Time
}

// New wires a Server from cfg. cfg.Registry must be non-nil.
func New(cfg Config) (*Server, error) {
	if cfg.Registry == nil {
		return nil, errors.New("server: Config.Registry is required")
	}
	if cfg.Addr == "" {
		cfg.Addr = ":8080"
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 10 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 2 * time.Minute
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.MaxClusterWorkers <= 0 {
		cfg.MaxClusterWorkers = 8
	}
	cfg.Costs = cfg.Costs.withDefaults()
	if cfg.ResultCacheBytes == 0 {
		cfg.ResultCacheBytes = 64 << 20
	}
	s := &Server{
		cfg:     cfg,
		reg:     cfg.Registry,
		adm:     NewAdmission(cfg.Capacity, cfg.MaxQueue),
		metrics: NewMetrics(),
		mux:     http.NewServeMux(),
		started: time.Now(),
	}
	if cfg.ResultCacheBytes > 0 {
		s.cache = NewResultCache(cfg.ResultCacheBytes)
	}
	for _, d := range cfg.Registry.List() {
		d.backend.attach(cfg.MaxTimeout, s.metrics)
	}
	s.mux.HandleFunc("GET /healthz", s.instrumented("healthz", "", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.instrumented("metrics", "", s.handleMetrics))
	s.mux.HandleFunc("GET /v1/datasets", s.instrumented("datasets", "", s.handleDatasets))
	s.mux.HandleFunc("GET /v1/{dataset}/range", s.query("range", s.cfg.Costs.Range, s.handleRange))
	s.mux.HandleFunc("GET /v1/{dataset}/knn", s.query("knn", s.cfg.Costs.KNN, s.handleKNN))
	s.mux.HandleFunc("GET /v1/{dataset}/cluster", s.query("cluster", s.cfg.Costs.Cluster, s.handleCluster))
	s.mux.HandleFunc("POST /v1/{dataset}/cluster", s.query("cluster", s.cfg.Costs.Cluster, s.handleCluster))
	s.mux.HandleFunc("POST /v1/datasets/{dataset}/points", s.query("write", s.cfg.Costs.Write, s.handleMutate))
	s.http = &http.Server{Addr: cfg.Addr, Handler: s.mux}
	return s, nil
}

// Handler exposes the routed, middleware-wrapped handler (tests run it under
// httptest without a listener).
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the server's instrumentation.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Admission exposes the admission controller.
func (s *Server) Admission() *Admission { return s.adm }

// ResultCache exposes the server's result cache; nil when caching is off.
func (s *Server) ResultCache() *ResultCache { return s.cache }

// cacheFor resolves the cache a dataset's queries go through: nil when the
// server runs uncached or the dataset opted out.
func (s *Server) cacheFor(d *Dataset) *ResultCache {
	if s.cache == nil || d.DisableCache {
		return nil
	}
	return s.cache
}

// ListenAndServe serves on cfg.Addr until Shutdown; like http.Server, it
// returns http.ErrServerClosed after a clean drain.
func (s *Server) ListenAndServe() error { return s.http.ListenAndServe() }

// Serve serves on l until Shutdown.
func (s *Server) Serve(l net.Listener) error { return s.http.Serve(l) }

// Shutdown runs the graceful drain sequence: mark draining (health turns
// unready), stop accepting connections and wait for every in-flight request
// to finish (bounded by ctx), then close the datasets' stores. In-flight
// queries are never cut off by the store closing underneath them.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	err := s.http.Shutdown(ctx)
	if cerr := s.reg.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeError writes the uniform api.ErrorBody envelope.
func (s *Server) writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, api.Error(code, msg))
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log.Printf(format, args...)
	}
}

// statusWriter captures the response code for instrumentation.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// instrumented wraps h with the outermost middleware every endpoint gets:
// panic isolation (one bad request must never kill the process) and
// request-count/latency instrumentation.
func (s *Server) instrumented(endpoint, dataset string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		s.metrics.inflight.Add(1)
		start := time.Now()
		ds := dataset
		if ds == "" {
			ds = r.PathValue("dataset")
		}
		defer func() {
			if p := recover(); p != nil {
				s.metrics.Panicked()
				s.logf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
				if sw.code == 0 {
					s.writeError(sw, http.StatusInternalServerError, api.CodeInternal, "internal error")
				}
			}
			s.metrics.inflight.Add(-1)
			code := sw.code
			if code == 0 {
				code = http.StatusOK
			}
			s.metrics.Observe(endpoint, ds, code, time.Since(start))
		}()
		h(sw, r)
	}
}

// query wraps a dataset query endpoint with the full middleware stack:
// instrumentation + panic isolation, dataset resolution, per-request deadline
// propagation, and weighted admission. The deadline covers the admission wait
// too, so a queued request that would blow its budget gives its slot up.
func (s *Server) query(endpoint string, cost int64, h func(http.ResponseWriter, *http.Request, *Dataset)) http.HandlerFunc {
	return s.instrumented(endpoint, "", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			s.writeError(w, http.StatusServiceUnavailable, api.CodeDraining, "server draining")
			return
		}
		d, ok := s.reg.Get(r.PathValue("dataset"))
		if !ok {
			s.writeError(w, http.StatusNotFound, api.CodeNotFound, fmt.Sprintf("unknown dataset %q", r.PathValue("dataset")))
			return
		}
		timeout, err := requestTimeout(r, s.cfg.DefaultTimeout, s.cfg.MaxTimeout)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		if err := s.adm.Acquire(ctx, cost); err != nil {
			switch {
			case errors.Is(err, ErrOverloaded):
				w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter.Round(time.Second)/time.Second)))
				body := api.Error(api.CodeOverloaded, err.Error())
				body.Error.RetryAfterMS = s.cfg.RetryAfter.Milliseconds()
				writeJSON(w, http.StatusTooManyRequests, body)
			case errors.Is(err, context.DeadlineExceeded):
				s.writeError(w, http.StatusGatewayTimeout, api.CodeTimeout, "timed out waiting for admission")
			default: // client went away
				s.writeError(w, statusClientClosed, api.CodeClientClosed, err.Error())
			}
			return
		}
		defer s.adm.Release(cost)
		d.queries.Add(1)
		h(w, r.WithContext(ctx), d)
	})
}

// statusClientClosed mirrors nginx's non-standard 499 "client closed
// request"; the client is gone, so the code is for the metrics only.
const statusClientClosed = 499

// requestTimeout resolves the effective deadline of a request from its
// timeout_ms query parameter, clamped to maxTimeout.
func requestTimeout(r *http.Request, def, max time.Duration) (time.Duration, error) {
	raw := r.URL.Query().Get("timeout_ms")
	if raw == "" {
		return def, nil
	}
	ms, err := strconv.Atoi(raw)
	if err != nil || ms <= 0 {
		return 0, fmt.Errorf("bad timeout_ms %q", raw)
	}
	// Compare before multiplying: a huge ms would overflow the Duration and
	// come out negative or tiny instead of clamped.
	if int64(ms) > int64(max/time.Millisecond) {
		return max, nil
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// writeJSON writes v as the response with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// queryError maps an engine error onto a status code and error envelope.
func (s *Server) queryError(w http.ResponseWriter, r *http.Request, err error) {
	status, code := http.StatusInternalServerError, api.CodeInternal
	switch {
	case errors.Is(err, netclus.ErrPointNotFound), errors.Is(err, netclus.ErrNodeNotFound):
		status, code = http.StatusNotFound, api.CodeNotFound
	case errors.Is(err, netclus.ErrInvalidOptions):
		status, code = http.StatusBadRequest, api.CodeBadRequest
	case errors.Is(err, netclus.ErrStoreClosed), errors.Is(err, netclus.ErrLiveClosed):
		status, code = http.StatusServiceUnavailable, api.CodeUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		status, code = http.StatusGatewayTimeout, api.CodeTimeout
	case errors.Is(err, context.Canceled):
		status, code = statusClientClosed, api.CodeClientClosed
	default:
		s.logf("internal error serving %s: %v", r.URL.Path, err)
	}
	s.writeError(w, status, code, err.Error())
}
