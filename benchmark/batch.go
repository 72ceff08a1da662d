package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"time"

	"netclus"
)

// The library jobs of one round, in run order. The first six are one call
// each; knn and range are w.Probes queries whose round value is the mean
// per-query time.
var libJobs = []string{"dbscan", "epslink", "dbscan_par", "epslink_par", "kmedoids", "singlelink", "knn", "range"}

// jobMetric maps a job to the end-to-end metric its round times feed.
func jobMetric(job string) string {
	if job == "knn" || job == "range" {
		return job + "_us"
	}
	return job + "_ms"
}

// libSection runs library rounds on one graph: one goroutine calling the
// public netclus entry points, the way a batch user would.
type libSection struct {
	ctx     context.Context
	g       netclus.Graph
	eps     float64
	workers int // Workers of the _par jobs: GOMAXPROCS
	probes  int
	seed    int64
	wi      int // workload index, for substreams

	scratch netclus.RangeQuerier
	samples map[string][]float64 // job -> timed per-round values (ms, or us per query)
	rounds  []float64            // timed whole-round durations, ms
	traced  []bool               // per timed round: were spans recorded

	// first holds round 0's outputs for the correctness checks and the
	// exact work counters.
	first struct {
		hash  map[string]uint64
		stats map[string]netclus.ClusterStats
	}

	attempted, failed int
	failures          []string
}

func newLibSection(ctx context.Context, g netclus.Graph, eps float64, w workload, wi int, seed int64, workers int) *libSection {
	s := &libSection{
		ctx: ctx, g: g, eps: eps, workers: workers, probes: w.Probes, seed: seed, wi: wi,
		scratch: netclus.ScratchFor(g),
		samples: make(map[string][]float64),
	}
	s.first.hash = make(map[string]uint64)
	s.first.stats = make(map[string]netclus.ClusterStats)
	return s
}

func (s *libSection) fail(format string, args ...any) {
	s.failed++
	if len(s.failures) < 20 {
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

// labelHash is the FNV-1a hash of a label vector.
func labelHash(labels []int32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, l := range labels {
		binary.LittleEndian.PutUint32(b[:], uint32(l))
		h.Write(b[:])
	}
	return h.Sum64()
}

// round runs the eight jobs once. Round r's probes come from substream
// (seed, r). The six clustering jobs do the same work in every round of every
// run: the cost of one k-medoids run varies several-fold with its random
// start, so it always gets the same one.
//
// With a tracer, every other timed round records no spans, so the two halves
// measure what tracing costs on the same operations.
func (s *libSection) round(r int, timed bool, tr *tracer) error {
	if timed {
		if len(s.rounds)%2 == 1 {
			tr = nil
		}
		s.traced = append(s.traced, tr != nil)
	}
	roundSpan := tr.begin("round", -1, int64(r))
	defer tr.end(roundSpan)
	roundStart := time.Now()
	probeRng := substream(s.seed, s.wi, roleProbes, r)
	n := s.g.NumPoints()
	probes := make([]netclus.PointID, s.probes)
	for i := range probes {
		probes[i] = netclus.PointID(probeRng.Intn(n))
	}
	for _, job := range libJobs {
		id := tr.begin("job."+job, roundSpan, int64(r))
		t0 := time.Now()
		labels, stats, err := s.job(job, r, probes)
		d := time.Since(t0)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("round %d %s: %w", r, job, err)
		}
		if r == 0 {
			s.first.stats[job] = stats
			if labels != nil {
				s.first.hash[job] = labelHash(labels)
			}
		}
		if !timed {
			continue
		}
		if job == "knn" || job == "range" {
			s.samples[job] = append(s.samples[job], float64(d.Nanoseconds())/1e3/float64(len(probes)))
		} else {
			s.samples[job] = append(s.samples[job], float64(d.Nanoseconds())/1e6)
		}
	}
	if timed {
		s.rounds = append(s.rounds, float64(time.Since(roundStart).Nanoseconds())/1e6)
	}
	return nil
}

// job runs one library job and checks its output's shape. Clustering jobs
// return their labels and work counters.
func (s *libSection) job(job string, r int, probes []netclus.PointID) ([]int32, netclus.ClusterStats, error) {
	g, ctx := s.g, s.ctx
	switch job {
	case "dbscan", "dbscan_par":
		opts := netclus.DBSCANOptions{Eps: s.eps, MinPts: 3}
		if job == "dbscan_par" {
			opts.Workers = s.workers
		}
		s.attempted++
		res, err := netclus.DBSCANCtx(ctx, g, opts)
		if err != nil {
			return nil, netclus.ClusterStats{}, err
		}
		if len(res.Labels) != g.NumPoints() || res.NumClusters < 1 {
			s.fail("%s: %d labels, %d clusters", job, len(res.Labels), res.NumClusters)
		}
		return res.Labels, res.Stats, nil
	case "epslink", "epslink_par":
		opts := netclus.EpsLinkOptions{Eps: s.eps / 2, MinSup: 3}
		if job == "epslink_par" {
			opts.Workers = s.workers
		}
		s.attempted++
		res, err := netclus.EpsLinkCtx(ctx, g, opts)
		if err != nil {
			return nil, netclus.ClusterStats{}, err
		}
		if len(res.Labels) != g.NumPoints() || res.NumClusters < 1 {
			s.fail("%s: %d labels, %d clusters", job, len(res.Labels), res.NumClusters)
		}
		return res.Labels, res.Stats, nil
	case "kmedoids":
		// One start for every round, run and seed: the swaps a k-medoids run
		// makes before it converges, and so its cost, vary several-fold with
		// the start, and parent and change have to run the same one anyway.
		s.attempted++
		res, err := netclus.KMedoidsCtx(ctx, g, netclus.KMedoidsOptions{K: 10, Rand: substream(0, s.wi, roleKMedoids, 0)})
		if err != nil {
			return nil, netclus.ClusterStats{}, err
		}
		if len(res.Labels) != g.NumPoints() || len(res.Medoids) != 10 || !(res.R > 0) {
			s.fail("kmedoids: %d labels, %d medoids, R=%v", len(res.Labels), len(res.Medoids), res.R)
		}
		return res.Labels, res.Stats, nil
	case "singlelink":
		s.attempted++
		res, err := netclus.SingleLinkCtx(ctx, g, netclus.SingleLinkOptions{Delta: 0.7 * s.eps})
		if err != nil {
			return nil, netclus.ClusterStats{}, err
		}
		if res.Dendrogram == nil || res.FinalClusters < 1 {
			s.fail("singlelink: no dendrogram")
		}
		return nil, res.Stats, nil
	case "knn":
		for _, p := range probes {
			s.attempted++
			res, err := netclus.KNearestNeighborsCtx(ctx, g, p, 10)
			if err != nil {
				return nil, netclus.ClusterStats{}, err
			}
			if len(res) != 10 || res[0].Dist > res[9].Dist {
				s.fail("knn(%d): %d results", p, len(res))
			}
		}
	case "range":
		for _, p := range probes {
			s.attempted++
			res, err := s.scratch.RangeQueryCtx(ctx, g, p, s.eps)
			if err != nil {
				return nil, netclus.ClusterStats{}, err
			}
			if len(res) == 0 {
				s.fail("range(%d): empty (the query point itself is within eps)", p)
			}
		}
	}
	return nil, netclus.ClusterStats{}, nil
}

// metrics returns the library end-to-end metrics: the quiet quartile over
// timed rounds of each job's value.
func (s *libSection) metrics() values {
	v := values{}
	for _, job := range libJobs {
		v[jobMetric(job)] = quietQuartile(s.samples[job])
	}
	return v
}

// traceOverheadPct compares the timed rounds that recorded spans with those
// that did not, as a percentage of the untraced median.
func (s *libSection) traceOverheadPct() float64 {
	var on, off []float64
	for i, ms := range s.rounds {
		if s.traced[i] {
			on = append(on, ms)
		} else {
			off = append(off, ms)
		}
	}
	if len(on) == 0 || len(off) == 0 {
		return 0
	}
	return 100 * (median(on) - median(off)) / median(off)
}
