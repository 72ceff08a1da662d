package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the tracer started; Parent is the ID of the span that
// caused it (-1 for a root) and Req groups the spans of one request or round.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans caps the in-memory trace; later spans are counted, not kept, so a
// long run of bursts cannot grow the trace (and its write-out) without bound.
const maxSpans = 200_000

// tracer records spans around the calls the benchmark makes. A nil tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (-1 when not recording).
func (t *tracer) begin(name string, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: now, End: -1})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its children cover (children of one parent may overlap when they ran on
// different goroutines, so their intervals are merged first).
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, hi := int64(0), s.Start
		for _, k := range kids {
			lo, end := max(k.Start, hi), min(k.End, s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return self
}

// traceFile is the on-disk form of a trace.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Dropped  int64              `json:"dropped_spans"`
	SelfMS   map[string]float64 `json:"self_ms_by_name"`
	Spans    []span             `json:"spans"`
}

// write stores the trace as JSON at path.
func (t *tracer) write(path, workload string, seed int64) error {
	self := t.selfTimes()
	tf := traceFile{Workload: workload, Seed: seed, SelfMS: make(map[string]float64, len(self))}
	for name, d := range self {
		tf.SelfMS[name] = float64(d.Nanoseconds()) / 1e6
	}
	t.mu.Lock()
	tf.Dropped, tf.Spans = t.dropped, t.spans
	data, err := json.Marshal(tf)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
