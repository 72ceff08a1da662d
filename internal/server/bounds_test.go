package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netclus"
	"netclus/internal/server/api"
)

// serveRegistry serves ds under a fresh server whose Shutdown runs at cleanup.
func serveRegistry(t *testing.T, ds ...*Dataset) *Server {
	t.Helper()
	reg := NewRegistry()
	for _, d := range ds {
		if err := reg.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

// TestColdBoundsLazy: a cold dataset reads nothing for its bounds at
// registration, requests that run unpruned (a default kNN among them) never
// build them, and the first pruned requests — sent at once — start exactly
// one build whose answers equal the unpruned ones; Bounds() afterwards hands
// out that same build.
func TestColdBoundsLazy(t *testing.T) {
	dir, opts := testStore(t, testNetwork(t))
	must := mustDataset(t)
	disk := must(NewStoreDataset("disk", dir, opts, 4, false))
	mem := must(NewStoreDataset("mem", dir, memOpts(opts), 4, false))

	// Registration costs what opening the store costs, and not a read more.
	plain, err := netclus.OpenStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := netclus.SnapshotStore(plain)
	plain.Close()
	if got := netclus.SnapshotStore(disk.backend.(*coldBackend).store.st); !reflect.DeepEqual(got, want) {
		t.Fatalf("registration read the store:\n got  %+v\n want %+v", got, want)
	}

	// Every request pins one view, and the build takes one more: the view
	// count tells how many builds ran.
	views := map[string]*atomic.Int64{}
	for _, d := range []*Dataset{disk, mem} {
		cb := d.backend.(*coldBackend)
		calls, inner := new(atomic.Int64), cb.view
		cb.view = func() netclus.Graph { calls.Add(1); return inner() }
		views[d.Name] = calls
	}
	s := serveRegistry(t, disk, mem)
	h := s.Handler()

	for _, name := range []string{"disk", "mem"} {
		cb := s.reg.byName[name].backend.(*coldBackend)
		for p := 0; p < 8; p++ {
			for _, q := range []string{
				"range?p=%d&eps=20&prune=0",
				"range?p=%d&eps=20&dists=1",
				"knn?p=%d&k=5&prune=0",
				"knn?p=%d&k=6",
				"cluster?algo=dbscan&eps=15&minpts=3&prune=0&seed=%d",
				"cluster?algo=epslink&eps=12&seed=%d",
				"cluster?algo=kmedoids&k=3&prune=0&seed=%d",
			} {
				getJSON(t, h, fmt.Sprintf("/v1/%s/"+q, name, p), http.StatusOK, nil)
			}
		}
		var ds api.DatasetsResponse
		getJSON(t, h, "/v1/datasets", http.StatusOK, &ds)
		if cb.started() != nil {
			t.Fatalf("%s: unpruned requests started the bounds build", name)
		}
		for _, info := range ds.Datasets {
			if !info.Bounds {
				t.Fatalf("%s: /v1/datasets reports bounds=false before the build", info.Name)
			}
		}

		const racers = 16
		views[name].Store(0)
		got := make([]api.KNNResponse, racers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for p := 0; p < racers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				<-start
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/%s/knn?p=%d&k=7&prune=1", name, p), nil))
				if rec.Code != http.StatusOK {
					t.Errorf("%s p=%d: %d %s", name, p, rec.Code, rec.Body)
					return
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &got[p]); err != nil {
					t.Error(err)
				}
			}(p)
		}
		close(start)
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		if builds := views[name].Load() - racers; builds != 1 {
			t.Fatalf("%s: %d concurrent first pruned requests ran %d builds", name, racers, builds)
		}
		for p, kr := range got {
			var twin api.KNNResponse
			getJSON(t, h, fmt.Sprintf("/v1/%s/knn?p=%d&k=7&prune=0", name, p), http.StatusOK, &twin)
			if !kr.Pruned || twin.Pruned || !reflect.DeepEqual(kr.Results, twin.Results) {
				t.Fatalf("%s p=%d: pruned %+v, prune=0 twin %+v", name, p, kr, twin)
			}
		}
		b := cb.started()
		if b == nil || b.lb == nil || b.err != nil {
			t.Fatalf("%s: build = %+v", name, b)
		}
		if got := s.reg.byName[name].Bounds(); got != b.lb {
			t.Fatalf("%s: Bounds() = %p, the requests built %p", name, got, b.lb)
		}
	}
}

// started returns the bounds build the first pruned request started, nil
// before one did.
func (c *coldBackend) started() *boundsBuild {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.build
}

var errTripped = errors.New("adjacency read failed")

// tripGraph is one read view of a graph whose at-th Neighbors call trips: it
// fails with errTripped or, when gate is set, blocks until gate is closed.
// Calls are counted per view, so a request's short traversal never gets
// there while the bounds build — a full expansion per landmark — always does;
// trips counts the views that did.
type tripGraph struct {
	netclus.Graph
	at, calls int64
	trips     *atomic.Int64
	gate      chan struct{}
	blocked   chan struct{} // closed when the first view reaches the gate
}

func (g *tripGraph) Neighbors(v netclus.NodeID) ([]netclus.Neighbor, error) {
	if atomic.AddInt64(&g.calls, 1) == g.at {
		if g.trips.Add(1) == 1 && g.blocked != nil {
			close(g.blocked)
		}
		if g.gate == nil {
			return nil, errTripped
		}
		<-g.gate
	}
	return g.Graph.Neighbors(v)
}

// tripper hands out trip views of read views of g.
type tripper struct {
	trips         atomic.Int64
	gate, blocked chan struct{}
}

func (tr *tripper) view(g func() netclus.Graph, at int) func() netclus.Graph {
	return func() netclus.Graph {
		return &tripGraph{Graph: g(), at: int64(at), trips: &tr.trips, gate: tr.gate, blocked: tr.blocked}
	}
}

// TestColdBoundsBuildError: a failed build fails the pruned request that
// asked for it with a 500 in the error envelope, every later pruned request
// with the same cached error (no second build, no silent unpruned fallback),
// while prune=0 requests on the dataset keep answering.
func TestColdBoundsBuildError(t *testing.T) {
	n := testNetwork(t)
	dir, opts := testStore(t, n)
	st, err := netclus.OpenStore(dir, memOpts(opts))
	if err != nil {
		t.Fatal(err)
	}
	tr := &tripper{}
	d := newColdDataset("broken", dir, st, tr.view(func() netclus.Graph { return st.Reader() }, 2*n.NumNodes()), 4)
	s := serveRegistry(t, d)
	h := s.Handler()

	var first string
	for _, q := range []string{"knn?p=1&k=3&prune=1", "range?p=1&eps=20&prune=1", "cluster?algo=dbscan&eps=15&minpts=3&prune=1", "knn?p=2&k=3&prune=1"} {
		var eb api.ErrorBody
		getJSON(t, h, "/v1/broken/"+q, http.StatusInternalServerError, &eb)
		msg := eb.Error.Message
		if eb.Error.Code != api.CodeInternal || !strings.Contains(msg, "building bounds") || !strings.Contains(msg, errTripped.Error()) {
			t.Fatalf("%s: envelope %+v", q, eb)
		}
		if first == "" {
			first = msg
		}
		if msg != first {
			t.Fatalf("%s: error %q, the first pruned request got %q", q, msg, first)
		}
	}
	if got := tr.trips.Load(); got != 1 {
		t.Fatalf("the build ran %d times", got)
	}
	var kr api.KNNResponse
	getJSON(t, h, "/v1/broken/knn?p=1&k=3&prune=0", http.StatusOK, &kr)
	if kr.Pruned || len(kr.Results) != 3 {
		t.Fatalf("prune=0 kNN after a failed build: %+v", kr)
	}
	getJSON(t, h, "/v1/broken/range?p=1&eps=20&prune=0", http.StatusOK, nil)
	if d.Bounds() != nil || !d.HasBounds() || tr.trips.Load() != 1 {
		t.Fatalf("after a failed build: Bounds()=%v HasBounds()=%v builds=%d", d.Bounds(), d.HasBounds(), tr.trips.Load())
	}
}

// TestColdBoundsTimeoutAndClose: a request whose deadline passes while the
// build runs gets the timeout error and leaves the build running; Close
// during the build cancels it and waits for it to stop before closing the
// store; afterwards no goroutine and no admission unit is left behind.
func TestColdBoundsTimeoutAndClose(t *testing.T) {
	n := testNetwork(t)
	dir, opts := testStore(t, n)
	baseline := runtime.NumGoroutine()

	st, err := netclus.OpenStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr := &tripper{gate: make(chan struct{}), blocked: make(chan struct{})}
	d := newColdDataset("gated", dir, st, tr.view(func() netclus.Graph { return st.Reader() }, 2*n.NumNodes()), 4)
	reg := NewRegistry()
	if err := reg.Add(d); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	// The first pruned request starts the build, which stops at the gate.
	waiter := make(chan int)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/gated/knn?p=1&k=3&prune=1", nil))
		waiter <- rec.Code
	}()
	<-tr.blocked

	var eb api.ErrorBody
	getJSON(t, h, "/v1/gated/knn?p=2&k=3&prune=1&timeout_ms=1", http.StatusGatewayTimeout, &eb)
	if eb.Error.Code != api.CodeTimeout {
		t.Fatalf("timed-out wait: envelope %+v", eb)
	}
	getJSON(t, h, "/v1/gated/cluster?algo=dbscan&eps=15&minpts=3&timeout_ms=1", http.StatusGatewayTimeout, nil)
	getJSON(t, h, "/v1/gated/knn?p=2&k=3", http.StatusOK, nil)

	// Close cancels the build; it waits only until the build notices, which
	// it cannot while a read is stuck at the gate.
	closed := make(chan error)
	go func() { closed <- d.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while the build was still reading the store", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(tr.gate)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	b := d.backend.(*coldBackend).started()
	if b.lb != nil || !errors.Is(b.err, netclus.ErrStoreClosed) {
		t.Fatalf("a build cut short by Close: %+v", b)
	}
	if code := <-waiter; code != http.StatusServiceUnavailable {
		t.Fatalf("the request that started the cancelled build answered %d", code)
	}
	if got := tr.trips.Load(); got != 1 {
		t.Fatalf("%d builds", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if a := s.Admission().Stats(); a.InUse != 0 || a.Waiting != 0 {
		t.Fatalf("admission units left behind: %+v", a)
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= baseline })

	// A build asked for after Close fails instead of reading a closed store.
	st2, err := netclus.OpenStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	late := newColdDataset("late", dir, st2, func() netclus.Graph { return st2.Reader() }, 4)
	if err := late.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := late.backend.bounds(ctx); !errors.Is(err, netclus.ErrStoreClosed) {
		t.Fatalf("bounds after Close: %v", err)
	}
}
