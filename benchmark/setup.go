package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"netclus"
	"netclus/internal/server"
)

// datasetName is the registry key of the one served dataset.
const datasetName = "main"

// liveCompactOps is the live backend's CompactOps. A write costs 3 ms right
// after a compaction and 6 ms before the next, and the default of 4096
// pending ops makes that cycle 8 s long: a run then times two cycles and a
// fraction, and which fraction put ±10% on throughput_rps from one seed to
// the next. At 1024 a run sees ten compactions or more and the cycle
// averages out.
const liveCompactOps = 1024

// preMutations is how many ops the live backend applies before anything is
// measured, so that its published view is a merged delta view (the path
// reads take beside writes) and not the untouched base snapshot. It stays
// well under liveCompactOps, so no compaction folds the delta away before
// the library rounds run on it.
const preMutations = 512

// deployment is a generated network made ready to answer: the graph the
// library rounds call into and a server hosting the same data on a loopback
// listener.
type deployment struct {
	w   workload
	net *netclus.Network
	eps float64

	graph netclus.Graph     // what the library rounds run on
	snap  *netclus.Snapshot // csr and live backends
	store *netclus.Store    // store backend: the library rounds' own handle
	dir   string            // store backend: the store directory

	buildMS float64 // store backend: how long BuildStore took

	ds      *server.Dataset
	srv     *server.Server
	served  chan error // Serve's return value
	baseURL string
	client  *http.Client
}

// storeOptions are the workload's store parameters: its buffer size and
// otherwise the defaults.
func (w workload) storeOptions() netclus.StoreOptions {
	return netclus.StoreOptions{BufferBytes: w.BufferBytes}
}

// deploy takes the generated network to ready-to-answer — compile or build
// and open, bounds, overlay, server and listener — recording a span per step
// under parent. outDir holds the store files of the store backend.
func deploy(w workload, g *netclus.Network, eps float64, outDir string, tr *tracer, parent int32) (*deployment, error) {
	d := &deployment{w: w, net: g, eps: eps}
	step := func(name string, fn func() error) error {
		id := tr.begin(name, parent, 0)
		defer tr.end(id)
		return fn()
	}
	var err error
	switch w.Backend {
	case "csr", "live":
		if err = step("csr.compile", func() error {
			d.snap, err = netclus.Compile(g)
			return err
		}); err != nil {
			return nil, err
		}
		if w.Backend == "csr" {
			// The dataset constructor builds the pruning bounds on the
			// snapshot it is handed.
			err = step("lbound.build", func() error {
				d.ds, err = server.NewSnapshotDataset(datasetName, "benchmark", d.snap, netclus.DefaultLandmarks)
				return err
			})
			d.graph = d.snap
		} else {
			err = step("delta.new", func() error {
				d.ds, err = server.NewLiveDataset(datasetName, "benchmark", d.snap, netclus.LiveOptions{
					CompactOps: liveCompactOps,
					Live:       &netclus.LiveClusterOptions{Eps: eps, MinPts: 3},
				})
				return err
			})
		}
	case "store":
		if d.dir, err = os.MkdirTemp(outDir, "store-"); err != nil {
			return nil, err
		}
		if err = step("storage.build", func() error {
			t0 := time.Now()
			defer func() { d.buildMS = float64(time.Since(t0).Nanoseconds()) / 1e6 }()
			return netclus.BuildStore(d.dir, g, netclus.StoreOptions{})
		}); err != nil {
			break
		}
		if err = step("storage.open+lbound.build", func() error {
			d.ds, err = server.NewStoreDataset(datasetName, d.dir, w.storeOptions(), netclus.DefaultLandmarks, false)
			return err
		}); err != nil {
			break
		}
		err = step("storage.open", func() error {
			d.store, err = netclus.OpenStore(d.dir, w.storeOptions())
			return err
		})
		d.graph = d.store
	default:
		err = fmt.Errorf("unknown backend %q", w.Backend)
	}
	if err == nil {
		err = step("server.listen", d.listen)
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// listen boots the server with every Config default on a loopback listener
// and proves it answers.
func (d *deployment) listen() error {
	reg := server.NewRegistry()
	if err := reg.Add(d.ds); err != nil {
		return err
	}
	srv, err := server.New(server.Config{Registry: reg})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	d.srv = srv
	d.served = make(chan error, 1)
	go func() { d.served <- srv.Serve(ln) }()
	d.baseURL = "http://" + ln.Addr().String()
	n := runtime.GOMAXPROCS(0)
	d.client = &http.Client{Transport: &http.Transport{MaxIdleConns: 2 * n, MaxIdleConnsPerHost: 2 * n}}
	resp, err := d.client.Get(d.baseURL + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return nil
}

// close drains the server (which closes the dataset's store or overlay),
// closes the library's own store handle and removes the store files.
func (d *deployment) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	switch {
	case d.srv != nil:
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		keep(d.srv.Shutdown(ctx))
		cancel()
		if err := <-d.served; err != http.ErrServerClosed {
			keep(err)
		}
	case d.ds != nil:
		keep(d.ds.Close())
	}
	if d.store != nil {
		keep(d.store.Close())
	}
	if d.dir != "" {
		keep(os.RemoveAll(d.dir))
	}
	return first
}

// storeFileBytes sums the sizes of the store's files.
func (d *deployment) storeFileBytes() int64 {
	var total int64
	_ = filepath.Walk(d.dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			total += fi.Size()
		}
		return nil
	})
	return total
}

// heapInUseMiB forces a collection and returns the heap still in use.
func heapInUseMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}
