package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // profiling endpoints on the (side) default mux, behind -pprof
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"netclus"
	"netclus/internal/server"
)

// dataSpec is one -data name=path[,hot][,shards=K][,save=DIR] flag. path
// names a disk store, network files (compiled into a snapshot at start-up,
// so hot is implied), a saved snapshot file or a sharded-set directory. hot
// compiles a store too. shards=K serves the dataset as a K-way sharded set;
// save=DIR persists the compiled form (a sharded set directory, or a snapshot
// file for every other compiled dataset) and warm-starts from it on later
// boots with zero store reads.
// live serves the dataset behind a mutable delta overlay accepting
// POST /v1/datasets/{name}/points; eps=F,minpts=K configure its incrementally
// maintained ε-Link/DBSCAN labelling.
type dataSpec struct {
	text       string // the flag value as accepted, for dataFlags.String
	name, path string
	hot        bool
	shards     int
	save       string
	live       bool
	eps        float64
	minpts     int
}

// dataFlags collects repeated -data flags.
type dataFlags []dataSpec

func (d *dataFlags) String() string {
	parts := make([]string, len(*d))
	for i, s := range *d {
		parts[i] = s.text
	}
	return strings.Join(parts, " ")
}

func (d *dataFlags) Set(v string) error {
	name, rest, ok := strings.Cut(v, "=")
	if !ok || name == "" || rest == "" {
		return fmt.Errorf("want name=path[,hot][,shards=K][,save=DIR], got %q", v)
	}
	spec := dataSpec{text: v, name: name}
	spec.path, rest, _ = strings.Cut(rest, ",")
	if spec.path == "" {
		return fmt.Errorf("want name=path[,hot][,shards=K][,save=DIR], got %q", v)
	}
	for _, opt := range strings.Split(rest, ",") {
		key, val, _ := strings.Cut(opt, "=")
		switch key {
		case "":
		case "hot":
			spec.hot = true
		case "shards":
			k, err := strconv.Atoi(val)
			if err != nil || k < 1 {
				return fmt.Errorf("bad shards=%q in %q (want a positive integer)", val, v)
			}
			spec.shards = k
		case "save":
			if val == "" {
				return fmt.Errorf("save= needs a path in %q", v)
			}
			spec.save = val
		case "live":
			spec.live = true
		case "eps":
			e, err := strconv.ParseFloat(val, 64)
			if err != nil || e <= 0 {
				return fmt.Errorf("bad eps=%q in %q (want a positive float)", val, v)
			}
			spec.eps = e
		case "minpts":
			k, err := strconv.Atoi(val)
			if err != nil || k < 1 {
				return fmt.Errorf("bad minpts=%q in %q (want a positive integer)", val, v)
			}
			spec.minpts = k
		default:
			return fmt.Errorf("unknown dataset option %q in %q (want hot, shards=K, save=DIR, live, eps=F or minpts=K)", opt, v)
		}
	}
	if spec.hot && spec.shards > 0 {
		return fmt.Errorf("hot and shards=K are mutually exclusive in %q", v)
	}
	if spec.live && (spec.shards > 0 || spec.hot || spec.save != "") {
		return fmt.Errorf("live is mutually exclusive with hot, shards=K and save=DIR in %q", v)
	}
	if (spec.eps > 0 || spec.minpts > 0) && !spec.live {
		return fmt.Errorf("eps= and minpts= need live in %q", v)
	}
	*d = append(*d, spec)
	return nil
}

// isStoreDir reports whether path is a netclus disk store (a directory
// holding meta.bin) rather than a text-file prefix.
func isStoreDir(path string) bool {
	st, err := os.Stat(filepath.Join(path, "meta.bin"))
	return err == nil && st.Mode().IsRegular()
}

// loadGraph loads the spec's backing graph: an open store for store
// directories (the caller closes it via the returned func) or an in-memory
// network for text-file prefixes.
func loadGraph(spec dataSpec, bufKB int) (netclus.Graph, func(), error) {
	if isStoreDir(spec.path) {
		st, err := netclus.OpenStore(spec.path, netclus.StoreOptions{BufferBytes: bufKB * 1024})
		if err != nil {
			return nil, nil, err
		}
		return st, func() { st.Close() }, nil
	}
	n, err := netclus.LoadNetworkFiles(spec.path, true)
	if err != nil {
		return nil, nil, err
	}
	return n, func() {}, nil
}

// compileGraph compiles the spec's backing graph into a CSR snapshot.
func compileGraph(spec dataSpec, bufKB int) (*netclus.Snapshot, error) {
	g, closeGraph, err := loadGraph(spec, bufKB)
	if err != nil {
		return nil, err
	}
	defer closeGraph()
	return netclus.Compile(g)
}

// loadShardedDataset resolves the sharded set of a spec. A saved set
// directory — the path itself, or an earlier boot's save= target — reopens
// with zero store reads; otherwise the backing graph is loaded, partitioned
// into spec.shards connected subnetworks, and optionally persisted for the
// next boot.
func loadShardedDataset(spec dataSpec, bufKB int, logger *log.Logger) (*server.Dataset, error) {
	for _, dir := range []string{spec.path, spec.save} {
		if dir == "" || !netclus.IsShardedSetDir(dir) {
			continue
		}
		set, err := netclus.OpenShardedSet(dir)
		if err != nil {
			return nil, err
		}
		if spec.shards > 0 && set.Stats().Shards != spec.shards {
			return nil, fmt.Errorf("saved set %s has %d shards, spec wants %d", dir, set.Stats().Shards, spec.shards)
		}
		logger.Printf("dataset %s: warm start from %s (%d shards, zero store reads)",
			spec.name, dir, set.Stats().Shards)
		return server.NewShardedDataset(spec.name, dir, set)
	}
	if spec.shards < 1 {
		return nil, fmt.Errorf("%s is not a saved sharded set and no shards=K was given", spec.path)
	}
	g, closeGraph, err := loadGraph(spec, bufKB)
	if err != nil {
		return nil, err
	}
	defer closeGraph()
	set, err := netclus.PartitionNetwork(g, spec.shards)
	if err != nil {
		return nil, err
	}
	if spec.save != "" {
		if err := netclus.SaveShardedSet(set, spec.save); err != nil {
			return nil, fmt.Errorf("saving sharded set to %s: %w", spec.save, err)
		}
		logger.Printf("dataset %s: sharded set saved to %s", spec.name, spec.save)
	}
	return server.NewShardedDataset(spec.name, spec.path, set)
}

// loadLiveDataset resolves the mutable form of a spec: the path's graph
// (snapshot file, disk store, or network files) compiles into an immutable
// CSR base, and a delta overlay over it accepts writes. Every view the
// overlay publishes is a snapshot derived from the one before it, so reads
// between writes run the flat-array kernels.
func loadLiveDataset(spec dataSpec, bufKB int, logger *log.Logger) (*server.Dataset, error) {
	var (
		sn  *netclus.Snapshot
		err error
	)
	if netclus.IsSnapshotFile(spec.path) {
		sn, err = netclus.OpenSnapshot(spec.path)
	} else {
		sn, err = compileGraph(spec, bufKB)
	}
	if err != nil {
		return nil, err
	}
	var opts netclus.LiveOptions
	if spec.eps > 0 {
		minpts := spec.minpts
		if minpts == 0 {
			minpts = 3
		}
		opts.Live = &netclus.LiveClusterOptions{Eps: spec.eps, MinPts: minpts}
		logger.Printf("dataset %s: live clustering maintained at eps=%g minpts=%d", spec.name, spec.eps, minpts)
	}
	return server.NewLiveDataset(spec.name, spec.path, sn, opts)
}

// loadDataset resolves one -data spec, picking the serving form: a live
// mutable overlay, a sharded set, a durable snapshot file (direct or via
// save=), a disk store, or network files compiled into a snapshot.
func loadDataset(spec dataSpec, bufKB, landmarks int, logger *log.Logger) (*server.Dataset, error) {
	if spec.live {
		return loadLiveDataset(spec, bufKB, logger)
	}
	if spec.shards > 0 || netclus.IsShardedSetDir(spec.path) {
		return loadShardedDataset(spec, bufKB, logger)
	}
	for _, path := range []string{spec.path, spec.save} {
		if path == "" || !netclus.IsSnapshotFile(path) {
			continue
		}
		sn, err := netclus.OpenSnapshot(path)
		if err != nil {
			return nil, err
		}
		logger.Printf("dataset %s: warm start from snapshot %s (zero store reads)", spec.name, path)
		return server.NewSnapshotDataset(spec.name, path, sn, landmarks)
	}
	var (
		d   *server.Dataset
		err error
	)
	if isStoreDir(spec.path) {
		opts := netclus.StoreOptions{BufferBytes: bufKB * 1024}
		d, err = server.NewStoreDataset(spec.name, spec.path, opts, landmarks, spec.hot)
	} else {
		// Every in-memory graph is served compiled, and none prunes.
		var sn *netclus.Snapshot
		if sn, err = compileGraph(spec, bufKB); err == nil {
			d, err = server.NewSnapshotDataset(spec.name, spec.path, sn, landmarks)
		}
	}
	if err != nil {
		return nil, err
	}
	if spec.save != "" {
		sn := d.HotSnapshot()
		if sn == nil {
			d.Close()
			return nil, fmt.Errorf("save=%s on a store needs hot (or shards=K) to have a compiled form to persist", spec.save)
		}
		if err := netclus.WriteSnapshotFile(sn, spec.save); err != nil {
			d.Close()
			return nil, fmt.Errorf("saving snapshot to %s: %w", spec.save, err)
		}
		logger.Printf("dataset %s: snapshot saved to %s", spec.name, spec.save)
	}
	return d, nil
}

// buildRegistry loads every -data spec into a registry, closing already
// loaded datasets on failure.
func buildRegistry(specs []dataSpec, bufKB, landmarks int, logger *log.Logger) (*server.Registry, error) {
	reg := server.NewRegistry()
	for _, spec := range specs {
		start := time.Now()
		d, err := loadDataset(spec, bufKB, landmarks, logger)
		if err != nil {
			reg.Close()
			return nil, fmt.Errorf("dataset %s: %w", spec.name, err)
		}
		if err := reg.Add(d); err != nil {
			d.Close()
			reg.Close()
			return nil, err
		}
		logger.Printf("dataset %s: %s %s loaded in %s (bounds %v, hot %v)",
			spec.name, d.Kind, spec.path, time.Since(start).Round(time.Millisecond), d.HasBounds(), d.HotSnapshot() != nil)
	}
	return reg, nil
}

// cacheBytes maps the -result-cache-mb flag onto Config.ResultCacheBytes,
// where 0 means "use the default" and negative disables.
func cacheBytes(mb int64) int64 {
	if mb <= 0 {
		return -1
	}
	return mb << 20
}

func serve(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var data dataFlags
	fs.Var(&data, "data", "dataset to serve as name=path (repeatable; required)")
	addr := fs.String("addr", ":8080", "listen address")
	bufKB := fs.Int("buffer", 1024, "buffer pool size in KB for disk stores")
	landmarks := fs.Int("landmarks", netclus.DefaultLandmarks,
		"lower-bound pruning landmarks per cold store, built on its first pruned request (0 disables; every in-memory dataset — network files, hot stores, snapshots, sharded and live — builds none)")
	capacity := fs.Int64("capacity", 0, "admission capacity in cost units (0 = 2x GOMAXPROCS)")
	queue := fs.Int("queue", 0, "admission wait-queue depth (0 = 64)")
	clusterCost := fs.Int64("cluster-cost", 0, "admission cost of a clustering request (0 = 8)")
	writeCost := fs.Int64("write-cost", 0, "admission cost of a mutation batch (0 = 2)")
	timeout := fs.Duration("timeout", 10*time.Second, "default per-request deadline")
	maxTimeout := fs.Duration("max-timeout", 2*time.Minute, "cap on client-requested timeout_ms")
	cacheMB := fs.Int64("result-cache-mb", 64, "result cache budget in MiB (0 disables)")
	drain := fs.Duration("drain-timeout", 30*time.Second, "shutdown budget for in-flight requests")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this side address (off when empty)")
	fs.Parse(args)
	if len(data) == 0 {
		return fmt.Errorf("at least one -data name=path is required")
	}

	logger := log.New(os.Stderr, "netclusd ", log.LstdFlags)
	reg, err := buildRegistry(data, *bufKB, *landmarks, logger)
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{
		Addr:             *addr,
		Registry:         reg,
		Capacity:         *capacity,
		MaxQueue:         *queue,
		Costs:            server.EndpointCosts{Cluster: *clusterCost, Write: *writeCost},
		DefaultTimeout:   *timeout,
		MaxTimeout:       *maxTimeout,
		ResultCacheBytes: cacheBytes(*cacheMB),
		Log:              logger,
	})
	if err != nil {
		reg.Close()
		return err
	}

	if *pprofAddr != "" {
		// The query server runs on its own mux, so the default mux carries
		// only the pprof handlers; keep it on a separate (loopback) address.
		go func() {
			logger.Printf("pprof on %s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Printf("pprof listener: %v", err)
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logger.Printf("serving %d dataset(s) on %s", len(reg.List()), *addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		// Listener died before any signal: the drain never ran, so close
		// the stores here.
		reg.Close()
		return err
	case s := <-sig:
		logger.Printf("signal %s: draining (budget %s)", s, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		logger.Printf("drained cleanly")
		return nil
	}
}
