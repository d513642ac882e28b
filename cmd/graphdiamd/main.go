// Command graphdiamd serves graphdiam's decomposition and diameter
// algorithms over HTTP — the long-running counterpart to the one-shot
// cldiam/deltastep CLIs.
//
// Usage:
//
//	graphdiamd -addr :8080
//	graphdiamd -addr :8080 -preload usa=road:256 -preload social=rmat:16
//	graphdiamd -addr :8080 -data-dir /var/lib/graphdiam \
//	    -dataset-budget 8G -preload usa=file:/data/USA-road-d.NY.gr.gz
//
// Clients register graphs (generated from a spec or uploaded inline) and
// query decompositions and diameter approximations; identical queries are
// served from an LRU result cache and concurrent identical queries share a
// single BSP run. -max-concurrent caps how many BSP engines execute at
// once. Long-running computations are better submitted through the
// asynchronous /v2/jobs API, which supports polling, SSE progress
// streaming, and cancellation (see internal/server). The process drains
// in-flight requests, cancels outstanding jobs, and exits cleanly on
// SIGINT or SIGTERM.
//
// With -data-dir the daemon opens a persistent dataset catalog there
// (see internal/dataset): graphs ingested over POST /v2/datasets — or via
// file: preloads — are stored as content-addressed mmap-ready CSR
// snapshots that survive restarts, and any query naming a cataloged graph
// faults it in transparently. -dataset-budget bounds the catalog's disk
// footprint (suffixes K/M/G/T, powers of 1024); least-recently-used
// datasets are evicted when an ingest would exceed it.
//
// -blob-url points the catalog's storage tier at a peer daemon (or any
// HTTP store speaking the /v2/blobs protocol): snapshots are fetched by
// content address into a read-through cache under <data-dir>/cache,
// ingests publish to the shared tier, and dataset names unknown locally
// resolve against the peer's catalog — so a fleet shares one snapshot
// set while every node keeps its own manifest. The daemon always serves
// its own tier at /v2/blobs when a catalog is configured.
//
// -verify-interval starts a background integrity sweeper that re-hashes
// every cataloged snapshot on that cadence and quarantines corruption
// exactly like boot-time recovery (entry dropped, blob set aside under
// quarantine/, daemon keeps serving). Sweep telemetry is reported by
// GET /v2/datasets.
//
// -peers joins this daemon into the fleet query plane (see
// internal/fleet): pass every daemon's base URL comma-separated in rank
// order (self included) and this daemon's index as -worker-id. Every
// computation still runs on this daemon's own in-process BSP engine. Each
// dataset name has a rendezvous-hash owner among the live daemons, any
// daemon transparently proxies queries it does not own to the owner, and
// results are shared through a fleet-wide cache keyed by dataset content
// address — so identical queries anywhere in the fleet cost one BSP run.
// -probe-interval tunes the health probes (GET /readyz) that drive
// failover. -tenant-rate/-tenant-burst add per-tenant admission control
// on compute requests, keyed by the X-Tenant header: a tenant over its
// token bucket gets 429 with Retry-After. cmd/graphdiamlb is the
// matching front door for clients that should not pick a daemon
// themselves.
//
// Observability: GET /metrics on the serving listener exposes the
// daemon's full metric set (BSP supersteps, store cache/jobs, fleet
// health and proxy traffic, per-route HTTP latency, Go runtime) in
// Prometheus text format, and every request is logged as one structured
// span line keyed by X-Request-Id. -debug-addr starts a second, private
// listener carrying net/http/pprof plus a /metrics mirror — off by
// default, and never to be exposed on a public interface.
//
// -preload accepts two value shapes: a generator spec ("usa=road:256",
// see gen.FromSpec) or "name=file:/path" naming a graph file in any
// supported format (edgelist, DIMACS, METIS, binary; gzip transparent;
// format sniffed). With a catalog configured, file preloads are ingested
// (deduplicated by content, so repeated boots cost nothing) and served
// from the snapshot; without one they are parsed straight into memory.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"graphdiam/internal/dataset"
	"graphdiam/internal/fleet"
	"graphdiam/internal/gen"
	"graphdiam/internal/obs"
	"graphdiam/internal/server"
	"graphdiam/internal/store"
)

// preloads collects repeated -preload name=spec flags.
type preloads []string

func (p *preloads) String() string     { return strings.Join(*p, ",") }
func (p *preloads) Set(v string) error { *p = append(*p, v); return nil }

// preloadGraph registers one -preload value: a "file:" path (ingested
// into the catalog when one is configured, parsed directly otherwise) or
// a generator spec.
func preloadGraph(st *store.Store, cat *dataset.Catalog, name, spec string, seed uint64) (store.GraphInfo, error) {
	if path, ok := strings.CutPrefix(spec, "file:"); ok {
		if cat != nil {
			// Content addressing makes this idempotent across restarts:
			// an unchanged file hashes to the snapshot already on disk.
			if _, err := cat.IngestFile(name, path, dataset.FormatAuto, "preload "+path); err != nil {
				return store.GraphInfo{}, err
			}
			return st.LoadDataset(context.Background(), name)
		}
		f, err := os.Open(path)
		if err != nil {
			return store.GraphInfo{}, err
		}
		defer f.Close()
		g, format, err := dataset.DecodeStream(f, dataset.FormatAuto)
		if err != nil {
			return store.GraphInfo{}, err
		}
		return st.AddGraph(name, g, fmt.Sprintf("preload %s (%s)", path, format))
	}
	g, err := gen.FromSpec(spec, seed)
	if err != nil {
		return store.GraphInfo{}, err
	}
	return st.AddGraph(name, g, fmt.Sprintf("preload %s seed=%d", spec, seed))
}

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		maxEntries    = flag.Int("max-entries", 256, "result cache capacity (entries)")
		maxConcurrent = flag.Int("max-concurrent", 2, "max BSP computations executing at once")
		maxJobs       = flag.Int("max-jobs", 512, "job registry retention (terminal jobs evicted oldest-first)")
		maxBody       = flag.Int64("max-body", 64<<20, "max request body bytes (all routes except dataset ingest)")
		maxDataBody   = flag.String("max-dataset-body", "", "max dataset ingest body, e.g. 4G (empty = unlimited)")
		seed          = flag.Uint64("seed", 1, "seed for -preload graph generation")
		drain         = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout")
		readHeaderTO  = flag.Duration("read-header-timeout", 10*time.Second, "http.Server ReadHeaderTimeout (slowloris guard)")
		idleTO        = flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout for keep-alive connections")
		quiet         = flag.Bool("quiet", false, "disable request logging")
		dataDir       = flag.String("data-dir", "", "persistent dataset catalog directory (empty = memory-only)")
		datasetBudget = flag.String("dataset-budget", "", "catalog disk budget, e.g. 512M or 8G (empty = unlimited)")
		blobURL       = flag.String("blob-url", "", "base URL of a shared snapshot blob tier, e.g. http://peer:8080 (requires -data-dir)")
		verifyEvery   = flag.Duration("verify-interval", 0, "background integrity sweep interval, e.g. 30m (0 = disabled; requires -data-dir)")
		peerList      = flag.String("peers", "", "comma-separated base URLs of every fleet daemon in rank order, self included (enables owner routing and the fleet cache)")
		workerID      = flag.Int("worker-id", 0, "this daemon's rank in -peers")
		probeEvery    = flag.Duration("probe-interval", 0, "fleet health-probe cadence (0 = default 5s; requires -peers)")
		replicas      = flag.Int("replicas", 1, "read replication factor k: cached results are pushed to the top-k preference members and served from any of them (requires -peers for k>1)")
		fleetConfig   = flag.String("fleet-config", "", "JSON placement-view file ({\"epoch\",\"members\"}) reloaded on SIGHUP to swap fleet membership at runtime (requires -peers)")
		tenantRate    = flag.Float64("tenant-rate", 0, "per-tenant admitted jobs/second (0 = admission control disabled)")
		tenantBurst   = flag.Float64("tenant-burst", 0, "per-tenant job burst capacity (0 = max(1, -tenant-rate); requires -tenant-rate)")
		debugAddr     = flag.String("debug-addr", "", "private listen address for pprof and a /metrics mirror, e.g. localhost:6060 (empty = disabled; never expose publicly)")
		pre           preloads
	)
	flag.Var(&pre, "preload", "register a graph at boot as name=spec or name=file:/path (repeatable)")
	flag.Parse()

	logger := log.New(os.Stderr, "graphdiamd: ", log.LstdFlags)
	slogger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	// One registry serves the whole daemon: runtime gauges, the store and
	// BSP families, the fleet families, and the server's per-route HTTP
	// family all expose through GET /metrics on the public listener (and
	// on -debug-addr when set).
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	storeMetrics := store.NewMetrics(reg)
	fleetMetrics := fleet.NewMetrics(reg)

	// Fleet boot-flag validation runs before anything opens: a rank
	// outside -peers or a -blob-url pointing at this daemon's own peer
	// entry used to surface only at the first query; now it fails boot.
	var peers []string
	if *peerList != "" {
		var err error
		peers, err = fleet.ValidateDaemonFlags(strings.Split(*peerList, ","), *workerID, *blobURL)
		if err != nil {
			logger.Fatalf("bad -peers: %v", err)
		}
	} else {
		if *probeEvery != 0 {
			logger.Fatalf("-probe-interval requires -peers")
		}
		if *replicas > 1 {
			logger.Fatalf("-replicas > 1 requires -peers")
		}
		if *fleetConfig != "" {
			logger.Fatalf("-fleet-config requires -peers")
		}
	}
	if *replicas < 1 {
		logger.Fatalf("-replicas must be >= 1")
	}
	if *tenantRate < 0 {
		logger.Fatalf("-tenant-rate must be non-negative")
	}
	if *tenantBurst != 0 && *tenantRate == 0 {
		logger.Fatalf("-tenant-burst requires -tenant-rate")
	}

	var cat *dataset.Catalog
	if *dataDir != "" {
		budget, err := dataset.ParseByteSize(*datasetBudget)
		if err != nil {
			logger.Fatalf("bad -dataset-budget: %v", err)
		}
		if *verifyEvery < 0 {
			logger.Fatalf("-verify-interval must be positive (0 disables)")
		}
		opts := dataset.Options{ByteBudget: budget, Log: logger,
			Metrics: dataset.NewCatalogMetrics(reg)}
		if *blobURL != "" {
			// Shared snapshot tier: blobs fetch by content address from
			// the peer, read-through cached under <data-dir>/cache, and
			// unknown dataset names resolve against the peer's catalog.
			remote, err := dataset.NewRemoteStore(*blobURL, filepath.Join(*dataDir, "cache"), nil)
			if err != nil {
				logger.Fatalf("bad -blob-url: %v", err)
			}
			opts.Blobs = remote
			logger.Printf("using remote blob backend %s", *blobURL)
		}
		cat, err = dataset.Open(*dataDir, opts)
		if err != nil {
			logger.Fatalf("open dataset catalog: %v", err)
		}
		defer cat.Close()
		logger.Printf("dataset catalog %s: %d datasets, %d bytes",
			*dataDir, len(cat.List()), cat.TotalBytes())
		if *verifyEvery > 0 {
			// Catalog Close stops the sweeper; no explicit stop needed.
			cat.StartSweeper(*verifyEvery)
			logger.Printf("integrity sweeper: re-verifying snapshots every %v", *verifyEvery)
		}
	} else {
		for flagName, set := range map[string]bool{
			"-dataset-budget":  *datasetBudget != "",
			"-blob-url":        *blobURL != "",
			"-verify-interval": *verifyEvery != 0,
		} {
			if set {
				logger.Fatalf("%s requires -data-dir", flagName)
			}
		}
	}

	var (
		ftab   *fleet.Table
		fcache *fleet.Cache
	)
	if len(peers) > 0 {
		interval := *probeEvery
		if interval == 0 {
			interval = 5 * time.Second
		}
		var err error
		ftab, err = fleet.NewTable(peers, *workerID, fleet.TableOptions{
			Interval: interval,
			Log:      slogger,
			Metrics:  fleetMetrics,
		})
		if err != nil {
			logger.Fatalf("fleet: %v", err)
		}
		ftab.Start()
		defer ftab.Close()
		fcache = fleet.NewCache(ftab, fleet.CacheOptions{Replicas: *replicas, Metrics: fleetMetrics})
		defer fcache.Close()
		logger.Printf("fleet query plane: rank %d of %d, probing peers every %v, replication factor %d",
			*workerID, len(peers), interval, *replicas)
	}

	scfg := store.Config{
		MaxEntries:    *maxEntries,
		MaxConcurrent: *maxConcurrent,
		MaxJobs:       *maxJobs,
		Catalog:       cat,
		Metrics:       storeMetrics,
	}
	if fcache != nil {
		scfg.FleetCache = fcache
	}
	st := store.New(scfg)
	defer st.Close()
	for _, p := range pre {
		name, spec, ok := strings.Cut(p, "=")
		if !ok || name == "" || spec == "" {
			logger.Fatalf("bad -preload %q (want name=spec or name=file:/path)", p)
		}
		info, err := preloadGraph(st, cat, name, spec, *seed)
		if err != nil {
			logger.Fatalf("preload %q: %v", p, err)
		}
		logger.Printf("preloaded %s: n=%d m=%d (%s)", info.Name, info.NumNodes, info.NumEdges, info.Source)
	}

	maxDatasetBytes, err := dataset.ParseByteSize(*maxDataBody)
	if err != nil {
		logger.Fatalf("bad -max-dataset-body: %v", err)
	}
	// drainCh fires when a POST /v2/fleet/drain sequence completes:
	// in-flight work finished, successors pre-warmed — time to exit.
	drainCh := make(chan struct{})
	cfg := server.Config{
		MaxRequestBytes: *maxBody,
		MaxDatasetBytes: maxDatasetBytes,
		Datasets:        cat,
		Fleet:           ftab,
		Replicas:        *replicas,
		DrainTimeout:    *drain,
		Registry:        reg,
		FleetMetrics:    fleetMetrics,
	}
	if ftab != nil {
		var drainOnce sync.Once
		cfg.OnDrain = func() { drainOnce.Do(func() { close(drainCh) }) }
	}
	if *tenantRate > 0 {
		cfg.Quotas = fleet.NewQuotas(*tenantRate, *tenantBurst)
		logger.Printf("admission control: %g jobs/s per tenant", *tenantRate)
	}
	if !*quiet {
		cfg.Log = slogger
	}

	// The debug listener is deliberately a separate server on a separate
	// (private) address: pprof handlers expose heap contents and must
	// never ride the public mux. It mirrors /metrics so a scrape can stay
	// entirely off the serving listener.
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("/metrics", reg.Handler())
		dsrv := &http.Server{
			Addr:              *debugAddr,
			Handler:           dmux,
			ReadHeaderTimeout: *readHeaderTO,
		}
		defer dsrv.Close()
		go func() {
			logger.Printf("debug listener (pprof + /metrics) on %s", *debugAddr)
			if err := dsrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Printf("debug listener: %v", err)
			}
		}()
	}
	// No WriteTimeout: /v2/jobs/{id}/events streams SSE for the life of a
	// job; IdleTimeout still reaps dead keep-alive connections and
	// ReadHeaderTimeout caps slowloris-style trickled headers.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           server.New(st, cfg),
		ReadHeaderTimeout: *readHeaderTO,
		IdleTimeout:       *idleTO,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// SIGHUP reloads -fleet-config: a JSON placement view whose epoch must
	// strictly exceed the current one. A bad file (or a view that would
	// orphan this node) is rejected with the old view kept — reload is
	// never allowed to wedge a serving daemon.
	if *fleetConfig != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				b, err := os.ReadFile(*fleetConfig)
				if err != nil {
					logger.Printf("fleet-config reload: %v", err)
					continue
				}
				var v fleet.View
				if err := json.Unmarshal(b, &v); err != nil {
					logger.Printf("fleet-config reload: parse %s: %v", *fleetConfig, err)
					continue
				}
				if err := ftab.SwapView(v); err != nil {
					logger.Printf("fleet-config reload rejected: %v", err)
					continue
				}
				logger.Printf("fleet-config reload: now on placement epoch %d (%d members)", v.Epoch, len(v.Members))
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s (cache=%d entries, %d concurrent BSP runs)",
			*addr, *maxEntries, *maxConcurrent)
		errCh <- srv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		logger.Fatalf("serve: %v", err)
	case <-ctx.Done():
	case <-drainCh:
		logger.Printf("drain complete; beginning graceful exit")
	}

	logger.Printf("shutting down, draining for up to %v", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("shutdown: %v", err)
	}
	logger.Printf("bye")
}
