// Package server exposes the store's decomposition-as-a-service over an
// HTTP/JSON API — the serving tier of graphdiamd.
//
// Endpoints (all JSON):
//
//	POST   /v1/graphs          register a graph: generate from a spec
//	                           ({"name","spec","seed"}) or upload inline
//	                           data ({"name","format","data"} with format
//	                           edgelist | dimacs | metis)
//	GET    /v1/graphs          list registered graphs
//	GET    /v1/graphs/{name}   describe one graph
//	DELETE /v1/graphs/{name}   deregister a graph and drop its results
//	POST   /v1/decompose       run/fetch a CLUSTER(2) decomposition
//	POST   /v1/diameter        run/fetch a CL-DIAM diameter approximation
//	GET    /v1/stats           store counters, cache state, job counts,
//	                           BSP cost totals
//	GET    /healthz            liveness probe (the process is up)
//	GET    /readyz             readiness probe (catalog present, blob
//	                           tier reachable; fleet view attached)
//	GET    /metrics            Prometheus text exposition (mounted when
//	                           Config.Registry is set)
//
//	POST   /v2/jobs            submit an asynchronous computation
//	                           ({"op":"decompose"|"diameter","graph",...params})
//	GET    /v2/jobs            list retained jobs
//	GET    /v2/jobs/{id}       poll one job
//	GET    /v2/jobs/{id}/events  Server-Sent Events progress stream
//	DELETE /v2/jobs/{id}       cancel a job
//
//	POST   /v2/datasets        ingest a graph into the persistent catalog
//	                           (?name=, raw body, format auto-sniffed)
//	GET    /v2/datasets        list cataloged datasets + sweep telemetry
//	GET    /v2/datasets/{name} one dataset's record
//	DELETE /v2/datasets/{name} drop a dataset from the catalog
//	POST   /v2/datasets/{name}/load  fault a dataset into memory now
//	POST   /v2/datasets/{name}/append  stream an edge delta onto the
//	                           dataset's lineage (owner-routed)
//	POST   /v2/datasets/{name}/compact fold the delta chain into a
//	                           fresh snapshot (identity preserved)
//
//	GET    /v2/blobs           list snapshot content addresses
//	GET    /v2/blobs/{sha}     stream one snapshot blob
//	PUT    /v2/blobs/{sha}     store a blob (verified before admission)
//	DELETE /v2/blobs/{sha}     drop a blob's local copy
//
//	GET    /v2/cache/{key}     fleet result-cache probe (peer-to-peer)
//	PUT    /v2/cache/{key}     fleet result-cache push (peer-to-peer)
//	GET    /v2/fleet           query-plane membership + health; with
//	                           ?dataset=<name>, that dataset's owner and
//	                           failover chain
//	POST   /v2/fleet/config    swap in a newer placement view
//	POST   /v2/fleet/drain     drain this node and hand off its hot cache
//
// Every computation runs on an in-process BSP engine. When Config.Fleet
// is set the server also owner-routes: a request placed by dataset name
// (or by a job ID's home rank) whose rendezvous owner is another live
// member is transparently proxied there, with byte-identical responses,
// SSE streaming, and cancel-on-disconnect preserved. See internal/fleet
// for the placement rules.
//
// Dataset routes (see datasets.go) require the daemon's -data-dir; a
// graph name queried via /v1//v2 compute endpoints that is not resident
// in memory is faulted in from the catalog transparently, so an ingested
// dataset survives restarts with no client-visible difference beyond the
// first query's load time (an O(1) mmap). The blob routes are the server
// side of the shared snapshot tier: a peer daemon started with -blob-url
// pointing here fetches snapshots by content address (read-through
// cached) and resolves unknown dataset names against this catalog, so a
// fleet serves one snapshot set while each node keeps its own manifest.
// Ingest failures are classified: bad client bytes are 400, an over-cap
// body 413, a snapshot too big for the catalog budget 507, and
// server-side disk or backend faults 500.
//
// A v2 job moves through queued → running → done|failed|cancelled; its
// snapshots carry the latest progress (phase, stage, Δ, coverage fraction,
// BSP cost) and, once done, the result. Cancellation is cooperative: the
// BSP engine observes it at the next superstep barrier, so an abort lands
// within one superstep. The v1 compute endpoints are thin synchronous
// wrappers over the same job path — submit, wait, unwrap — so both APIs
// share the store's LRU cache and singleflight deduplication.
//
// Compute responses carry a "cached" flag: true when the result came from
// the store's LRU cache or by joining a concurrent identical request
// (singleflight), false when this request triggered the BSP run. Errors are
// rendered as {"error": "..."} with a matching HTTP status.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"graphdiam/internal/dataset"
	"graphdiam/internal/fleet"
	"graphdiam/internal/gen"
	"graphdiam/internal/gio"
	"graphdiam/internal/graph"
	"graphdiam/internal/obs"
	"graphdiam/internal/store"
)

// Config tunes the HTTP layer. Zero values select the defaults.
type Config struct {
	// MaxRequestBytes bounds request bodies (graph uploads dominate).
	// Default 64 MiB.
	MaxRequestBytes int64
	// MaxDatasetBytes separately bounds dataset ingest bodies
	// (POST /v2/datasets), which stream straight into the CSR builder and
	// are legitimately multi-gigabyte for the road networks the paper
	// targets — the general cap would reject them mid-stream. 0 means
	// unlimited: the catalog's own byte budget is the backstop.
	MaxDatasetBytes int64
	// Log receives one structured span record per request (route, status,
	// duration, request_id, tenant, epoch); nil disables request logging.
	Log *slog.Logger
	// Registry, when non-nil, mounts GET /metrics (Prometheus text
	// exposition) and registers the server's graphdiam_http_* family on it.
	Registry *obs.Registry
	// FleetMetrics is the fleet-layer observability bundle shared with the
	// Table/Proxy/Cache; the server records the fleet events only it sees
	// (classified 409s, replica-local serves, drain phases). nil disables.
	FleetMetrics *fleet.Metrics
	// Datasets, when non-nil, enables the /v2/datasets catalog endpoints.
	// It should be the same catalog the store was configured with so
	// ingested datasets are lazily loadable by queries.
	Datasets *dataset.Catalog
	// Fleet, when non-nil, enables owner routing: dataset-placed requests
	// whose rendezvous owner is another live member are transparently
	// forwarded there, and /v2/fleet reports placement. The table should
	// be the daemon's own rank in the shared -peers list.
	Fleet *fleet.Table
	// FleetTransport performs forwarded requests; nil selects
	// http.DefaultTransport. It must not impose a global timeout (SSE
	// streams live as long as their job).
	FleetTransport http.RoundTripper
	// Quotas, when non-nil, enables per-tenant admission control on
	// compute-cost requests (429 + Retry-After when a tenant's token
	// bucket empties).
	Quotas *fleet.Quotas
	// Replicas is the read replication factor k: a node that is one of a
	// dataset's top-k live preference members serves v1 computes from its
	// local cache instead of forwarding to the owner. Values <= 1 keep
	// owner-only serving.
	Replicas int
	// OnDrain is called once a POST /v2/fleet/drain sequence finishes
	// (in-flight work done, successors pre-warmed); the daemon uses it to
	// begin its graceful shutdown. nil leaves the process running in the
	// draining state.
	OnDrain func()
	// DrainTimeout bounds how long a drain waits for in-flight work
	// before pre-warming and handing off anyway. Default 30s.
	DrainTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 64 << 20
	}
	return c
}

// Server is an http.Handler serving the v1 API on top of a store.
type Server struct {
	st       *store.Store
	cfg      Config
	mux      *http.ServeMux
	proxy    *fleet.Proxy     // non-nil iff cfg.Fleet is set
	metrics  *obs.HTTPMetrics // non-nil iff cfg.Registry is set
	draining atomic.Bool      // set by POST /v2/fleet/drain, surfaced in /readyz
}

// New builds the API handler around st.
func New(st *store.Store, cfg Config) *Server {
	s := &Server{st: st, cfg: cfg.withDefaults(), mux: http.NewServeMux()}
	if s.cfg.Registry != nil {
		s.metrics = obs.NewHTTPMetrics(s.cfg.Registry)
		s.mux.Handle("GET /metrics", s.cfg.Registry.Handler())
	}
	if s.cfg.Fleet != nil {
		s.proxy = &fleet.Proxy{
			Transport: s.cfg.FleetTransport,
			Table:     s.cfg.Fleet,
			SelfRank:  s.cfg.Fleet.Self(),
			Log:       s.cfg.Log,
			Metrics:   s.cfg.FleetMetrics,
		}
	}
	s.mux.HandleFunc("POST /v1/graphs", s.handleAddGraph)
	s.mux.HandleFunc("GET /v1/graphs", s.handleListGraphs)
	s.mux.HandleFunc("GET /v1/graphs/{name}", s.handleGetGraph)
	s.mux.HandleFunc("DELETE /v1/graphs/{name}", s.handleDeleteGraph)
	s.mux.HandleFunc("POST /v1/decompose", s.handleDecompose)
	s.mux.HandleFunc("POST /v1/diameter", s.handleDiameter)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v2/jobs", s.handleSubmitJob)
	s.mux.HandleFunc("GET /v2/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v2/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("GET /v2/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("DELETE /v2/jobs/{id}", s.handleCancelJob)
	s.mux.HandleFunc("POST /v2/datasets", s.handleIngestDataset)
	s.mux.HandleFunc("GET /v2/datasets", s.handleListDatasets)
	s.mux.HandleFunc("GET /v2/datasets/{name}", s.handleGetDataset)
	s.mux.HandleFunc("DELETE /v2/datasets/{name}", s.handleDeleteDataset)
	s.mux.HandleFunc("POST /v2/datasets/{name}/load", s.handleLoadDataset)
	s.mux.HandleFunc("POST /v2/datasets/{name}/append", s.handleAppendDataset)
	s.mux.HandleFunc("POST /v2/datasets/{name}/compact", s.handleCompactDataset)
	bh := s.blobHandler()
	s.mux.Handle("/v2/blobs", bh)
	s.mux.Handle("/v2/blobs/", bh)
	s.mux.HandleFunc("GET /v2/cache/{key}", s.handleFleetCacheGet)
	s.mux.HandleFunc("PUT /v2/cache/{key}", s.handleFleetCachePut)
	s.mux.HandleFunc("GET /v2/fleet", s.handleFleetInfo)
	s.mux.HandleFunc("POST /v2/fleet/config", s.handleFleetConfig)
	s.mux.HandleFunc("POST /v2/fleet/drain", s.handleFleetDrain)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		// Pure liveness: the process is up. Readiness lives at /readyz.
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	return s
}

// ServeHTTP implements http.Handler: capture the status and latency of
// the whole middleware-plus-handler chain, then emit the metric sample
// and the structured span record. The span logs after the response so it
// carries the real status and duration — for SSE streams that is when
// the stream closes, which is the span's end by any definition.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rid := s.requestID(w, r)
	route := normalizeRoute(r.URL.Path)
	done := s.metrics.Begin()
	rec := obs.WrapWriter(w)
	start := time.Now()
	s.dispatch(rec, r)
	elapsed := time.Since(start)
	done(route, r.Method, rec.Code())
	if s.cfg.Log != nil {
		attrs := []any{
			"route", route,
			"method", r.Method,
			"status", rec.Code(),
			"duration_ms", durationMS(elapsed),
			"request_id", rid,
		}
		if ds := routeDataset(r.URL.Path); ds != "" {
			attrs = append(attrs, "dataset", ds)
		}
		if tenant := r.Header.Get(fleet.TenantHeader); tenant != "" {
			attrs = append(attrs, "tenant", tenant)
		}
		if s.cfg.Fleet != nil {
			attrs = append(attrs, "epoch", s.cfg.Fleet.Epoch())
		}
		s.cfg.Log.Info("http request", attrs...)
	}
}

// dispatch is the pre-observability request path. The middleware order is
// deliberate: epoch enforcement before anything acts on placement (a
// mis-epoched hop must never be answered), the draining gate before
// admission (rejected work must not charge a tenant), admission control
// before body limits (reject over-rate tenants before reading their
// bytes), body limits before routing (a peeked routing field must ride
// the same cap the handler would), routing last.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request) {
	if !s.checkEpoch(w, r) {
		return
	}
	if !s.checkDraining(w, r) {
		return
	}
	if !s.admit(w, r) {
		return
	}
	isDatasetBody := (r.Method == http.MethodPost && r.URL.Path == "/v2/datasets") ||
		(r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v2/datasets/") &&
			strings.HasSuffix(r.URL.Path, "/append")) ||
		(r.Method == http.MethodPut && strings.HasPrefix(r.URL.Path, "/v2/blobs/"))
	if isDatasetBody {
		if s.cfg.MaxDatasetBytes > 0 {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxDatasetBytes)
		}
	} else {
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)
	}
	if s.routeAway(w, r) {
		return
	}
	s.mux.ServeHTTP(w, r)
}

// AddGraphRequest is the POST /v1/graphs body. Exactly one of Spec or Data
// must be set.
type AddGraphRequest struct {
	// Name registers the graph for later queries.
	Name string `json:"name"`
	// Spec generates a synthetic graph, e.g. "mesh:256", "rmat:16",
	// "road:128", "gnm:10000:80000" (see gen.FromSpec for the grammar).
	Spec string `json:"spec,omitempty"`
	// Seed drives generation (topology and weights).
	Seed uint64 `json:"seed,omitempty"`
	// Format names the encoding of Data: "edgelist" (default), "dimacs",
	// or "metis".
	Format string `json:"format,omitempty"`
	// Data is the inline graph text for uploads.
	Data string `json:"data,omitempty"`
}

func (s *Server) handleAddGraph(w http.ResponseWriter, r *http.Request) {
	var req AddGraphRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Name == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing graph name"))
		return
	}
	var (
		g      *graph.Graph
		source string
		err    error
	)
	switch {
	case req.Spec != "" && req.Data != "":
		writeError(w, http.StatusBadRequest, fmt.Errorf("spec and data are mutually exclusive"))
		return
	case req.Spec != "":
		g, err = gen.FromSpec(req.Spec, req.Seed)
		source = fmt.Sprintf("spec %s seed=%d", req.Spec, req.Seed)
	case req.Data != "":
		g, err = decodeGraphData(req.Format, req.Data)
		source = "upload " + formatName(req.Format)
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("one of spec or data is required"))
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	info, err := s.st.AddGraph(req.Name, g, source)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// decodeGraphData parses inline upload text in the named format.
func decodeGraphData(format, data string) (*graph.Graph, error) {
	r := strings.NewReader(data)
	switch formatName(format) {
	case "edgelist":
		return gio.ReadEdgeList(r)
	case "dimacs":
		return gio.ReadDIMACS(r)
	case "metis":
		return gio.ReadMETIS(r)
	default:
		return nil, fmt.Errorf("unknown format %q (want edgelist, dimacs, or metis)", format)
	}
}

func formatName(format string) string {
	if format == "" {
		return "edgelist"
	}
	return strings.ToLower(format)
}

func (s *Server) handleListGraphs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"graphs": s.st.Graphs()})
}

func (s *Server) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	_, info, ok := s.st.Graph(name)
	if !ok {
		writeError(w, http.StatusNotFound, &store.NotFoundError{Name: name})
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleDeleteGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.st.RemoveGraph(name) {
		writeError(w, http.StatusNotFound, &store.NotFoundError{Name: name})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

// ComputeRequest is the POST /v1/decompose and /v1/diameter body: the
// target graph plus the full algorithm parameter set (cache key fields).
type ComputeRequest struct {
	Graph string `json:"graph"`
	store.Params
}

// DecomposeResponse wraps a decomposition result with its cache provenance.
type DecomposeResponse struct {
	store.DecomposeResult
	Cached bool `json:"cached"`
}

// DiameterResponse wraps a diameter result with its cache provenance.
type DiameterResponse struct {
	store.DiameterResult
	Cached bool `json:"cached"`
}

func (s *Server) handleDecompose(w http.ResponseWriter, r *http.Request) {
	var req ComputeRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	final, ok := s.runSyncJob(w, r, store.JobDecompose, req)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, DecomposeResponse{
		DecomposeResult: final.Result.(store.DecomposeResult),
		Cached:          final.Cached,
	})
}

func (s *Server) handleDiameter(w http.ResponseWriter, r *http.Request) {
	var req ComputeRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	final, ok := s.runSyncJob(w, r, store.JobDiameter, req)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, DiameterResponse{
		DiameterResult: final.Result.(store.DiameterResult),
		Cached:         final.Cached,
	})
}

// runSyncJob is the v1 compatibility path: submit a job, wait for it, and
// unwrap its outcome to the v1 error mapping. RunJobSync preserves the
// typed error (NotFoundError → 404, context errors → 408, the rest →
// 400, exactly as the pre-job direct path mapped them) and a client
// disconnect while waiting cancels the job. Returns ok=false after
// writing an error response.
func (s *Server) runSyncJob(w http.ResponseWriter, r *http.Request, kind store.JobKind, req ComputeRequest) (store.JobView, bool) {
	final, err := s.st.RunJobSync(r.Context(), kind, req.Graph, req.Params)
	if err != nil {
		writeComputeError(w, err)
		return store.JobView{}, false
	}
	return final, true
}

// JobRequest is the POST /v2/jobs body: the operation, the target graph,
// and the full algorithm parameter set.
type JobRequest struct {
	// Op selects the computation: "decompose" or "diameter".
	Op    string `json:"op"`
	Graph string `json:"graph"`
	store.Params
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	view, err := s.st.SubmitJob(store.JobKind(req.Op), req.Graph, req.Params)
	if err != nil {
		writeComputeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, view)
}

func (s *Server) handleListJobs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.st.Jobs()})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	view, ok := s.st.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("job %q is not registered", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	view, ok := s.st.CancelJob(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("job %q is not registered", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// handleJobEvents streams a job's lifecycle over Server-Sent Events:
// "state" events for queued/running/terminal transitions, "progress"
// events for per-stage snapshots, and a final "done" event carrying the
// terminal JobView before the stream closes. Intermediate events are
// delivered best-effort; the "done" event is always emitted (slow
// consumers may only see the initial snapshot and "done").
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snapshot, events, cancelSub, ok := s.st.SubscribeJob(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("job %q is not registered", id))
		return
	}
	defer cancelSub()
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("response writer does not support streaming"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	// Initial snapshot, taken atomically with the subscription, so the
	// consumer needs no separate poll and every later event is newer.
	writeSSE(w, "state", snapshot)
	fl.Flush()
	for {
		select {
		case ev, open := <-events:
			if !open {
				if final, ok := s.st.Job(id); ok {
					writeSSE(w, "done", final)
					fl.Flush()
				}
				return
			}
			writeSSE(w, ev.Type, ev.Job)
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE renders one Server-Sent Event with a JSON payload.
func writeSSE(w io.Writer, event string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(`{"error":"encoding failure"}`)
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.st.Stats())
}

// writeComputeError maps store errors to HTTP statuses.
func writeComputeError(w http.ResponseWriter, err error) {
	var nf *store.NotFoundError
	switch {
	case errors.As(err, &nf):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusRequestTimeout, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

// decodeJSON parses the request body into v, writing a 400 on failure.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid request body: %w", err))
		return false
	}
	// Reject trailing garbage so "two JSON objects" is not silently half-read.
	if dec.More() {
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid request body: trailing data"))
		return false
	}
	io.Copy(io.Discard, r.Body)
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
