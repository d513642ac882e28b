package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphdiam/internal/bsp"
	"graphdiam/internal/dataset"
	"graphdiam/internal/gen"
	"graphdiam/internal/gio"
	"graphdiam/internal/store"
)

// newDatasetServer builds a catalog-backed store+server over dir. The
// returned shutdown function (idempotent, also registered as cleanup)
// tears the whole stack down — a test "restarts the daemon" by invoking
// it and building a fresh stack on the same dir. The teardown must be
// complete before reopening: the catalog holds an exclusive directory
// lock, exactly as two live daemons on one -data-dir are refused.
func newDatasetServer(t *testing.T, dir string) (*httptest.Server, *store.Store, func()) {
	return newDatasetServerOpts(t, dir, dataset.Options{}, Config{})
}

// newDatasetServerOpts is newDatasetServer with catalog and server
// config — the remote-backend and error-classification tests need both.
func newDatasetServerOpts(t *testing.T, dir string, opts dataset.Options, cfg Config) (*httptest.Server, *store.Store, func()) {
	t.Helper()
	cat, err := dataset.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := store.New(store.Config{MaxConcurrent: 4, Catalog: cat})
	cfg.Datasets = cat
	ts := httptest.NewServer(New(st, cfg))
	done := false
	shutdown := func() {
		if done {
			return
		}
		done = true
		ts.Close()
		st.Close()
		cat.Close()
	}
	t.Cleanup(shutdown)
	return ts, st, shutdown
}

// uploadBody POSTs raw bytes to url and decodes the JSON response.
func uploadBody(t *testing.T, url string, body []byte, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// diameterFields are the deterministic parts of a DiameterResponse — all
// of it except wall-clock time and cache provenance.
type diameterFields struct {
	Estimate         float64
	QuotientDiameter float64
	Radius           float64
	QuotientNodes    int
	QuotientEdges    int
	NumClusters      int
	Stages           int
	Metrics          bsp.Snapshot
}

func fieldsOf(r DiameterResponse) diameterFields {
	return diameterFields{
		Estimate:         r.Estimate,
		QuotientDiameter: r.QuotientDiameter,
		Radius:           r.Radius,
		QuotientNodes:    r.QuotientNodes,
		QuotientEdges:    r.QuotientEdges,
		NumClusters:      r.NumClusters,
		Stages:           r.Stages,
		Metrics:          r.Metrics,
	}
}

// TestDatasetIngestSurvivesRestart is the acceptance scenario: ingest over
// HTTP, query, tear the whole serving stack down, rebuild it over the same
// -data-dir, and observe the identical diameter answer with no re-upload —
// the graph faults in from the catalog lazily.
func TestDatasetIngestSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ts1, _, shutdown1 := newDatasetServer(t, dir)

	g, err := gen.FromSpec("road:16", 5)
	if err != nil {
		t.Fatal(err)
	}
	var el bytes.Buffer
	zw := gzip.NewWriter(&el)
	if err := gio.WriteEdgeList(zw, g); err != nil {
		t.Fatal(err)
	}
	zw.Close()

	var info dataset.Info
	code := uploadBody(t, ts1.URL+"/v2/datasets?name=roadnet&source=test", el.Bytes(), &info)
	if code != http.StatusCreated {
		t.Fatalf("ingest status %d", code)
	}
	if info.Format != dataset.FormatEdgeList || info.NumEdges != g.NumEdges() {
		t.Fatalf("ingest info %+v", info)
	}

	query := map[string]any{"graph": "roadnet", "seed": 9}
	var before DiameterResponse
	if code := doJSON(t, "POST", ts1.URL+"/v1/diameter", query, &before); code != http.StatusOK {
		t.Fatalf("pre-restart diameter status %d", code)
	}

	// "Restart": tear the first stack down entirely (releasing its
	// catalog lock), then build a fresh catalog, store, and server on the
	// same data directory. No graphs are registered, nothing is preloaded.
	shutdown1()
	ts2, st2, _ := newDatasetServer(t, dir)
	if len(st2.Graphs()) != 0 {
		t.Fatal("fresh store unexpectedly has graphs")
	}
	var after DiameterResponse
	if code := doJSON(t, "POST", ts2.URL+"/v1/diameter", query, &after); code != http.StatusOK {
		t.Fatalf("post-restart diameter status %d", code)
	}
	if fieldsOf(before) != fieldsOf(after) {
		t.Fatalf("restart changed the answer:\n before %+v\n after  %+v", fieldsOf(before), fieldsOf(after))
	}
	if after.Cached {
		t.Fatal("post-restart query claims cached (cache is per-process)")
	}
}

func TestDatasetEndpointsLifecycle(t *testing.T) {
	ts, st, _ := newDatasetServer(t, t.TempDir())
	g, err := gen.FromSpec("mesh:10", 2)
	if err != nil {
		t.Fatal(err)
	}
	var el bytes.Buffer
	if err := gio.WriteEdgeList(&el, g); err != nil {
		t.Fatal(err)
	}

	if code := uploadBody(t, ts.URL+"/v2/datasets?name=m", el.Bytes(), nil); code != http.StatusCreated {
		t.Fatalf("ingest status %d", code)
	}
	// Missing name parameter is a 400.
	if code := uploadBody(t, ts.URL+"/v2/datasets", el.Bytes(), nil); code != http.StatusBadRequest {
		t.Fatalf("nameless ingest status %d", code)
	}

	var list struct {
		Datasets   []dataset.Info `json:"datasets"`
		TotalBytes int64          `json:"totalBytes"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v2/datasets", nil, &list); code != http.StatusOK {
		t.Fatalf("list status %d", code)
	}
	if len(list.Datasets) != 1 || list.Datasets[0].Name != "m" || list.TotalBytes == 0 {
		t.Fatalf("list %+v", list)
	}

	var info dataset.Info
	if code := doJSON(t, "GET", ts.URL+"/v2/datasets/m", nil, &info); code != http.StatusOK {
		t.Fatalf("info status %d", code)
	}
	if info.SHA256 == "" || info.NumNodes != 100 {
		t.Fatalf("info %+v", info)
	}
	if code := doJSON(t, "GET", ts.URL+"/v2/datasets/ghost", nil, nil); code != http.StatusNotFound {
		t.Fatalf("missing info status %d", code)
	}

	// Explicit load registers the graph without a compute query.
	var ginfo store.GraphInfo
	if code := doJSON(t, "POST", ts.URL+"/v2/datasets/m/load", nil, &ginfo); code != http.StatusOK {
		t.Fatalf("load status %d", code)
	}
	loaded, _, ok := st.Graph("m")
	if !ok {
		t.Fatal("load endpoint did not register the graph")
	}

	if code := doJSON(t, "DELETE", ts.URL+"/v2/datasets/m", nil, nil); code != http.StatusOK {
		t.Fatalf("delete status %d", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/v2/datasets/m", nil, nil); code != http.StatusNotFound {
		t.Fatalf("deleted dataset still listed: %d", code)
	}
	// A deleted dataset is no longer served...
	if code := doJSON(t, "POST", ts.URL+"/v1/diameter", map[string]any{"graph": "m"}, nil); code != http.StatusNotFound {
		t.Fatalf("query after dataset delete: status %d, want 404", code)
	}
	// ...but a graph obtained before the delete stays readable end to end
	// (unlink-while-mapped safety): a run in flight finishes on it.
	if err := loaded.ValidateCSR(); err != nil || loaded.NumNodes() != 100 {
		t.Fatalf("graph mapped before the delete: %d nodes, %v", loaded.NumNodes(), err)
	}
}

// TestRenamedHeadIsNeverServedStale covers the two name movers the store
// is never told about: a dataset deleted and a different graph ingested
// under its name, and a plain re-ingest over the name. Either way the
// next query must be computed, on the new graph.
func TestRenamedHeadIsNeverServedStale(t *testing.T) {
	for _, tc := range []struct {
		name   string
		delete bool
	}{{"DeleteThenIngest", true}, {"ReingestOver", false}} {
		t.Run(tc.name, func(t *testing.T) {
			ts, _, _ := newDatasetServer(t, t.TempDir())
			query := map[string]any{"graph": "m", "seed": 3}
			upload := func(spec string) DiameterResponse {
				t.Helper()
				g, err := gen.FromSpec(spec, 2)
				if err != nil {
					t.Fatal(err)
				}
				var el bytes.Buffer
				if err := gio.WriteEdgeList(&el, g); err != nil {
					t.Fatal(err)
				}
				if code := uploadBody(t, ts.URL+"/v2/datasets?name=m", el.Bytes(), nil); code != http.StatusCreated {
					t.Fatalf("ingest %s: status %d", spec, code)
				}
				// The in-process answer on the graph just uploaded.
				oracle := store.New(store.Config{})
				defer oracle.Close()
				if _, err := oracle.AddGraph("m", g, spec); err != nil {
					t.Fatal(err)
				}
				want, _, err := oracle.Diameter(context.Background(), "m", store.Params{Seed: 3})
				if err != nil {
					t.Fatal(err)
				}
				return DiameterResponse{DiameterResult: want}
			}

			upload("mesh:10")
			for i := 0; i < 2; i++ { // compute, then make sure it is cached
				if code := doJSON(t, "POST", ts.URL+"/v1/diameter", query, nil); code != http.StatusOK {
					t.Fatalf("warm-up query: status %d", code)
				}
			}
			if tc.delete {
				if code := doJSON(t, "DELETE", ts.URL+"/v2/datasets/m", nil, nil); code != http.StatusOK {
					t.Fatalf("delete status %d", code)
				}
			}
			want := upload("mesh:14")

			var got DiameterResponse
			if code := doJSON(t, "POST", ts.URL+"/v1/diameter", query, &got); code != http.StatusOK {
				t.Fatalf("query after the name moved: status %d", code)
			}
			if got.Cached {
				t.Fatal("first query on the new graph claims cached")
			}
			if fieldsOf(got) != fieldsOf(want) {
				t.Fatalf("answer is not the new graph's:\n got  %+v\n want %+v", fieldsOf(got), fieldsOf(want))
			}
			var list struct {
				Graphs []store.GraphInfo `json:"graphs"`
			}
			if code := doJSON(t, "GET", ts.URL+"/v1/graphs", nil, &list); code != http.StatusOK {
				t.Fatalf("list graphs: status %d", code)
			}
			if len(list.Graphs) != 1 || list.Graphs[0].NumNodes != 196 {
				t.Fatalf("/v1/graphs after the name moved: %+v, want one 196-node graph", list.Graphs)
			}
		})
	}
}

func TestDatasetEndpointsWithoutCatalog(t *testing.T) {
	ts, _ := newTestServer(t) // no -data-dir equivalent
	for _, probe := range []struct{ method, path string }{
		{"POST", "/v2/datasets?name=x"},
		{"GET", "/v2/datasets"},
		{"GET", "/v2/datasets/x"},
		{"DELETE", "/v2/datasets/x"},
		{"POST", "/v2/datasets/x/load"},
		{"GET", "/v2/blobs"},
		{"GET", "/v2/blobs/" + strings.Repeat("ab", 32)},
	} {
		if code := doJSON(t, probe.method, ts.URL+probe.path, nil, nil); code != http.StatusServiceUnavailable {
			t.Errorf("%s %s without catalog: status %d, want 503", probe.method, probe.path, code)
		}
	}
}

// TestIngestErrorStatusClassification pins the bugfix for the 400-for-
// everything ingest path: clients must be able to distinguish their own
// bad bytes (400) from an oversized body (413), a snapshot the catalog
// cannot hold (507), and genuine server faults (500).
func TestIngestErrorStatusClassification(t *testing.T) {
	g, err := gen.FromSpec("mesh:12", 3)
	if err != nil {
		t.Fatal(err)
	}
	var el bytes.Buffer
	if err := gio.WriteEdgeList(&el, g); err != nil {
		t.Fatal(err)
	}

	t.Run("BadBytesAre400", func(t *testing.T) {
		ts, _, _ := newDatasetServer(t, t.TempDir())
		// Garbage that classifies as an edge list but cannot parse.
		if code := uploadBody(t, ts.URL+"/v2/datasets?name=x", []byte("definitely not a graph\n"), nil); code != http.StatusBadRequest {
			t.Fatalf("garbage body status %d, want 400", code)
		}
		// A gzip stream with a corrupted CRC trailer (the compressed
		// payload itself still inflates).
		var gz bytes.Buffer
		zw := gzip.NewWriter(&gz)
		if err := gio.WriteBinary(zw, g); err != nil {
			t.Fatal(err)
		}
		zw.Close()
		corrupt := gz.Bytes()
		corrupt[len(corrupt)-8] ^= 0x01
		if code := uploadBody(t, ts.URL+"/v2/datasets?name=x", corrupt, nil); code != http.StatusBadRequest {
			t.Fatalf("corrupt gzip trailer status %d, want 400", code)
		}
		// Bad dataset name.
		if code := uploadBody(t, ts.URL+"/v2/datasets?name=..evil", el.Bytes(), nil); code != http.StatusBadRequest {
			t.Fatalf("bad name status %d, want 400", code)
		}
		// An empty body is not a zero-node dataset, and creates nothing.
		if code := uploadBody(t, ts.URL+"/v2/datasets?name=x", nil, nil); code != http.StatusBadRequest {
			t.Fatalf("empty body status %d, want 400", code)
		}
		if code := doJSON(t, "GET", ts.URL+"/v2/datasets/x", nil, nil); code != http.StatusNotFound {
			t.Fatalf("rejected ingests created dataset x: status %d", code)
		}
	})

	t.Run("BudgetExhaustionIs507", func(t *testing.T) {
		ts, _, _ := newDatasetServerOpts(t, t.TempDir(), dataset.Options{ByteBudget: 1}, Config{})
		if code := uploadBody(t, ts.URL+"/v2/datasets?name=big", el.Bytes(), nil); code != http.StatusInsufficientStorage {
			t.Fatalf("over-budget ingest status %d, want 507", code)
		}
	})

	t.Run("OversizedBodyIs413", func(t *testing.T) {
		ts, _, _ := newDatasetServerOpts(t, t.TempDir(), dataset.Options{}, Config{MaxDatasetBytes: 64})
		if code := uploadBody(t, ts.URL+"/v2/datasets?name=fat", el.Bytes(), nil); code != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized ingest status %d, want 413", code)
		}
		// The blob tier's PUT shares the dataset body cap and the 413
		// classification (it is the same "your upload is too big").
		req, err := http.NewRequest(http.MethodPut,
			ts.URL+"/v2/blobs/"+strings.Repeat("ab", 32), bytes.NewReader(make([]byte, 4096)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized blob PUT status %d, want 413", resp.StatusCode)
		}
	})
}

// TestTwoDaemonsSharedBlobBackend is the fleet acceptance scenario: B is
// started with its blob tier pointed at A. A dataset ingested only on A
// is queried on B — B adopts the record from A's catalog, fetches the
// snapshot by content address into its read-through cache, and serves
// bit-identical decomposition metrics. Then B's cached copy is corrupted
// and its integrity sweeper quarantines it without taking B down.
func TestTwoDaemonsSharedBlobBackend(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	tsA, _, _ := newDatasetServer(t, dirA)

	remote, err := dataset.NewRemoteStore(tsA.URL, filepath.Join(dirB, "cache"), nil)
	if err != nil {
		t.Fatal(err)
	}
	tsB, _, _ := newDatasetServerOpts(t, dirB, dataset.Options{Blobs: remote}, Config{})

	// Ingest on A only.
	g, err := gen.FromSpec("road:16", 7)
	if err != nil {
		t.Fatal(err)
	}
	var el bytes.Buffer
	zw := gzip.NewWriter(&el)
	if err := gio.WriteEdgeList(zw, g); err != nil {
		t.Fatal(err)
	}
	zw.Close()
	var info dataset.Info
	if code := uploadBody(t, tsA.URL+"/v2/datasets?name=shared&source=fleet", el.Bytes(), &info); code != http.StatusCreated {
		t.Fatalf("ingest on A: status %d", code)
	}

	// Query the SAME name on both daemons; answers must agree exactly.
	query := map[string]any{"graph": "shared", "seed": 11}
	var onA, onB DiameterResponse
	if code := doJSON(t, "POST", tsA.URL+"/v1/diameter", query, &onA); code != http.StatusOK {
		t.Fatalf("diameter on A: status %d", code)
	}
	if code := doJSON(t, "POST", tsB.URL+"/v1/diameter", query, &onB); code != http.StatusOK {
		t.Fatalf("diameter on B (never ingested there): status %d", code)
	}
	if fieldsOf(onA) != fieldsOf(onB) {
		t.Fatalf("fleet answers diverge:\n A %+v\n B %+v", fieldsOf(onA), fieldsOf(onB))
	}
	if onB.Cached {
		t.Fatal("B claims a cache hit on its first ever query")
	}

	// B adopted the record into its own manifest with the same address.
	var adopted dataset.Info
	if code := doJSON(t, "GET", tsB.URL+"/v2/datasets/shared", nil, &adopted); code != http.StatusOK {
		t.Fatalf("B did not adopt the dataset record: status %d", code)
	}
	if adopted.SHA256 != info.SHA256 {
		t.Fatalf("adopted record sha %s != ingested %s", adopted.SHA256, info.SHA256)
	}
	// And the blob was materialized in B's cache, byte-identical to A's.
	cached, err := os.ReadFile(filepath.Join(dirB, "cache", info.SHA256+".gds"))
	if err != nil {
		t.Fatalf("B's read-through cache is empty: %v", err)
	}
	original, err := os.ReadFile(filepath.Join(dirA, "snapshots", info.SHA256+".gds"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cached, original) {
		t.Fatal("cached blob differs from the tier's copy")
	}

	// Unknown names still 404 on B (adoption must not break not-found).
	if code := doJSON(t, "POST", tsB.URL+"/v1/diameter", map[string]any{"graph": "ghost"}, nil); code != http.StatusNotFound {
		t.Fatalf("unknown graph on B: status %d, want 404", code)
	}

	// Corrupt B's cached copy in place and sweep: the entry quarantines,
	// the daemon keeps serving (resident graph and A's tier untouched).
	catB := stBCatalog(t, tsB)
	flip := make([]byte, 1)
	f, err := os.OpenFile(filepath.Join(dirB, "cache", info.SHA256+".gds"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(flip, 4096+32); err != nil {
		t.Fatal(err)
	}
	flip[0] ^= 0x01
	if _, err := f.WriteAt(flip, 4096+32); err != nil {
		t.Fatal(err)
	}
	f.Close()
	failures := 0
	for _, res := range catB.SweepOnce() {
		if !res.OK && !res.Skipped {
			failures++
		}
	}
	if failures != 1 {
		t.Fatalf("sweep on B found %d failures, want 1", failures)
	}
	var list struct {
		Sweep dataset.SweepStatus `json:"sweep"`
	}
	if code := doJSON(t, "GET", tsB.URL+"/v2/datasets", nil, &list); code != http.StatusOK {
		t.Fatalf("list on B after sweep: status %d", code)
	}
	if list.Sweep.TotalFailures != 1 || list.Sweep.TotalQuarantined != 1 {
		t.Fatalf("sweep telemetry not surfaced: %+v", list.Sweep)
	}
	// The already-resident graph keeps answering identically, and A is
	// unaffected — quarantine on B never mutates the shared tier.
	var again DiameterResponse
	if code := doJSON(t, "POST", tsB.URL+"/v1/diameter", query, &again); code != http.StatusOK {
		t.Fatalf("B stopped serving after quarantine: status %d", code)
	}
	if fieldsOf(again) != fieldsOf(onA) {
		t.Fatal("B's answer changed after quarantine")
	}
	if _, err := os.Stat(filepath.Join(dirA, "snapshots", info.SHA256+".gds")); err != nil {
		t.Fatalf("quarantine on B touched A's tier: %v", err)
	}
}

// stBCatalog digs the live catalog back out of a test server (reopening
// the directory is impossible while the stack holds its flock).
func stBCatalog(t *testing.T, ts *httptest.Server) *dataset.Catalog {
	t.Helper()
	srv, ok := ts.Config.Handler.(*Server)
	if !ok {
		t.Fatalf("test server handler is %T, want *Server", ts.Config.Handler)
	}
	return srv.cfg.Datasets
}

// TestBlobEndpointsServeTier exercises the daemon-side blob protocol the
// remote backend depends on: list, fetch-by-SHA, and 404s.
func TestBlobEndpointsServeTier(t *testing.T) {
	ts, _, _ := newDatasetServer(t, t.TempDir())
	g, err := gen.FromSpec("mesh:8", 1)
	if err != nil {
		t.Fatal(err)
	}
	var el bytes.Buffer
	if err := gio.WriteEdgeList(&el, g); err != nil {
		t.Fatal(err)
	}
	var info dataset.Info
	if code := uploadBody(t, ts.URL+"/v2/datasets?name=m", el.Bytes(), &info); code != http.StatusCreated {
		t.Fatalf("ingest status %d", code)
	}

	var blobs struct {
		Blobs []string `json:"blobs"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v2/blobs", nil, &blobs); code != http.StatusOK {
		t.Fatalf("blob list status %d", code)
	}
	if len(blobs.Blobs) != 1 || blobs.Blobs[0] != info.SHA256 {
		t.Fatalf("blob list %v, want [%s]", blobs.Blobs, info.SHA256)
	}
	resp, err := http.Get(ts.URL + "/v2/blobs/" + info.SHA256)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || int64(len(raw)) != info.Bytes {
		t.Fatalf("blob GET: status %d, %d bytes (want %d), err %v", resp.StatusCode, len(raw), info.Bytes, err)
	}
	if code := doJSON(t, "GET", ts.URL+"/v2/blobs/"+strings.Repeat("00", 32), nil, nil); code != http.StatusNotFound {
		t.Fatalf("missing blob status %d, want 404", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/v2/blobs/not-a-sha", nil, nil); code != http.StatusBadRequest {
		t.Fatalf("malformed sha status %d, want 400", code)
	}

	// Deleting a blob the node's own manifest references is refused —
	// it would strand the dataset with no safeguard. Dropping the
	// dataset first makes the same delete legal.
	if code := doJSON(t, "DELETE", ts.URL+"/v2/blobs/"+info.SHA256, nil, nil); code != http.StatusConflict {
		t.Fatalf("referenced blob delete status %d, want 409", code)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/v2/datasets/m", nil, nil); code != http.StatusOK {
		t.Fatalf("dataset delete status %d", code)
	}
	// The dataset removal already unlinked the unreferenced blob; a
	// tier-level delete of the now-absent address is a clean no-op.
	if code := doJSON(t, "DELETE", ts.URL+"/v2/blobs/"+info.SHA256, nil, nil); code != http.StatusOK {
		t.Fatalf("unreferenced blob delete status %d, want 200", code)
	}
}
