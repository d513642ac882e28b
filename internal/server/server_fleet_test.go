package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"graphdiam/internal/dataset"
	"graphdiam/internal/fleet"
	"graphdiam/internal/gen"
	"graphdiam/internal/gio"
	"graphdiam/internal/store"
)

// fleetDaemon is one node of a query-plane test fleet.
type fleetDaemon struct {
	st    *store.Store
	cat   *dataset.Catalog
	tab   *fleet.Table
	cache *fleet.Cache
	srv   *httptest.Server
	url   string
}

// fleetTestOptions tunes the daemons newQueryFleet boots beyond the
// defaults: read replication factor and drain wiring. Zero values leave
// the defaults (k=1, no drain hook) in place.
type fleetTestOptions struct {
	Replicas     int
	DrainTimeout time.Duration
	OnDrain      func()
}

// newQueryFleet boots n daemons wired into one query plane: every daemon
// knows every URL (listeners are created before the servers so the
// shared member list exists up front), health is driven manually
// (Interval 0) and everyone starts seeing everyone live. withCatalog
// gives each daemon its own dataset catalog — fleet-cache tests ingest
// the same bytes everywhere so content addressing aligns the nodes.
func newQueryFleet(t *testing.T, n int, withCatalog bool, opts ...fleetTestOptions) []*fleetDaemon {
	t.Helper()
	var opt fleetTestOptions
	if len(opts) > 0 {
		opt = opts[0]
	}
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		urls[i] = "http://" + l.Addr().String()
	}
	ds := make([]*fleetDaemon, n)
	for i := 0; i < n; i++ {
		d := &fleetDaemon{url: urls[i]}
		tab, err := fleet.NewTable(urls, i, fleet.TableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		d.tab = tab
		d.cache = fleet.NewCache(tab, fleet.CacheOptions{Replicas: opt.Replicas})
		scfg := store.Config{
			MaxConcurrent: 4,
			FleetCache:    d.cache,
		}
		cfg := Config{
			Fleet:        tab,
			Replicas:     opt.Replicas,
			DrainTimeout: opt.DrainTimeout,
			OnDrain:      opt.OnDrain,
		}
		if withCatalog {
			cat, err := dataset.Open(filepath.Join(t.TempDir(), fmt.Sprintf("node%d", i)), dataset.Options{})
			if err != nil {
				t.Fatal(err)
			}
			d.cat = cat
			scfg.Catalog = cat
			cfg.Datasets = cat
		}
		d.st = store.New(scfg)
		srv := httptest.NewUnstartedServer(New(d.st, cfg))
		srv.Listener.Close()
		srv.Listener = listeners[i]
		srv.Start()
		d.srv = srv
		ds[i] = d
	}
	for _, d := range ds {
		for r := 0; r < n; r++ {
			d.tab.SetLive(r, true)
		}
	}
	t.Cleanup(func() {
		for _, d := range ds {
			d.srv.Close()
			d.st.Close()
			d.cache.Close()
			d.tab.Close()
			if d.cat != nil {
				d.cat.Close()
			}
		}
	})
	return ds
}

// ownerOf returns the (owner, non-owner) daemons for a dataset name in a
// two-daemon fleet.
func ownerOf(t *testing.T, ds []*fleetDaemon, name string) (owner, other *fleetDaemon) {
	t.Helper()
	m, ok := ds[0].tab.Owner(name)
	if !ok {
		t.Fatalf("no owner for %q", name)
	}
	return ds[m.Rank], ds[1-m.Rank]
}

// rawPost POSTs JSON and returns the status, raw body, and headers.
func rawPost(t *testing.T, url string, body any, hdr map[string]string) (int, []byte, http.Header) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw, resp.Header
}

// ingestEverywhere uploads the same graph bytes to every daemon's
// catalog, returning the (shared, content-addressed) dataset name.
func ingestEverywhere(t *testing.T, ds []*fleetDaemon, spec string, seed uint64, name string) {
	t.Helper()
	g, err := gen.FromSpec(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	var el bytes.Buffer
	if err := gio.WriteEdgeList(&el, g); err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		if code := uploadBody(t, d.url+"/v2/datasets?name="+name, el.Bytes(), nil); code != http.StatusCreated {
			t.Fatalf("ingest on %s: status %d", d.url, code)
		}
	}
}

// TestFleetRoutedQueryLandsOnOwner: a query sent to the wrong daemon is
// transparently proxied to the dataset's rendezvous owner — the owner
// does the BSP run (exactly once), the non-owner computes nothing, and
// the routed response is byte-identical to asking the owner directly.
func TestFleetRoutedQueryLandsOnOwner(t *testing.T) {
	ds := newQueryFleet(t, 2, false)
	g, err := gen.FromSpec("mesh:16", 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		if _, err := d.st.AddGraph("g", g, "test"); err != nil {
			t.Fatal(err)
		}
	}
	owner, other := ownerOf(t, ds, "g")
	query := map[string]any{"graph": "g", "seed": 7}

	code, _, _ := rawPost(t, other.url+"/v1/diameter", query, nil)
	if code != http.StatusOK {
		t.Fatalf("routed query: status %d", code)
	}
	if c := owner.st.Stats().Counters.Computations; c != 1 {
		t.Errorf("owner computations = %d, want 1", c)
	}
	if c := other.st.Stats().Counters.Computations; c != 0 {
		t.Errorf("non-owner computations = %d, want 0", c)
	}

	// Warm on both paths, the answers must now be byte-identical.
	_, direct, _ := rawPost(t, owner.url+"/v1/diameter", query, nil)
	_, routed, _ := rawPost(t, other.url+"/v1/diameter", query, nil)
	if !bytes.Equal(direct, routed) {
		t.Errorf("routed response diverged from direct:\n direct %s\n routed %s", direct, routed)
	}

	// Path-placed requests route the same way.
	r1, err := http.Get(owner.url + "/v1/graphs/g")
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := io.ReadAll(r1.Body)
	r1.Body.Close()
	r2, err := http.Get(other.url + "/v1/graphs/g")
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := io.ReadAll(r2.Body)
	r2.Body.Close()
	if !bytes.Equal(b1, b2) {
		t.Errorf("GET /v1/graphs/g diverged across nodes:\n %s\n %s", b1, b2)
	}
}

// TestFleetJobRouting: jobs submitted anywhere run on the dataset's
// owner under a rank-qualified ID, and polling or streaming that job
// from any other daemon follows the ID home.
func TestFleetJobRouting(t *testing.T) {
	ds := newQueryFleet(t, 2, false)
	g, err := gen.FromSpec("mesh:12", 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		if _, err := d.st.AddGraph("g", g, "test"); err != nil {
			t.Fatal(err)
		}
	}
	owner, other := ownerOf(t, ds, "g")
	ownerRank := owner.tab.Self()

	code, raw, _ := rawPost(t, other.url+"/v2/jobs", map[string]any{"op": "decompose", "graph": "g", "seed": 5}, nil)
	if code != http.StatusAccepted {
		t.Fatalf("submit via non-owner: status %d: %s", code, raw)
	}
	var view struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &view); err != nil {
		t.Fatal(err)
	}
	wantPrefix := fmt.Sprintf("job-r%d-", ownerRank)
	if !strings.HasPrefix(view.ID, wantPrefix) {
		t.Fatalf("job id %q does not carry owner rank (want prefix %q)", view.ID, wantPrefix)
	}

	// The SSE stream, opened against the daemon that does NOT run the
	// job, proxies through to the home node and ends with "done".
	resp, err := http.Get(other.url + "/v2/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(events), "event: done") {
		t.Fatalf("routed SSE stream missing done event:\n%s", events)
	}

	// Poll from the non-owner: the ID routes home.
	r, err := http.Get(other.url + "/v2/jobs/" + view.ID)
	if err != nil {
		t.Fatal(err)
	}
	var polled struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(r.Body).Decode(&polled); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if polled.ID != view.ID || polled.State != "done" {
		t.Fatalf("routed poll: %+v", polled)
	}
	if c := other.st.Stats().Counters.Computations; c != 0 {
		t.Errorf("non-owner computations = %d, want 0", c)
	}
}

// TestFleetCrossNodeSingleflight: the same uncached query fired at both
// daemons concurrently costs exactly one BSP run fleet-wide — owner
// routing funnels both into one node whose singleflight collapses them.
func TestFleetCrossNodeSingleflight(t *testing.T) {
	ds := newQueryFleet(t, 2, true)
	ingestEverywhere(t, ds, "road:32", 11, "roadnet")
	query := map[string]any{"graph": "roadnet", "seed": 11}

	type outcome struct {
		code int
		resp DiameterResponse
	}
	outs := make([]outcome, 2)
	var wg sync.WaitGroup
	for i, d := range ds {
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			code, raw, _ := rawPost(t, url+"/v1/diameter", query, nil)
			outs[i].code = code
			if code == http.StatusOK {
				if err := json.Unmarshal(raw, &outs[i].resp); err != nil {
					t.Error(err)
				}
			}
		}(i, d.url)
	}
	wg.Wait()
	for i, o := range outs {
		if o.code != http.StatusOK {
			t.Fatalf("daemon %d: status %d", i, o.code)
		}
	}
	if fieldsOf(outs[0].resp) != fieldsOf(outs[1].resp) {
		t.Errorf("concurrent answers diverged:\n %+v\n %+v", fieldsOf(outs[0].resp), fieldsOf(outs[1].resp))
	}
	total := ds[0].st.Stats().Counters.Computations + ds[1].st.Stats().Counters.Computations
	if total != 1 {
		t.Errorf("fleet-wide computations = %d, want exactly 1", total)
	}
}

// TestFleetFollowerSurvivesCancelledLeader: a client cancelling its
// routed query mid-run must not poison a concurrent identical query —
// the follower retries and completes (the store's follower-retry
// composing through the proxy hop).
func TestFleetFollowerSurvivesCancelledLeader(t *testing.T) {
	ds := newQueryFleet(t, 2, true)
	ingestEverywhere(t, ds, "road:64", 7, "roadnet")
	query := map[string]any{"graph": "roadnet", "seed": 7}
	owner, other := ownerOf(t, ds, "roadnet")

	// Leader: routed through the non-owner, cancelled mid-run.
	ctx, cancel := context.WithCancel(context.Background())
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		b, _ := json.Marshal(query)
		req, _ := http.NewRequestWithContext(ctx, "POST", other.url+"/v1/diameter", bytes.NewReader(b))
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	time.Sleep(20 * time.Millisecond)
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()

	// Follower: direct to the owner, must succeed no matter when the
	// leader's disconnect lands.
	code, raw, _ := rawPost(t, owner.url+"/v1/diameter", query, nil)
	if code != http.StatusOK {
		t.Fatalf("follower after cancelled leader: status %d: %s", code, raw)
	}
	var got DiameterResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Estimate <= 0 {
		t.Fatalf("follower result looks empty: %+v", got)
	}
	<-leaderDone
}

// TestFleetCacheEndpointsAndPromotion: a computed result is served to
// peers over GET /v2/cache/{key}, a pushed result is accepted over PUT
// and — once the dataset's queries land here after a failover — served
// from the raw slot without any BSP run.
func TestFleetCacheEndpointsAndPromotion(t *testing.T) {
	ds := newQueryFleet(t, 2, true)
	ingestEverywhere(t, ds, "mesh:14", 5, "m")
	owner, other := ownerOf(t, ds, "m")
	query := map[string]any{"graph": "m", "seed": 4}

	code, raw, _ := rawPost(t, owner.url+"/v1/diameter", query, nil)
	if code != http.StatusOK {
		t.Fatalf("prime: status %d", code)
	}
	var primed DiameterResponse
	if err := json.Unmarshal(raw, &primed); err != nil {
		t.Fatal(err)
	}

	fkey, ok := owner.st.FleetKeyFor("m", "diameter", store.Params{Seed: 4})
	if !ok {
		t.Fatal("dataset-backed graph has no fleet key")
	}

	// The computed result answers peer probes.
	resp, err := http.Get(owner.url + "/v2/cache/" + url.PathEscape(fkey))
	if err != nil {
		t.Fatal(err)
	}
	cached, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v2/cache: status %d (key %q)", resp.StatusCode, fkey)
	}
	var fromCache store.DiameterResult
	if err := json.Unmarshal(cached, &fromCache); err != nil {
		t.Fatal(err)
	}
	if fromCache.Estimate != primed.Estimate {
		t.Fatalf("cache body diverged: %+v vs %+v", fromCache, primed.DiameterResult)
	}

	// Push it to the other daemon, as the owner's background publish (or
	// any peer) would.
	req, err := http.NewRequest("PUT", other.url+"/v2/cache/"+url.PathEscape(fkey), bytes.NewReader(cached))
	if err != nil {
		t.Fatal(err)
	}
	pr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT /v2/cache: status %d", pr.StatusCode)
	}
	// A key that is not a fleet key is refused before it reaches the LRU.
	req, err = http.NewRequest("PUT", other.url+"/v2/cache/"+url.PathEscape("a|b"), bytes.NewReader(cached))
	if err != nil {
		t.Fatal(err)
	}
	if pr, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusBadRequest {
		t.Fatalf("PUT /v2/cache/a|b: status %d, want 400", pr.StatusCode)
	}

	// Fail the owner over (in the other daemon's view only): the dataset
	// now belongs to the other daemon, which serves the pushed result —
	// faulting the dataset in by content address, never running BSP.
	other.tab.SetLive(owner.tab.Self(), false)
	code, raw, _ = rawPost(t, other.url+"/v1/diameter", query, nil)
	if code != http.StatusOK {
		t.Fatalf("failover query: status %d: %s", code, raw)
	}
	var after DiameterResponse
	if err := json.Unmarshal(raw, &after); err != nil {
		t.Fatal(err)
	}
	if !after.Cached {
		t.Error("failover query not served from fleet cache")
	}
	if fieldsOf(after) != fieldsOf(primed) {
		t.Errorf("failover answer diverged:\n %+v\n %+v", fieldsOf(after), fieldsOf(primed))
	}
	ctrs := other.st.Stats().Counters
	if ctrs.Computations != 0 {
		t.Errorf("failover daemon computations = %d, want 0", ctrs.Computations)
	}
	if ctrs.FleetHits != 1 {
		t.Errorf("failover daemon fleetHits = %d, want 1", ctrs.FleetHits)
	}
}

// TestFleetCachePeerProbe: a daemon that receives a query it would not
// normally own (a routed hop — the sender's health view said so) probes
// live peers for the result before computing, so a stale view costs one
// HTTP round-trip, not a BSP run.
func TestFleetCachePeerProbe(t *testing.T) {
	ds := newQueryFleet(t, 2, true)
	ingestEverywhere(t, ds, "mesh:14", 9, "m")
	owner, other := ownerOf(t, ds, "m")
	query := map[string]any{"graph": "m", "seed": 2}

	if code, _, _ := rawPost(t, owner.url+"/v1/diameter", query, nil); code != http.StatusOK {
		t.Fatal("prime failed")
	}

	// Simulate a misrouted hop: the Routed header pins the request to the
	// non-owner, which must probe the fleet instead of recomputing.
	code, raw, _ := rawPost(t, other.url+"/v1/diameter", query,
		map[string]string{fleet.RoutedHeader: "0"})
	if code != http.StatusOK {
		t.Fatalf("misrouted query: status %d: %s", code, raw)
	}
	var got DiameterResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Cached {
		t.Error("misrouted query not served from fleet cache")
	}
	ctrs := other.st.Stats().Counters
	if ctrs.Computations != 0 || ctrs.FleetHits != 1 {
		t.Errorf("misrouted daemon counters: %+v (want 0 computations, 1 fleetHit)", ctrs)
	}
}

// TestTenantQuota: per-tenant admission control returns 429 with a
// Retry-After once a tenant's burst is spent, without touching other
// tenants or edge-charged (already admitted) requests.
func TestTenantQuota(t *testing.T) {
	st := store.New(store.Config{})
	defer st.Close()
	g, err := gen.FromSpec("mesh:8", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddGraph("g", g, "test"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(st, Config{Quotas: fleet.NewQuotas(0.01, 1)}))
	defer ts.Close()
	query := map[string]any{"graph": "g"}

	if code, raw, _ := rawPost(t, ts.URL+"/v1/diameter", query, map[string]string{"X-Tenant": "alice"}); code != http.StatusOK {
		t.Fatalf("first request: status %d: %s", code, raw)
	}
	code, raw, hdr := rawPost(t, ts.URL+"/v1/diameter", query, map[string]string{"X-Tenant": "alice"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-burst request: status %d: %s", code, raw)
	}
	if ra := hdr.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}
	if !strings.Contains(string(raw), "alice") {
		t.Errorf("429 body does not name the tenant: %s", raw)
	}
	// Another tenant is unaffected.
	if code, _, _ := rawPost(t, ts.URL+"/v1/diameter", query, map[string]string{"X-Tenant": "bob"}); code != http.StatusOK {
		t.Fatalf("independent tenant: status %d", code)
	}
	// Edge-admitted requests are not double-charged.
	if code, _, _ := rawPost(t, ts.URL+"/v1/diameter", query,
		map[string]string{"X-Tenant": "alice", fleet.EdgeHeader: "lb"}); code != http.StatusOK {
		t.Fatalf("edge-admitted request: status %d", code)
	}
	// Reads are never charged.
	if r, err := http.Get(ts.URL + "/v1/stats"); err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("read charged against quota: %v", err)
	} else {
		r.Body.Close()
	}
}

// TestReadyzSplit: /healthz is pure liveness; /readyz reflects whether
// the node can actually serve (and flips to 503 when its catalog
// directory vanishes).
func TestReadyzSplit(t *testing.T) {
	dir := t.TempDir()
	ts, _, _ := newDatasetServer(t, dir)

	for _, path := range []string{"/healthz", "/readyz"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, r.StatusCode)
		}
	}

	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	r, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after losing data dir: status %d: %s", r.StatusCode, body)
	}
	// Liveness is unaffected: the process is still up.
	r2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("healthz after losing data dir: status %d", r2.StatusCode)
	}
}

// TestRequestIDPropagation: a client-sent X-Request-Id survives to the
// response across a routed hop, and requests without one get a minted
// ID.
func TestRequestIDPropagation(t *testing.T) {
	ds := newQueryFleet(t, 2, false)
	g, err := gen.FromSpec("mesh:10", 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		if _, err := d.st.AddGraph("g", g, "test"); err != nil {
			t.Fatal(err)
		}
	}
	_, other := ownerOf(t, ds, "g")

	code, _, hdr := rawPost(t, other.url+"/v1/diameter", map[string]any{"graph": "g"},
		map[string]string{fleet.RequestIDHeader: "rid-test-42"})
	if code != http.StatusOK {
		t.Fatalf("routed query: status %d", code)
	}
	if got := hdr.Get(fleet.RequestIDHeader); got != "rid-test-42" {
		t.Errorf("request id across routed hop: %q, want rid-test-42", got)
	}

	_, _, hdr = rawPost(t, other.url+"/v1/diameter", map[string]any{"graph": "g"}, nil)
	if got := hdr.Get(fleet.RequestIDHeader); len(got) != 16 {
		t.Errorf("minted request id %q, want 16 hex chars", got)
	}
}

// TestFleetInfoEndpoint: /v2/fleet reports membership and, per dataset,
// the owner every node agrees on.
func TestFleetInfoEndpoint(t *testing.T) {
	ds := newQueryFleet(t, 2, false)
	var owners [2]int
	for i, d := range ds {
		r, err := http.Get(d.url + "/v2/fleet?dataset=x")
		if err != nil {
			t.Fatal(err)
		}
		var resp FleetInfoResponse
		if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if resp.Self != i {
			t.Errorf("daemon %d reports self=%d", i, resp.Self)
		}
		if len(resp.Members) != 2 || resp.Owner == nil || len(resp.Preference) != 2 {
			t.Fatalf("daemon %d fleet view: %+v", i, resp)
		}
		owners[i] = resp.Owner.Rank
	}
	if owners[0] != owners[1] {
		t.Errorf("daemons disagree on ownership: %v", owners)
	}

	// Outside a fleet the endpoint 404s.
	st := store.New(store.Config{})
	defer st.Close()
	solo := httptest.NewServer(New(st, Config{}))
	defer solo.Close()
	r, err := http.Get(solo.URL + "/v2/fleet")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("solo /v2/fleet: status %d, want 404", r.StatusCode)
	}
}
