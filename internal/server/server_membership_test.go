package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"graphdiam/internal/fleet"
	"graphdiam/internal/gen"
	"graphdiam/internal/store"
)

// Elastic-membership tests: the epoch-stamped config endpoint, the epoch
// middleware, graceful drain with successor pre-warming, and k-replica
// local serving.

// rawGet GETs a URL with optional headers and returns status, body, and
// response headers.
func rawGet(t *testing.T, url string, hdr map[string]string) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
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

// memberURLs extracts the table's member URLs in rank order.
func memberURLs(tab *fleet.Table) []string {
	ms := tab.Members()
	urls := make([]string, len(ms))
	for i, m := range ms {
		urls[i] = m.URL
	}
	return urls
}

// TestFleetConfigEndpoint: POST /v2/fleet/config swaps in a strictly
// newer view (visible in /v2/fleet), rejects a stale epoch with a 409
// carrying the current view, and rejects a view that would orphan the
// node itself — keeping the old view — which is the guard against a
// fat-fingered member list taking a node out of its own placement.
func TestFleetConfigEndpoint(t *testing.T) {
	ds := newQueryFleet(t, 2, false)
	urls := memberURLs(ds[0].tab)

	push := func(v fleet.View) (int, []byte) {
		t.Helper()
		code, raw, _ := rawPost(t, ds[0].url+"/v2/fleet/config", v, nil)
		return code, raw
	}

	// Grow the fleet under epoch 2.
	code, raw := push(fleet.View{Epoch: 2, Members: append(append([]string{}, urls...), "http://extra:1")})
	if code != http.StatusOK {
		t.Fatalf("grow push: status %d: %s", code, raw)
	}
	code, raw, _ = rawGet(t, ds[0].url+"/v2/fleet", nil)
	if code != http.StatusOK {
		t.Fatalf("/v2/fleet: status %d", code)
	}
	var info FleetInfoResponse
	if err := json.Unmarshal(raw, &info); err != nil {
		t.Fatal(err)
	}
	if info.Epoch != 2 || len(info.Members) != 3 {
		t.Fatalf("after grow: epoch=%d members=%d, want 2/3", info.Epoch, len(info.Members))
	}

	// A stale epoch is a classified 409 carrying the node's current view,
	// so the pusher can converge instead of flying blind.
	code, raw = push(fleet.View{Epoch: 2, Members: urls})
	if code != http.StatusConflict {
		t.Fatalf("stale push: status %d, want 409", code)
	}
	if v, ok := fleet.DecodeViewError(bytes.NewReader(raw)); !ok || v.Epoch != 2 {
		t.Errorf("stale 409 body must carry the current view, got (%+v,%v)", v, ok)
	}

	// A newer view that drops this node's own entry is refused outright
	// and the old view kept.
	code, _ = push(fleet.View{Epoch: 3, Members: []string{"http://x:1", "http://y:1"}})
	if code != http.StatusConflict {
		t.Fatalf("orphan push: status %d, want 409", code)
	}
	if e := ds[0].tab.Epoch(); e != 2 {
		t.Errorf("epoch after refused orphan push = %d, want 2 (old view kept)", e)
	}
}

// TestJobHomeAfterReorderedView: a job ID carries the rank of its home
// node in the view current at submission, which is the view routing
// resolves it against. After an epoch-2 view that reverses the member
// order, a job submitted on one node must still be found through the
// other.
func TestJobHomeAfterReorderedView(t *testing.T) {
	ds := newQueryFleet(t, 2, false)
	g, err := gen.FromSpec("mesh:8", 3)
	if err != nil {
		t.Fatal(err)
	}
	urls := memberURLs(ds[0].tab)
	reversed := fleet.View{Epoch: 2, Members: []string{urls[1], urls[0]}}
	for _, d := range ds {
		if err := d.tab.SwapView(reversed); err != nil {
			t.Fatal(err)
		}
		if _, err := d.st.AddGraph("g", g, "test"); err != nil {
			t.Fatal(err)
		}
	}
	// Submit on the graph's owner so the job stays there; ds is in boot
	// order, so find the owner by URL, not by its rank in the new view.
	m, ok := ds[0].tab.Owner("g")
	if !ok {
		t.Fatal("no owner for g")
	}
	home, other := ds[0], ds[1]
	if home.url != m.URL {
		home, other = other, home
	}

	code, raw, _ := rawPost(t, home.url+"/v2/jobs", map[string]any{"op": "decompose", "graph": "g", "seed": 5}, nil)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", code, raw)
	}
	var view store.JobView
	if err := json.Unmarshal(raw, &view); err != nil {
		t.Fatal(err)
	}
	if code, raw, _ := rawGet(t, other.url+"/v2/jobs/"+view.ID, nil); code != http.StatusOK {
		t.Fatalf("GET %s via the other node: status %d: %s", view.ID, code, raw)
	}
	if want := fmt.Sprintf("job-r%d-", m.Rank); !strings.HasPrefix(view.ID, want) {
		t.Errorf("job id %q, want prefix %q (the home's rank in the current view)", view.ID, want)
	}
}

// TestEpochMiddleware: a fleet-internal hop stamped with a divergent
// placement epoch gets the classified 409 + current view instead of a
// possibly-wrong answer; unstamped (external) requests and the exempt
// repair endpoints pass.
func TestEpochMiddleware(t *testing.T) {
	ds := newQueryFleet(t, 2, false)

	stamp := map[string]string{fleet.EpochHeader: "99"}
	code, raw, hdr := rawGet(t, ds[0].url+"/v1/graphs/nope", stamp)
	if code != http.StatusConflict {
		t.Fatalf("stamped mismatch: status %d, want 409", code)
	}
	if got := hdr.Get(fleet.ErrClassHeader); got != fleet.ErrClassEpochMismatch {
		t.Errorf("%s = %q, want %q", fleet.ErrClassHeader, got, fleet.ErrClassEpochMismatch)
	}
	if v, ok := fleet.DecodeViewError(bytes.NewReader(raw)); !ok || v.Epoch != 1 {
		t.Errorf("409 body must carry the node's view, got (%+v,%v)", v, ok)
	}

	// Unstamped external requests are never epoch-checked.
	if code, _, _ := rawGet(t, ds[0].url+"/v1/graphs/nope", nil); code == http.StatusConflict {
		t.Error("unstamped request must not be epoch-rejected")
	}

	// Health and membership endpoints answer regardless of epoch — they
	// are how divergence gets repaired.
	for _, path := range []string{"/readyz", "/healthz", "/v2/fleet"} {
		if code, _, _ := rawGet(t, ds[0].url+path, stamp); code == http.StatusConflict {
			t.Errorf("%s must be epoch-exempt", path)
		}
	}

	// The correct epoch passes: a matching stamp on a local-served path.
	ok := map[string]string{fleet.EpochHeader: strconv.FormatUint(ds[0].tab.Epoch(), 10)}
	if code, _, _ := rawGet(t, ds[0].url+"/v2/stats", ok); code == http.StatusConflict {
		t.Error("matching epoch must not be rejected")
	}
}

// TestFleetDrain is the graceful-departure lifecycle: drain flips readyz
// to draining (503) and rejects new compute with the classified 503, the
// hot fleet-cache entries land on the successor, OnDrain fires, and the
// survivor then answers the drained node's queries byte-identically from
// the pre-warmed cache — zero recomputation.
func TestFleetDrain(t *testing.T) {
	drained := make(chan struct{})
	ds := newQueryFleet(t, 2, true, fleetTestOptions{
		DrainTimeout: 5 * time.Second,
		OnDrain:      func() { close(drained) },
	})
	ingestEverywhere(t, ds, "mesh:14", 5, "dr")
	owner, other := ownerOf(t, ds, "dr")
	info, err := owner.cat.Info("dr")
	if err != nil || info.SHA256 == "" {
		t.Fatalf("ingested dataset has no sha: %v", err)
	}
	sha := info.SHA256
	// Pick a seed whose cache key places on the owner itself, so the
	// normal background publish stays local and only the drain's prewarm
	// can move the entry to the survivor.
	var seed uint64
	var fkey string
	for seed = 1; ; seed++ {
		fkey = store.FleetKey(sha, "diameter", store.Params{Seed: seed})
		if m, ok := owner.tab.Owner(fkey); ok && m.Rank == owner.tab.Self() {
			break
		}
	}
	query := map[string]any{"graph": "dr", "seed": seed}

	if code, raw, _ := rawPost(t, owner.url+"/v1/diameter", query, nil); code != http.StatusOK {
		t.Fatalf("prime: status %d: %s", code, raw)
	}
	_, warm, _ := rawPost(t, owner.url+"/v1/diameter", query, nil)
	if _, ok := other.st.FleetCacheGet(fkey); ok {
		t.Fatal("survivor unexpectedly has the entry before drain (key placed on owner: no push)")
	}

	code, raw, _ := rawPost(t, owner.url+"/v2/fleet/drain", nil, nil)
	if code != http.StatusAccepted {
		t.Fatalf("drain: status %d: %s", code, raw)
	}
	// Draining outranks ready.
	code, raw, _ = rawGet(t, owner.url+"/readyz", nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz: status %d", code)
	}
	var ready ReadyResponse
	if err := json.Unmarshal(raw, &ready); err != nil {
		t.Fatal(err)
	}
	if ready.Status != "draining" {
		t.Errorf("readyz status = %q, want draining", ready.Status)
	}
	// New compute is rejected with the classified retryable 503.
	code, _, hdr := rawPost(t, owner.url+"/v1/diameter", query, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("compute while draining: status %d, want 503", code)
	}
	if hdr.Get(fleet.ErrClassHeader) != fleet.ErrClassDraining {
		t.Errorf("%s = %q, want %q", fleet.ErrClassHeader, hdr.Get(fleet.ErrClassHeader), fleet.ErrClassDraining)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("draining rejection must carry Retry-After")
	}
	// Idempotent: a second drain reports the one in progress.
	if code, raw, _ := rawPost(t, owner.url+"/v2/fleet/drain", nil, nil); code != http.StatusOK {
		t.Fatalf("second drain: status %d: %s", code, raw)
	}

	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("OnDrain never fired")
	}

	// The successor was pre-warmed with the hot entry.
	if _, ok := other.st.FleetCacheGet(fkey); !ok {
		t.Fatal("drain did not pre-warm the successor's cache")
	}

	// The node is gone; the survivor answers byte-identically from the
	// pushed copy — no BSP run.
	owner.srv.Close()
	other.tab.SetLive(owner.tab.Self(), false)
	code, raw, _ = rawPost(t, other.url+"/v1/diameter", query, nil)
	if code != http.StatusOK {
		t.Fatalf("survivor query: status %d: %s", code, raw)
	}
	if !bytes.Equal(raw, warm) {
		t.Errorf("survivor answer diverged from pre-drain answer:\n pre  %s\n post %s", warm, raw)
	}
	if c := other.st.Stats().Counters.Computations; c != 0 {
		t.Errorf("survivor computations = %d, want 0 (served from pre-warmed cache)", c)
	}
}

// TestReplicaLocalServing: with replication factor k=2, the owner's
// computed result is pushed to the second preference member, and that
// replica then serves the query from its own copy — byte-identical to
// the owner's answer, no forward, no recompute. Proven by killing the
// owner's listener while the replica still believes it live: a forward
// would fail, so a 200 can only be the replica-local path.
func TestReplicaLocalServing(t *testing.T) {
	ds := newQueryFleet(t, 3, true, fleetTestOptions{Replicas: 2})
	ingestEverywhere(t, ds, "mesh:14", 5, "rep")
	ownerMember, _ := ds[0].tab.Owner("rep")
	owner := ds[ownerMember.Rank]
	query := map[string]any{"graph": "rep", "seed": 11}

	if code, raw, _ := rawPost(t, owner.url+"/v1/diameter", query, nil); code != http.StatusOK {
		t.Fatalf("prime: status %d: %s", code, raw)
	}
	_, warm, _ := rawPost(t, owner.url+"/v1/diameter", query, nil)

	fkey, ok := owner.st.FleetKeyFor("rep", "diameter", store.Params{Seed: 11})
	if !ok {
		t.Fatal("dataset-backed graph has no fleet key")
	}

	// The k=2 push lands on the cache key's preference chain; wait for it
	// to arrive at a non-owner member (the replica under test).
	var replica *fleetDaemon
	deadline := time.Now().Add(5 * time.Second)
	for replica == nil {
		for _, d := range ds {
			if d == owner {
				continue
			}
			if _, ok := d.st.FleetCacheGet(fkey); ok {
				replica = d
				break
			}
		}
		if replica == nil {
			if time.Now().After(deadline) {
				t.Fatal("replica push never arrived")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Kill the owner but leave it live in the replica's view: if the
	// replica tried to forward, this query would fail.
	owner.srv.Close()
	code, raw, _ := rawPost(t, replica.url+"/v1/diameter", query, nil)
	if code != http.StatusOK {
		t.Fatalf("replica-local query: status %d: %s", code, raw)
	}
	if !bytes.Equal(raw, warm) {
		t.Errorf("replica answer diverged from owner's:\n owner   %s\n replica %s", warm, raw)
	}
	if c := replica.st.Stats().Counters.Computations; c != 0 {
		t.Errorf("replica computations = %d, want 0", c)
	}

	// Members outside the key's top-k preference chain hold no copy —
	// the push never leaks past the replica set.
	inTopK := map[int]bool{}
	for _, m := range replica.tab.Replicas(fkey, 2) {
		inTopK[m.Rank] = true
	}
	for _, d := range ds {
		if d == owner || inTopK[d.tab.Self()] {
			continue
		}
		if _, ok := d.st.FleetCacheGet(fkey); ok {
			t.Errorf("k=2 push leaked to rank %d, outside the replica set", d.tab.Self())
		}
	}
}
