package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// --- Epoch-stamped placement views -----------------------------------

func TestSwapViewEpochRules(t *testing.T) {
	urls := []string{"http://a:1", "http://b:1", "http://c:1"}
	tab := newTestTable(t, urls, 1)
	if tab.Epoch() != 1 {
		t.Fatalf("boot epoch = %d, want 1", tab.Epoch())
	}

	// Stale and equal epochs are rejected; the identical current view is
	// an idempotent no-op.
	if err := tab.SwapView(View{Epoch: 1, Members: []string{"http://x:1", "http://b:1"}}); err == nil {
		t.Error("equal-epoch different-members swap must be rejected")
	}
	if err := tab.SwapView(tab.View()); err != nil {
		t.Errorf("re-posting the current view must be a no-op, got %v", err)
	}
	if err := tab.SwapView(View{Epoch: 0, Members: urls}); err == nil {
		t.Error("epoch 0 must be rejected")
	}

	// A valid newer view swaps in; ranks are re-derived from the new list.
	grown := []string{"http://d:1", "http://a:1", "http://b:1", "http://c:1"}
	if err := tab.SwapView(View{Epoch: 5, Members: grown}); err != nil {
		t.Fatalf("grow swap: %v", err)
	}
	if tab.Epoch() != 5 {
		t.Errorf("epoch = %d, want 5", tab.Epoch())
	}
	if tab.Self() != 2 {
		t.Errorf("self rank = %d, want 2 (b moved to index 2)", tab.Self())
	}
	if len(tab.Members()) != 4 {
		t.Errorf("members = %d, want 4", len(tab.Members()))
	}
	if !tab.Live(tab.Self()) {
		t.Error("self must stay live across a swap")
	}
}

func TestSwapViewRefusesToOrphanSelf(t *testing.T) {
	urls := []string{"http://a:1", "http://b:1"}
	tab := newTestTable(t, urls, 0) // identity: http://a:1
	err := tab.SwapView(View{Epoch: 2, Members: []string{"http://b:1", "http://c:1"}})
	if err == nil {
		t.Fatal("a view dropping this node's own entry must be rejected")
	}
	if !strings.Contains(err.Error(), "orphan") {
		t.Errorf("error should name the orphan condition, got: %v", err)
	}
	// The old view survives intact.
	if tab.Epoch() != 1 || len(tab.Members()) != 2 || tab.Self() != 0 {
		t.Errorf("rejected swap must keep the old view (epoch=%d self=%d members=%d)",
			tab.Epoch(), tab.Self(), len(tab.Members()))
	}
}

func TestSwapViewCarriesHealthByURL(t *testing.T) {
	urls := []string{"http://a:1", "http://b:1", "http://c:1"}
	tab := newTestTable(t, urls, -1)
	tab.SetLive(0, true)
	tab.SetLive(2, true)
	// Reorder + drop b + add d: a and c keep their health, d starts dead.
	if err := tab.SwapView(View{Epoch: 2, Members: []string{"http://c:1", "http://d:1", "http://a:1"}}); err != nil {
		t.Fatal(err)
	}
	if !tab.Live(0) { // c
		t.Error("c was live before the swap and must stay live")
	}
	if tab.Live(1) { // d
		t.Error("new member d must start dead")
	}
	if !tab.Live(2) { // a
		t.Error("a was live before the swap and must stay live")
	}
}

func TestAdoptIfNewer(t *testing.T) {
	urls := []string{"http://a:1", "http://b:1"}
	tab := newTestTable(t, urls, 0)
	if tab.AdoptIfNewer(View{Epoch: 1, Members: urls}) {
		t.Error("same epoch must not be adopted")
	}
	// A newer-but-orphaning view is refused without error (anti-entropy
	// must not crash), old view kept.
	if tab.AdoptIfNewer(View{Epoch: 9, Members: []string{"http://b:1"}}) {
		t.Error("orphaning view must not be adopted")
	}
	if tab.Epoch() != 1 {
		t.Errorf("epoch = %d, want 1 after refused adoption", tab.Epoch())
	}
	if !tab.AdoptIfNewer(View{Epoch: 2, Members: []string{"http://a:1", "http://b:1", "http://c:1"}}) {
		t.Error("valid newer view must be adopted")
	}
	if tab.Epoch() != 2 {
		t.Errorf("epoch = %d, want 2", tab.Epoch())
	}
}

func TestEpochHeaderRoundTrip(t *testing.T) {
	h := http.Header{}
	StampEpoch(h, 42)
	e, ok := RequestEpoch(h)
	if !ok || e != 42 {
		t.Fatalf("RequestEpoch = (%d,%v), want (42,true)", e, ok)
	}
	if _, ok := RequestEpoch(http.Header{}); ok {
		t.Error("absent header must report ok=false")
	}
	h.Set(EpochHeader, "not-a-number")
	if _, ok := RequestEpoch(h); ok {
		t.Error("malformed header must report ok=false")
	}
}

func TestWriteEpochMismatchRoundTrip(t *testing.T) {
	v := View{Epoch: 7, Members: []string{"http://a:1", "http://b:1"}}
	rec := httptest.NewRecorder()
	WriteEpochMismatch(rec, "3", v)
	resp := rec.Result()
	if !IsEpochMismatch(resp) {
		t.Fatalf("response not classified as epoch mismatch (status %d, class %q)",
			resp.StatusCode, resp.Header.Get(ErrClassHeader))
	}
	got, ok := DecodeViewError(resp.Body)
	if !ok || !got.Equal(v) {
		t.Fatalf("DecodeViewError = (%+v,%v), want original view", got, ok)
	}
}

// --- Hysteresis ------------------------------------------------------

// flappingPeer alternates /readyz between ready and unready per probe.
type flappingPeer struct {
	n atomic.Int64
}

func (f *flappingPeer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.n.Add(1)%2 == 1 {
		w.WriteHeader(http.StatusOK)
	} else {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
}

// TestHysteresisFlappingPeer: a peer whose readyz alternates up/down
// every probe must not thrash placement — after its first success it
// stays in the live set (each single failure is within the hysteresis
// threshold), so ownership never moves. Probes are driven manually
// (Interval 0), which is the fleet tests' fake clock.
func TestHysteresisFlappingPeer(t *testing.T) {
	peer := httptest.NewServer(&flappingPeer{})
	defer peer.Close()
	tab, err := NewTable([]string{peer.URL, "http://127.0.0.1:1"}, -1,
		TableOptions{FlipThreshold: 2, ProbeTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	key := "dataset-x"
	tab.SetLive(0, true) // reach steady state: peer live
	wantOwner, _ := tab.Owner(key)

	flips := 0
	wasLive := true
	for i := 0; i < 8; i++ {
		tab.ProbeOnce(context.Background())
		if live := tab.Live(0); live != wasLive {
			flips++
			wasLive = live
		}
		if owner, _ := tab.Owner(key); owner != wantOwner {
			t.Fatalf("probe %d: owner moved to %+v — flapping peer thrashed placement", i, owner)
		}
	}
	if flips != 0 {
		t.Errorf("flapping peer flipped liveness %d times, want 0 (hysteresis)", flips)
	}
}

// TestHysteresisDownAfterThreshold: a live member goes down only after
// FlipThreshold consecutive failures, and a single success revives it.
func TestHysteresisDownAfterThreshold(t *testing.T) {
	var code atomic.Int64
	code.Store(http.StatusOK)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(int(code.Load()))
	}))
	defer peer.Close()
	tab, err := NewTable([]string{peer.URL, "http://b:1"}, 1,
		TableOptions{FlipThreshold: 3, ProbeTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	tab.SetLive(0, true)

	code.Store(http.StatusServiceUnavailable)
	for i := 1; i <= 2; i++ {
		tab.ProbeOnce(context.Background())
		if !tab.Live(0) {
			t.Fatalf("member went down after %d failures, threshold is 3", i)
		}
	}
	tab.ProbeOnce(context.Background())
	if tab.Live(0) {
		t.Fatal("member must be down after 3 consecutive failures")
	}
	// Recovery is single-success.
	code.Store(http.StatusOK)
	tab.ProbeOnce(context.Background())
	if !tab.Live(0) {
		t.Fatal("one successful probe must revive a dead member")
	}
}

// TestProbeAdoptsAdvertisedView: the prober is the anti-entropy channel —
// a peer whose readyz body advertises a newer placement view gets that
// view adopted after the sweep.
func TestProbeAdoptsAdvertisedView(t *testing.T) {
	var adv atomic.Pointer[View]
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp := map[string]any{"status": "ready"}
		if v := adv.Load(); v != nil {
			resp["view"] = v
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
	}))
	defer peer.Close()

	tab, err := NewTable([]string{peer.URL, "http://b:1"}, -1, TableOptions{ProbeTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	tab.ProbeOnce(context.Background())
	if tab.Epoch() != 1 {
		t.Fatalf("no advertisement: epoch = %d, want 1", tab.Epoch())
	}
	adv.Store(&View{Epoch: 4, Members: []string{peer.URL, "http://b:1", "http://c:1"}})
	tab.ProbeOnce(context.Background())
	if tab.Epoch() != 4 {
		t.Errorf("epoch = %d, want 4 (adopted from readyz advertisement)", tab.Epoch())
	}
	if len(tab.Members()) != 3 {
		t.Errorf("members = %d, want 3", len(tab.Members()))
	}
}

// --- Cache client classification (4xx skip vs 5xx/net retry) ---------

// TestCacheRetriesTransientPeer: a peer answering 500 once then 200 is
// retried in place and still serves the hit; the probe chain never
// advances past it.
func TestCacheRetriesTransientPeer(t *testing.T) {
	want := []byte(`{"v":1}`)
	var calls atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Write(want)
	}))
	defer peer.Close()

	tab := newTestTable(t, []string{peer.URL, "http://b:1"}, 1)
	tab.SetLive(0, true)
	c := NewCache(tab, CacheOptions{Timeout: time.Second})
	defer c.Close()
	got, ok := c.Get(context.Background(), "sha|diameter|x")
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("Get = (%q,%v), want transient-retried hit", got, ok)
	}
	if calls.Load() != 2 {
		t.Errorf("peer saw %d calls, want 2 (one failure + one retry)", calls.Load())
	}
}

// TestCacheSkips4xxPeer: a definitive 404 advances the chain immediately
// — exactly one request to the missing peer, then the next preference
// member serves the hit.
func TestCacheSkips4xxPeer(t *testing.T) {
	want := []byte(`{"v":2}`)
	var missCalls, hitCalls atomic.Int64
	miss := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		missCalls.Add(1)
		http.Error(w, "no", http.StatusNotFound)
	}))
	defer miss.Close()
	hit := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hitCalls.Add(1)
		w.Write(want)
	}))
	defer hit.Close()

	// Find a key whose preference order puts the missing peer first, so
	// the test exercises skip-then-next-member.
	tab := newTestTable(t, []string{miss.URL, hit.URL}, -1)
	tab.SetLive(0, true)
	tab.SetLive(1, true)
	var key string
	for i := 0; ; i++ {
		key = fmt.Sprintf("sha|diameter|k=%d", i)
		if tab.Preference(key)[0].URL == miss.URL {
			break
		}
	}
	c := NewCache(tab, CacheOptions{Timeout: time.Second})
	defer c.Close()
	got, ok := c.Get(context.Background(), key)
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("Get = (%q,%v), want hit from second preference member", got, ok)
	}
	if missCalls.Load() != 1 {
		t.Errorf("4xx peer saw %d calls, want exactly 1 (no retry on definitive miss)", missCalls.Load())
	}
	if hitCalls.Load() != 1 {
		t.Errorf("hit peer saw %d calls, want 1", hitCalls.Load())
	}
}

// TestCachePutReplicates: with replication factor k, a Put lands on the
// key's top-k preference members (self excluded from pushes).
func TestCachePutReplicates(t *testing.T) {
	var got [2]atomic.Int64
	mk := func(i int) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPut {
				got[i].Add(1)
			}
			w.WriteHeader(http.StatusNoContent)
		}))
	}
	p0, p1 := mk(0), mk(1)
	defer p0.Close()
	defer p1.Close()

	tab := newTestTable(t, []string{p0.URL, p1.URL, "http://c:1"}, 2)
	tab.SetLive(0, true)
	tab.SetLive(1, true)
	c := NewCache(tab, CacheOptions{Timeout: time.Second, Replicas: 3})
	c.Put("sha|diameter|r", []byte(`{"v":3}`))
	c.Close() // waits for background pushes
	if got[0].Load() != 1 || got[1].Load() != 1 {
		t.Errorf("replica pushes = (%d,%d), want (1,1)", got[0].Load(), got[1].Load())
	}
}

// --- Chaos harness ---------------------------------------------------

// TestChaosDeterministic: the fault schedule is a pure function of
// (seed, key, attempt) — two transports with the same seed make
// identical decisions, and a different seed diverges.
func TestChaosDeterministic(t *testing.T) {
	schedule := func(seed uint64) []bool {
		var out []bool
		for attempt := uint64(0); attempt < 64; attempt++ {
			out = append(out, chaosRoll(seed, "GET host/v2/cache/k", attempt, 0) < 0.3)
		}
		return out
	}
	a, b := schedule(42), schedule(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at attempt %d", i)
		}
	}
	c := schedule(43)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical schedules")
	}
}

// TestCacheUnderChaos: with drops, 500s, and mid-body cuts injected, the
// cache client never hangs and never returns wrong bytes — every Get is
// either a byte-identical hit or a clean miss.
func TestCacheUnderChaos(t *testing.T) {
	want := []byte(`{"result":"exact-bytes","n":12345}`)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(want)
	}))
	defer peer.Close()

	for seed := uint64(1); seed <= 20; seed++ {
		tab := newTestTable(t, []string{peer.URL, "http://b:1"}, 1)
		tab.SetLive(0, true)
		chaos := &ChaosTransport{Seed: seed, DropProb: 0.25, FailProb: 0.25, CutProb: 0.25}
		c := NewCache(tab, CacheOptions{
			Client:  &http.Client{Transport: chaos, Timeout: 2 * time.Second},
			Timeout: 2 * time.Second,
		})
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		for i := 0; i < 10; i++ {
			got, ok := c.Get(ctx, fmt.Sprintf("sha|diameter|seed=%d|i=%d", seed, i))
			if ok && !bytes.Equal(got, want) {
				t.Fatalf("seed %d: chaos produced WRONG bytes: %q", seed, got)
			}
		}
		cancel()
		c.Close()
	}
}

// roundTripFunc serves requests in process, with no socket.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestProberUnderChaos: seeded faults on the probe path flip liveness in
// a bounded way — the hysteresis keeps a healthy-but-chaotic peer from
// oscillating every sweep, and the sweep itself never hangs. The peer is
// served in process under a fixed host: the fault schedule is keyed by
// host, so only then does seed 7 replay the same schedule on every run.
func TestProberUnderChaos(t *testing.T) {
	healthy := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		return &http.Response{
			StatusCode: http.StatusOK,
			Header:     http.Header{},
			Body:       io.NopCloser(strings.NewReader("")),
			Request:    r,
		}, nil
	})
	chaos := &ChaosTransport{Base: healthy, Seed: 7, DropProb: 0.3}
	tab, err := NewTable([]string{"http://a:1", "http://b:1"}, 1, TableOptions{
		FlipThreshold: 2,
		ProbeTimeout:  time.Second,
		Client:        &http.Client{Transport: chaos, Timeout: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	var flips []int // sweeps after which rank 0's liveness changed
	wasLive := false
	for i := 0; i < 24; i++ {
		tab.ProbeOnce(context.Background())
		if live := tab.Live(0); live != wasLive {
			flips = append(flips, i)
			wasLive = live
		}
	}
	// With p=0.3 drops and threshold 2, a down-flip needs two consecutive
	// drops (p≈0.09 per sweep). Seed 7 drops 5 of the 24 probes, never two
	// in a row: the peer comes up on the first sweep and hysteresis keeps
	// it up through every drop.
	if got := chaos.Faults(); got != 5 {
		t.Errorf("seed 7 injected %d drops in 24 probes, want 5", got)
	}
	if want := []int{0}; !slices.Equal(flips, want) {
		t.Errorf("seed 7 flipped liveness after sweeps %v, want %v", flips, want)
	}
}

// --- Proxy: failover, draining, epoch repair -------------------------

func member(t *testing.T, rank int, rawURL string) Member {
	t.Helper()
	if _, err := url.Parse(rawURL); err != nil {
		t.Fatal(err)
	}
	return Member{Rank: rank, URL: rawURL}
}

// TestForwardChainSkipsDraining: a draining first choice fails over to
// the next member; the client sees only the successful response.
func TestForwardChainSkipsDraining(t *testing.T) {
	draining := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteDraining(w, 1)
	}))
	defer draining.Close()
	want := `{"answer":42}`
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, want)
	}))
	defer healthy.Close()

	p := &Proxy{SelfRank: -1, RetryBase: time.Millisecond}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/diameter", strings.NewReader(`{"graph":"g"}`))
	p.ForwardChain(rec, req, []Member{
		member(t, 0, draining.URL),
		member(t, 1, healthy.URL),
	})
	if rec.Code != http.StatusOK || rec.Body.String() != want {
		t.Fatalf("ForwardChain = %d %q, want 200 %q", rec.Code, rec.Body.String(), want)
	}
}

// TestForwardChainExhaustedIs503: every candidate draining → the client
// gets a retryable 503 with Retry-After, not a 502.
func TestForwardChainExhaustedIs503(t *testing.T) {
	draining := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteDraining(w, 1)
	}))
	defer draining.Close()
	p := &Proxy{SelfRank: -1, RetryBase: time.Millisecond}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/diameter", strings.NewReader(`{"graph":"g"}`))
	p.ForwardChain(rec, req, []Member{member(t, 0, draining.URL)})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("exhausted failover must carry Retry-After")
	}
}

// TestForwardDeadBackendIs503: a connect failure to a member the table
// already marks dead is a transient placement change (503 + Retry-After),
// not a gateway fault (502).
func TestForwardDeadBackendIs503(t *testing.T) {
	tab := newTestTable(t, []string{"http://127.0.0.1:1", "http://b:1"}, 1)
	// rank 0 never marked live: the prober view says it is dead.
	p := &Proxy{Table: tab, SelfRank: 1, RetryBase: time.Millisecond}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/v1/graphs/g", nil)
	p.Forward(rec, req, tab.Members()[0])
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 for dead backend", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("dead-backend rejection must carry Retry-After")
	}
}

// TestForwardRepairsEpochMismatch: a receiver on a newer view rejects
// the hop with 409 + its view; the proxy adopts it and the retry (under
// the new epoch) succeeds. The client sees only the 200.
func TestForwardRepairsEpochMismatch(t *testing.T) {
	var peerURL string
	want := `{"repaired":true}`
	receiver := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if e, _ := RequestEpoch(r.Header); e != 6 {
			WriteEpochMismatch(w, r.Header.Get(EpochHeader),
				View{Epoch: 6, Members: []string{peerURL, "http://b:1"}})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, want)
	}))
	defer receiver.Close()
	peerURL = receiver.URL

	tab := newTestTable(t, []string{receiver.URL, "http://b:1"}, -1) // epoch 1
	p := &Proxy{Table: tab, SelfRank: -1, RetryBase: time.Millisecond}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/diameter", strings.NewReader(`{"graph":"g"}`))
	p.Forward(rec, req, tab.Members()[0])
	if rec.Code != http.StatusOK || rec.Body.String() != want {
		t.Fatalf("Forward = %d %q, want repaired 200 %q", rec.Code, rec.Body.String(), want)
	}
	if tab.Epoch() != 6 {
		t.Errorf("sender epoch = %d, want 6 (adopted from the 409)", tab.Epoch())
	}
}

// TestForwardChainUnderChaos: seeded drops and 500s across a two-member
// chain — every request either lands byte-identically on some member or
// fails with a classified retryable status; no hang, no corruption.
func TestForwardChainUnderChaos(t *testing.T) {
	want := `{"chaos":"survived"}`
	mk := func() *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, want)
		}))
	}
	s0, s1 := mk(), mk()
	defer s0.Close()
	defer s1.Close()

	for seed := uint64(1); seed <= 20; seed++ {
		p := &Proxy{
			SelfRank:  -1,
			RetryBase: time.Millisecond,
			Transport: &ChaosTransport{Seed: seed, DropProb: 0.3},
		}
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/diameter", strings.NewReader(`{"graph":"g"}`))
		p.ForwardChain(rec, req, []Member{member(t, 0, s0.URL), member(t, 1, s1.URL)})
		switch rec.Code {
		case http.StatusOK:
			if rec.Body.String() != want {
				t.Fatalf("seed %d: wrong bytes %q", seed, rec.Body.String())
			}
		case http.StatusServiceUnavailable, http.StatusBadGateway:
			// Exhausted under chaos: classified, never silent.
		default:
			t.Fatalf("seed %d: unexpected status %d", seed, rec.Code)
		}
	}
}

// TestHandleConfigPush: the endpoint body — valid swap 200 with the new
// view echoed; stale epoch 409 carrying the current view.
func TestHandleConfigPush(t *testing.T) {
	urls := []string{"http://a:1", "http://b:1"}
	tab := newTestTable(t, urls, 0)

	body, _ := json.Marshal(View{Epoch: 3, Members: []string{"http://a:1", "http://b:1", "http://c:1"}})
	rec := httptest.NewRecorder()
	HandleConfigPush(tab, rec, httptest.NewRequest(http.MethodPost, "/v2/fleet/config", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("valid push: status %d, body %s", rec.Code, rec.Body.String())
	}
	if tab.Epoch() != 3 {
		t.Fatalf("epoch = %d, want 3", tab.Epoch())
	}

	stale, _ := json.Marshal(View{Epoch: 2, Members: urls})
	rec = httptest.NewRecorder()
	HandleConfigPush(tab, rec, httptest.NewRequest(http.MethodPost, "/v2/fleet/config", bytes.NewReader(stale)))
	if rec.Code != http.StatusConflict {
		t.Fatalf("stale push: status %d, want 409", rec.Code)
	}
	if v, ok := DecodeViewError(rec.Body); !ok || v.Epoch != 3 {
		t.Errorf("409 body must carry the current view, got (%+v,%v)", v, ok)
	}
}
