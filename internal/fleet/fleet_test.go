package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestTable(t *testing.T, urls []string, self int) *Table {
	t.Helper()
	tab, err := NewTable(urls, self, TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestNormalizePeers(t *testing.T) {
	got, err := NormalizePeers([]string{" http://a:8080/ ", "http://b:8080"})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != "http://a:8080" || got[1] != "http://b:8080" {
		t.Fatalf("normalize: %v", got)
	}
	for _, bad := range [][]string{
		{},
		{""},
		{"http://a:8080", "   "},
		{"a:8080"},                // no scheme
		{"ftp://a:8080"},          // wrong scheme
		{"http://"},               // no host
		{"http://a", "http://a/"}, // duplicate after normalization
	} {
		if _, err := NormalizePeers(bad); err == nil {
			t.Errorf("NormalizePeers(%v): want error", bad)
		}
	}
}

func TestValidateDaemonFlags(t *testing.T) {
	peers := []string{"http://a:8080", "http://b:8080"}
	if _, err := ValidateDaemonFlags(peers, 1, "http://a:8080"); err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	if _, err := ValidateDaemonFlags(peers, 2, ""); err == nil {
		t.Error("worker-id beyond peers: want error")
	}
	if _, err := ValidateDaemonFlags(peers, -1, ""); err == nil {
		t.Error("negative worker-id: want error")
	}
	// A daemon must not adopt snapshots from itself: -blob-url equal to
	// its own -peers entry (even spelled with a trailing slash) is a
	// boot-time error now, not a first-query hang.
	if _, err := ValidateDaemonFlags(peers, 0, "http://a:8080/"); err == nil {
		t.Error("blob-url == own peer entry: want error")
	}
}

// TestPlacementAgreement: every node — members and a front door outside
// the fleet — computes the identical preference chain for a key, with no
// coordination. That agreement is the whole routing design.
func TestPlacementAgreement(t *testing.T) {
	urls := []string{"http://a:1", "http://b:1", "http://c:1"}
	tables := []*Table{
		newTestTable(t, urls, 0),
		newTestTable(t, urls, 1),
		newTestTable(t, urls, 2),
		newTestTable(t, urls, -1), // the lb
	}
	for _, key := range []string{"usa-road", "twitter", "", "a|b|weird key"} {
		want := tables[0].Preference(key)
		for i, tab := range tables[1:] {
			got := tab.Preference(key)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("table %d disagrees on %q: %v vs %v", i+1, key, got, want)
				}
			}
		}
	}
}

// TestOwnerFailover: when the owner goes down the key deterministically
// fails over to the next live member of its preference chain, and comes
// home when the owner recovers.
func TestOwnerFailover(t *testing.T) {
	urls := []string{"http://a:1", "http://b:1", "http://c:1"}
	tab := newTestTable(t, urls, -1)
	for r := 0; r < 3; r++ {
		tab.SetLive(r, true)
	}
	key := "dataset-x"
	pref := tab.Preference(key)
	owner, ok := tab.Owner(key)
	if !ok || owner != pref[0] {
		t.Fatalf("owner %v, want head of preference %v", owner, pref)
	}
	tab.SetLive(pref[0].Rank, false)
	next, ok := tab.Owner(key)
	if !ok || next != pref[1] {
		t.Fatalf("failover owner %v, want %v", next, pref[1])
	}
	tab.SetLive(pref[0].Rank, true)
	back, ok := tab.Owner(key)
	if !ok || back != pref[0] {
		t.Fatalf("recovered owner %v, want %v", back, pref[0])
	}
	tab.SetLive(0, false)
	tab.SetLive(1, false)
	tab.SetLive(2, false)
	if _, ok := tab.Owner(key); ok {
		t.Fatal("all members down: want no owner")
	}
}

// TestPlacementDistribution: rendezvous hashing should spread keys over
// the members rather than pile onto one. The bound is loose — this
// guards against a broken hash (everything on one node), not imbalance.
func TestPlacementDistribution(t *testing.T) {
	urls := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	tab := newTestTable(t, urls, -1)
	for r := range urls {
		tab.SetLive(r, true)
	}
	counts := make([]int, len(urls))
	const n = 400
	for i := 0; i < n; i++ {
		owner, ok := tab.Owner(fmt.Sprintf("dataset-%d", i))
		if !ok {
			t.Fatal("no owner")
		}
		counts[owner.Rank]++
	}
	for r, c := range counts {
		if c < n/len(urls)/4 {
			t.Errorf("member %d owns %d of %d keys — distribution collapsed: %v", r, c, n, counts)
		}
	}
}

func TestSelfStaysLive(t *testing.T) {
	tab := newTestTable(t, []string{"http://a:1", "http://b:1"}, 0)
	tab.SetLive(0, false) // a node never marks itself dead
	if !tab.Live(0) {
		t.Fatal("self must stay live in its own view")
	}
	if tab.Live(1) {
		t.Fatal("peers start dead until probed")
	}
}

func TestProbeOnce(t *testing.T) {
	ready := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			t.Errorf("probe hit %s, want /readyz", r.URL.Path)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ready.Close()
	unready := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer unready.Close()

	tab := newTestTable(t, []string{ready.URL, unready.URL, "http://127.0.0.1:1"}, -1)
	tab.ProbeOnce(context.Background())
	if !tab.Live(0) {
		t.Error("2xx /readyz member must be live")
	}
	if tab.Live(1) {
		t.Error("503 /readyz member must be down")
	}
	if tab.Live(2) {
		t.Error("unreachable member must be down")
	}
	if tab.LiveCount() != 1 {
		t.Errorf("LiveCount = %d, want 1", tab.LiveCount())
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		method, path string
		want         Decision
	}{
		{"POST", "/v1/decompose", Decision{Class: RouteDataset, BodyField: "graph"}},
		{"POST", "/v1/diameter", Decision{Class: RouteDataset, BodyField: "graph"}},
		{"POST", "/v2/jobs", Decision{Class: RouteDataset, BodyField: "graph"}},
		{"POST", "/v1/graphs", Decision{Class: RouteDataset, BodyField: "name"}},
		{"GET", "/v1/graphs", Decision{Class: RouteAny}},
		{"GET", "/v2/jobs", Decision{Class: RouteAny}},
		{"GET", "/v1/graphs/usa", Decision{Class: RouteDataset, Dataset: "usa"}},
		{"DELETE", "/v1/graphs/usa%20road", Decision{Class: RouteDataset, Dataset: "usa road"}},
		{"GET", "/v2/jobs/job-r1-000002", Decision{Class: RouteJob, JobID: "job-r1-000002"}},
		{"GET", "/v2/jobs/job-r1-000002/events", Decision{Class: RouteJob, JobID: "job-r1-000002"}},
		{"DELETE", "/v2/jobs/job-000009", Decision{Class: RouteJob, JobID: "job-000009"}},
		{"GET", "/v1/stats", Decision{Class: RouteLocal}},
		{"POST", "/v2/datasets", Decision{Class: RouteLocal}},
		{"GET", "/v2/datasets/usa", Decision{Class: RouteLocal}},
		{"POST", "/v2/datasets/usa/load", Decision{Class: RouteLocal}},
		{"POST", "/v2/datasets/usa/append", Decision{Class: RouteDataset, Dataset: "usa"}},
		{"POST", "/v2/datasets/usa/compact", Decision{Class: RouteDataset, Dataset: "usa"}},
		{"POST", "/v2/datasets/usa%20road/append", Decision{Class: RouteDataset, Dataset: "usa road"}},
		{"GET", "/v2/datasets/usa/append", Decision{Class: RouteLocal}},
		{"GET", "/v2/cache/abc", Decision{Class: RouteLocal}},
		{"GET", "/v2/blobs", Decision{Class: RouteLocal}},
		{"GET", "/healthz", Decision{Class: RouteLocal}},
		{"GET", "/readyz", Decision{Class: RouteLocal}},
		{"GET", "/v2/fleet", Decision{Class: RouteLocal}},
	}
	for _, c := range cases {
		if got := Classify(c.method, c.path); got != c.want {
			t.Errorf("Classify(%s %s) = %+v, want %+v", c.method, c.path, got, c.want)
		}
	}
}

func TestJobHomeRank(t *testing.T) {
	if rank, ok := JobHomeRank("job-r2-000017"); !ok || rank != 2 {
		t.Errorf("job-r2-000017: rank=%d ok=%v", rank, ok)
	}
	for _, id := range []string{"job-000017", "job-r-000017", "job-rX-1", "job-r-1-", "nonsense", "job-r2"} {
		if _, ok := JobHomeRank(id); ok {
			t.Errorf("JobHomeRank(%q): want ok=false", id)
		}
	}
}

func TestPeekBodyField(t *testing.T) {
	body := `{"op":"diameter","graph":"usa","tau":4}`
	r := httptest.NewRequest("POST", "/v2/jobs", strings.NewReader(body))
	name, err := PeekBodyField(r, "graph")
	if err != nil || name != "usa" {
		t.Fatalf("peek: name=%q err=%v", name, err)
	}
	// The body must be fully reinstated for the handler or the proxy.
	got, _ := io.ReadAll(r.Body)
	if string(got) != body {
		t.Fatalf("body after peek: %q", got)
	}
	if r.ContentLength != int64(len(body)) {
		t.Fatalf("ContentLength after peek: %d", r.ContentLength)
	}

	r = httptest.NewRequest("POST", "/v2/jobs", strings.NewReader("not json"))
	if name, err := PeekBodyField(r, "graph"); err != nil || name != "" {
		t.Fatalf("non-JSON body: name=%q err=%v (want empty, nil)", name, err)
	}
	r = httptest.NewRequest("POST", "/v2/jobs", strings.NewReader(`{"graph":42}`))
	if name, _ := PeekBodyField(r, "graph"); name != "" {
		t.Fatalf("non-string field: %q", name)
	}
}

func TestQuotas(t *testing.T) {
	q := NewQuotas(1, 2) // 1 token/s, burst 2
	now := time.Unix(1000, 0)
	q.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		if ok, _ := q.Allow("alice"); !ok {
			t.Fatalf("burst request %d rejected", i)
		}
	}
	ok, retry := q.Allow("alice")
	if ok {
		t.Fatal("third instant request must be rejected")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retryAfter = %v, want (0, 1s]", retry)
	}
	// Another tenant is unaffected by alice's exhaustion.
	if ok, _ := q.Allow("bob"); !ok {
		t.Fatal("independent tenant rejected")
	}
	// After the refill interval alice proceeds again.
	now = now.Add(1100 * time.Millisecond)
	if ok, _ := q.Allow("alice"); !ok {
		t.Fatal("refilled tenant rejected")
	}
}

func TestQuotasPruneInvisible(t *testing.T) {
	q := NewQuotas(1000, 1) // refills instantly: every bucket prunable
	now := time.Unix(1000, 0)
	q.now = func() time.Time { return now }
	for i := 0; i < maxTenants+10; i++ {
		now = now.Add(time.Millisecond)
		if ok, _ := q.Allow(fmt.Sprintf("t%d", i)); !ok {
			t.Fatalf("tenant %d rejected", i)
		}
	}
	if len(q.buckets) > maxTenants {
		t.Fatalf("bucket map grew past the bound: %d", len(q.buckets))
	}
}

// TestCacheGetPut exercises the client side of the fleet cache against a
// fake peer: Get probes live peers in preference order and returns the
// first hit; Put pushes to the key's owner in the background.
func TestCacheGetPut(t *testing.T) {
	stored := map[string][]byte{}
	put := make(chan string, 1)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v2/cache/") {
			t.Errorf("peer hit %s", r.URL.Path)
		}
		k := strings.TrimPrefix(r.URL.Path, "/v2/cache/")
		switch r.Method {
		case http.MethodGet:
			if b, ok := stored[k]; ok {
				w.Write(b)
				return
			}
			w.WriteHeader(http.StatusNotFound)
		case http.MethodPut:
			b, _ := io.ReadAll(r.Body)
			stored[k] = b
			w.WriteHeader(http.StatusNoContent)
			put <- k
		}
	}))
	defer peer.Close()

	// Rank 0 is "self" (never probed — use an unroutable URL to prove it);
	// rank 1 is the fake peer, and the only live non-self member, so it
	// owns every key.
	tab := newTestTable(t, []string{"http://127.0.0.1:1", peer.URL}, 0)
	tab.SetLive(1, true)
	c := NewCache(tab, CacheOptions{Timeout: 2 * time.Second})
	defer c.Close()

	// Put only pushes when the key's owner is a peer (an owned key already
	// sits in the local LRU), so pick a key the peer owns.
	key := ""
	for i := 0; key == ""; i++ {
		k := fmt.Sprintf("sha%d|diameter|tau=0", i)
		if owner, ok := tab.Owner(k); ok && owner.Rank == 1 {
			key = k
		}
	}

	if _, ok := c.Get(context.Background(), key); ok {
		t.Fatal("empty fleet: want miss")
	}
	c.Put(key, []byte(`{"x":1}`))
	select {
	case <-put:
	case <-time.After(5 * time.Second):
		t.Fatal("background push never arrived")
	}
	body, ok := c.Get(context.Background(), key)
	if !ok || !bytes.Equal(body, []byte(`{"x":1}`)) {
		t.Fatalf("Get after Put: ok=%v body=%s", ok, body)
	}
}
