package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"graphdiam/internal/store"
)

func newTestServer(t *testing.T) (*httptest.Server, *store.Store) {
	t.Helper()
	st := store.New(store.Config{MaxConcurrent: 4})
	ts := httptest.NewServer(New(st, Config{}))
	t.Cleanup(ts.Close)
	return ts, st
}

// doJSON posts body (marshalled) to url and decodes the response into out,
// returning the status code.
func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func addSpecGraph(t *testing.T, ts *httptest.Server, name, spec string, seed uint64) {
	t.Helper()
	var info store.GraphInfo
	code := doJSON(t, "POST", ts.URL+"/v1/graphs",
		map[string]any{"name": name, "spec": spec, "seed": seed}, &info)
	if code != http.StatusCreated {
		t.Fatalf("add graph: status %d", code)
	}
	if info.Name != name || info.NumNodes == 0 {
		t.Fatalf("add graph: info %+v", info)
	}
}

func TestEndToEnd(t *testing.T) {
	ts, _ := newTestServer(t)
	addSpecGraph(t, ts, "m", "mesh:16", 1)

	// Decompose.
	var dec DecomposeResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/decompose",
		map[string]any{"graph": "m", "tau": 16, "seed": 5}, &dec); code != http.StatusOK {
		t.Fatalf("decompose: status %d", code)
	}
	if dec.Cached || dec.NumClusters <= 0 || dec.Radius <= 0 {
		t.Fatalf("decompose: %+v", dec)
	}

	// Diameter, twice: the second must be served from the cache with an
	// identical result.
	var d1, d2 DiameterResponse
	body := map[string]any{"graph": "m", "tau": 16, "seed": 5, "workers": 2}
	if code := doJSON(t, "POST", ts.URL+"/v1/diameter", body, &d1); code != http.StatusOK {
		t.Fatalf("diameter: status %d", code)
	}
	if d1.Cached || d1.Estimate <= 0 {
		t.Fatalf("first diameter: %+v", d1)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/diameter", body, &d2); code != http.StatusOK {
		t.Fatalf("repeat diameter: status %d", code)
	}
	if !d2.Cached || d2.Estimate != d1.Estimate || d2.Metrics != d1.Metrics {
		t.Fatalf("repeat diameter not cached or differs: %+v vs %+v", d2, d1)
	}

	// Stats reflect the two computations (decompose + diameter) and one hit.
	var st store.Stats
	if code := doJSON(t, "GET", ts.URL+"/v1/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if st.Counters.Computations != 2 || st.Counters.Hits != 1 {
		t.Fatalf("stats counters %+v", st.Counters)
	}
	if st.TotalCost.Rounds <= 0 {
		t.Fatalf("stats missing BSP cost: %+v", st.TotalCost)
	}
	if len(st.Graphs) != 1 || st.Graphs[0].Name != "m" {
		t.Fatalf("stats graphs %+v", st.Graphs)
	}
}

// TestConcurrentRequestsShareOneRun is the acceptance-criterion test at the
// HTTP layer: concurrent identical queries cause exactly one BSP run.
func TestConcurrentRequestsShareOneRun(t *testing.T) {
	ts, st := newTestServer(t)
	addSpecGraph(t, ts, "m", "mesh:16", 1)

	const N = 8
	var (
		start = make(chan struct{})
		wg    sync.WaitGroup
		resps [N]DiameterResponse
	)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			code := doJSON(t, "POST", ts.URL+"/v1/diameter",
				map[string]any{"graph": "m", "tau": 16, "seed": 9, "workers": 2}, &resps[i])
			if code != http.StatusOK {
				t.Errorf("request %d: status %d", i, code)
			}
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 1; i < N; i++ {
		if resps[i].Estimate != resps[0].Estimate {
			t.Fatalf("request %d returned a different estimate", i)
		}
	}
	if c := st.Stats().Counters.Computations; c != 1 {
		t.Fatalf("want exactly 1 underlying BSP run, got %d", c)
	}
}

func TestUploadEdgeList(t *testing.T) {
	ts, _ := newTestServer(t)
	// A 4-path: diameter 3.
	data := "0 1 1\n1 2 1\n2 3 1\n"
	var info store.GraphInfo
	code := doJSON(t, "POST", ts.URL+"/v1/graphs",
		map[string]any{"name": "p", "format": "edgelist", "data": data}, &info)
	if code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	if info.NumNodes != 4 || info.NumEdges != 3 {
		t.Fatalf("upload info %+v", info)
	}
	var d DiameterResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/diameter",
		map[string]any{"graph": "p", "tau": 4}, &d); code != http.StatusOK {
		t.Fatalf("diameter: status %d", code)
	}
	// CL-DIAM is conservative: estimate ≥ true diameter (3).
	if d.Estimate < 3 {
		t.Fatalf("estimate %v below true diameter 3", d.Estimate)
	}
}

func TestGraphLifecycle(t *testing.T) {
	ts, _ := newTestServer(t)
	addSpecGraph(t, ts, "a", "path:64", 1)
	addSpecGraph(t, ts, "b", "cycle:64", 1)

	var listing struct {
		Graphs []store.GraphInfo `json:"graphs"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/graphs", nil, &listing); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if len(listing.Graphs) != 2 {
		t.Fatalf("list %+v", listing)
	}

	var info store.GraphInfo
	if code := doJSON(t, "GET", ts.URL+"/v1/graphs/a", nil, &info); code != http.StatusOK || info.NumNodes != 64 {
		t.Fatalf("get: status %d info %+v", code, info)
	}

	if code := doJSON(t, "DELETE", ts.URL+"/v1/graphs/a", nil, nil); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/graphs/a", nil, nil); code != http.StatusNotFound {
		t.Fatalf("get after delete: status %d", code)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/v1/graphs/a", nil, nil); code != http.StatusNotFound {
		t.Fatalf("double delete: status %d", code)
	}
}

func TestErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	addSpecGraph(t, ts, "m", "mesh:8", 1)

	cases := []struct {
		name, method, path string
		body               string
		want               int
	}{
		{"missing name", "POST", "/v1/graphs", `{"spec":"mesh:8"}`, http.StatusBadRequest},
		{"spec and data", "POST", "/v1/graphs", `{"name":"x","spec":"mesh:8","data":"0 1 1"}`, http.StatusBadRequest},
		{"neither spec nor data", "POST", "/v1/graphs", `{"name":"x"}`, http.StatusBadRequest},
		{"bad spec", "POST", "/v1/graphs", `{"name":"x","spec":"nope:1"}`, http.StatusBadRequest},
		{"bad format", "POST", "/v1/graphs", `{"name":"x","format":"xml","data":"hi"}`, http.StatusBadRequest},
		{"malformed json", "POST", "/v1/diameter", `{"graph":`, http.StatusBadRequest},
		{"unknown field", "POST", "/v1/diameter", `{"graph":"m","bogus":1}`, http.StatusBadRequest},
		{"removed sweeps field", "POST", "/v1/diameter", `{"graph":"m","sweeps":16}`, http.StatusBadRequest},
		{"trailing data", "POST", "/v1/diameter", `{"graph":"m"}{"x":1}`, http.StatusBadRequest},
		{"unregistered graph", "POST", "/v1/diameter", `{"graph":"ghost"}`, http.StatusNotFound},
		{"conflicting params", "POST", "/v1/decompose", `{"graph":"m","cluster2":true,"weightOblivious":true}`, http.StatusBadRequest},
		{"unknown route", "GET", "/v1/nope", ``, http.StatusNotFound},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
}

func TestRequestBodyLimit(t *testing.T) {
	st := store.New(store.Config{})
	ts := httptest.NewServer(New(st, Config{MaxRequestBytes: 128}))
	defer ts.Close()
	big := fmt.Sprintf(`{"name":"x","format":"edgelist","data":%q}`,
		strings.Repeat("0 1 1\n", 100))
	resp, err := http.Post(ts.URL+"/v1/graphs", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d", resp.StatusCode)
	}
}
