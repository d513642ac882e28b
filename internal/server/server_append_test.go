package server

import (
	"bytes"
	"compress/gzip"
	"net/http"
	"testing"

	"graphdiam/internal/dataset"
	"graphdiam/internal/gen"
	"graphdiam/internal/gio"
	"graphdiam/internal/store"
)

// postDelta streams a text delta body to the append endpoint.
func postDelta(t *testing.T, url, name, body string, out any) int {
	t.Helper()
	return uploadBody(t, url+"/v2/datasets/"+name+"/append", []byte(body), out)
}

// decomposeFields strips cache provenance and wall time from a
// DecomposeResponse for exact comparison.
func decomposeFields(r DecomposeResponse) store.DecomposeResult {
	res := r.DecomposeResult
	res.WallMillis = 0
	return res
}

// TestStreamingAppendEndToEnd is the server-tier acceptance scenario:
// ingest, decompose, stream a delta, and observe (a) the head move in
// the catalog record, (b) the maintenance report, (c) the post-append
// decomposition byte-identical to a cold full recompute of the
// materialized graph on an untouched server — never the stale result.
func TestStreamingAppendEndToEnd(t *testing.T) {
	ts, _, _ := newDatasetServer(t, t.TempDir())
	g, err := gen.FromSpec("mesh:12", 3)
	if err != nil {
		t.Fatal(err)
	}
	var el bytes.Buffer
	if err := gio.WriteEdgeList(&el, g); err != nil {
		t.Fatal(err)
	}
	var base dataset.Info
	if code := uploadBody(t, ts.URL+"/v2/datasets?name=dyn", el.Bytes(), &base); code != http.StatusCreated {
		t.Fatalf("ingest status %d", code)
	}

	query := map[string]any{"graph": "dyn", "seed": 5}
	var before DecomposeResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/decompose", query, &before); code != http.StatusOK {
		t.Fatalf("pre-append decompose status %d", code)
	}

	// Stream a mixed delta: one removal of a real mesh edge, one
	// long-range insertion.
	var ar AppendResponse
	if code := postDelta(t, ts.URL, "dyn", "- 0 1\n+ 0 143 0.5\n", &ar); code != http.StatusOK {
		t.Fatalf("append status %d", code)
	}
	if !ar.Applied || ar.Inserted != 1 || ar.Removed != 1 {
		t.Fatalf("append response %+v", ar)
	}
	if ar.PrevSHA != base.SHA256 || ar.HeadSHA == base.SHA256 {
		t.Fatalf("head did not move off the base: %+v", ar)
	}
	if ar.ChainLength != 1 {
		t.Fatalf("chain length %d, want 1", ar.ChainLength)
	}
	if ar.Maintenance == nil || ar.Maintenance.Invalidated == 0 || ar.Maintenance.Recomputed != 0 {
		t.Fatalf("maintenance report %+v, want invalidations and no recompute", ar.Maintenance)
	}

	// The catalog record now carries the lineage head.
	var info dataset.Info
	if code := doJSON(t, "GET", ts.URL+"/v2/datasets/dyn", nil, &info); code != http.StatusOK {
		t.Fatalf("info status %d", code)
	}
	if info.SHA256 != ar.HeadSHA || info.ChainLen() != 1 || info.BaseSHA256 != base.SHA256 {
		t.Fatalf("catalog record after append: %+v", info)
	}

	// Query again: must be the new graph's answer, not the stale one.
	var after DecomposeResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/decompose", query, &after); code != http.StatusOK {
		t.Fatalf("post-append decompose status %d", code)
	}
	if decomposeFields(after) == decomposeFields(before) {
		t.Fatal("post-append decomposition identical to pre-append (stale cache)")
	}

	// Ground truth: a second, untouched server stack materializes the
	// same lineage cold and must agree byte for byte.
	ts2, _, _ := newDatasetServer(t, t.TempDir())
	d, err := dataset.DecodeDeltaStream(bytes.NewReader([]byte("- 0 1\n+ 0 143 0.5\n")))
	if err != nil {
		t.Fatal(err)
	}
	merged, err := dataset.ApplyEdgeDelta(g, d)
	if err != nil {
		t.Fatal(err)
	}
	var mel bytes.Buffer
	if err := gio.WriteBinary(&mel, merged); err != nil {
		t.Fatal(err)
	}
	var mergedInfo dataset.Info
	if code := uploadBody(t, ts2.URL+"/v2/datasets?name=dyn", mel.Bytes(), &mergedInfo); code != http.StatusCreated {
		t.Fatalf("merged ingest status %d", code)
	}
	if mergedInfo.SHA256 != ar.HeadSHA {
		t.Fatalf("one-shot ingest address %s != streamed head %s", mergedInfo.SHA256, ar.HeadSHA)
	}
	var full DecomposeResponse
	if code := doJSON(t, "POST", ts2.URL+"/v1/decompose", query, &full); code != http.StatusOK {
		t.Fatalf("ground-truth decompose status %d", code)
	}
	if decomposeFields(after) != decomposeFields(full) {
		t.Fatalf("post-append decomposition diverges from full recompute:\n got  %+v\n want %+v",
			decomposeFields(after), decomposeFields(full))
	}
}

func TestAppendEndpointGzipAndNoOp(t *testing.T) {
	ts, _, _ := newDatasetServer(t, t.TempDir())
	g, err := gen.FromSpec("mesh:10", 1)
	if err != nil {
		t.Fatal(err)
	}
	var el bytes.Buffer
	if err := gio.WriteEdgeList(&el, g); err != nil {
		t.Fatal(err)
	}
	var base dataset.Info
	if code := uploadBody(t, ts.URL+"/v2/datasets?name=z", el.Bytes(), &base); code != http.StatusCreated {
		t.Fatalf("ingest status %d", code)
	}

	// Gzip-wrapped delta body is sniffed like ingest.
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte("+ 0 99 2.5\n"))
	zw.Close()
	var ar AppendResponse
	if code := uploadBody(t, ts.URL+"/v2/datasets/z/append", gz.Bytes(), &ar); code != http.StatusOK {
		t.Fatalf("gzipped append status %d", code)
	}
	if !ar.Applied || ar.ChainLength != 1 {
		t.Fatalf("gzipped append %+v", ar)
	}

	// A no-op delta (removing an absent edge) keeps the head, stores
	// nothing, and reports no maintenance.
	var noop AppendResponse
	if code := postDelta(t, ts.URL, "z", "- 0 98\n", &noop); code != http.StatusOK {
		t.Fatalf("no-op append status %d", code)
	}
	if noop.Applied || noop.HeadSHA != ar.HeadSHA || noop.ChainLength != 1 {
		t.Fatalf("no-op append %+v", noop)
	}
	if noop.Maintenance != nil {
		t.Fatalf("no-op append carried maintenance %+v", noop.Maintenance)
	}
}

func TestAppendEndpointErrorClassification(t *testing.T) {
	ts, _, _ := newDatasetServer(t, t.TempDir())
	g, err := gen.FromSpec("mesh:8", 1)
	if err != nil {
		t.Fatal(err)
	}
	var el bytes.Buffer
	if err := gio.WriteEdgeList(&el, g); err != nil {
		t.Fatal(err)
	}
	if code := uploadBody(t, ts.URL+"/v2/datasets?name=e", el.Bytes(), nil); code != http.StatusCreated {
		t.Fatal("ingest failed")
	}

	// Malformed records are the client's fault.
	if code := postDelta(t, ts.URL, "e", "not a delta\n", nil); code != http.StatusBadRequest {
		t.Fatalf("garbage delta status %d, want 400", code)
	}
	if code := postDelta(t, ts.URL, "e", "+ 1 1 3\n", nil); code != http.StatusBadRequest {
		t.Fatalf("self-loop delta status %d, want 400", code)
	}
	// Appending to a dataset that does not exist is 404.
	if code := postDelta(t, ts.URL, "ghost", "+ 0 1 1\n", nil); code != http.StatusNotFound {
		t.Fatalf("append to missing dataset status %d, want 404", code)
	}
	// Compacting a missing dataset is 404 too.
	if code := doJSON(t, "POST", ts.URL+"/v2/datasets/ghost/compact", nil, nil); code != http.StatusNotFound {
		t.Fatalf("compact missing dataset status %d, want 404", code)
	}
	// Without a catalog, both routes answer 503 like their siblings.
	bare, _ := newTestServer(t)
	if code := uploadBody(t, bare.URL+"/v2/datasets/e/append", []byte("+ 0 1 1\n"), nil); code != http.StatusServiceUnavailable {
		t.Fatalf("append without catalog status %d, want 503", code)
	}
	if code := doJSON(t, "POST", bare.URL+"/v2/datasets/e/compact", nil, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("compact without catalog status %d, want 503", code)
	}
}

func TestAppendEndpointBodyCap(t *testing.T) {
	ts, _, _ := newDatasetServerOpts(t, t.TempDir(), dataset.Options{}, Config{MaxDatasetBytes: 32})
	// The append body shares MaxDatasetBytes with ingest: over-cap is 413.
	big := bytes.Repeat([]byte("+ 1 2 3\n"), 64)
	if code := uploadBody(t, ts.URL+"/v2/datasets/x/append", big, nil); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized append status %d, want 413", code)
	}
}

func TestCompactEndpointPreservesIdentity(t *testing.T) {
	ts, st, _ := newDatasetServer(t, t.TempDir())
	g, err := gen.FromSpec("mesh:12", 3)
	if err != nil {
		t.Fatal(err)
	}
	var el bytes.Buffer
	if err := gio.WriteEdgeList(&el, g); err != nil {
		t.Fatal(err)
	}
	if code := uploadBody(t, ts.URL+"/v2/datasets?name=c", el.Bytes(), nil); code != http.StatusCreated {
		t.Fatal("ingest failed")
	}
	var ar AppendResponse
	if code := postDelta(t, ts.URL, "c", "+ 0 143 0.5\n", &ar); code != http.StatusOK || !ar.Applied {
		t.Fatalf("append status %d (%+v)", code, ar)
	}

	// Warm the result cache on the lineage head.
	query := map[string]any{"graph": "c", "seed": 7}
	var warm DecomposeResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/decompose", query, &warm); code != http.StatusOK {
		t.Fatalf("decompose status %d", code)
	}

	var cr struct {
		Dataset     string `json:"dataset"`
		Compacted   bool   `json:"compacted"`
		HeadSHA     string `json:"headSha"`
		ChainLength int    `json:"chainLength"`
	}
	if code := doJSON(t, "POST", ts.URL+"/v2/datasets/c/compact", nil, &cr); code != http.StatusOK {
		t.Fatalf("compact status %d", code)
	}
	if !cr.Compacted || cr.HeadSHA != ar.HeadSHA || cr.ChainLength != 0 {
		t.Fatalf("compact response %+v, want chain folded under head %s", cr, ar.HeadSHA)
	}

	// Identity survived: the cached decomposition is still served (no
	// invalidation), and the store's registered graph is untouched.
	var again DecomposeResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/decompose", query, &again); code != http.StatusOK {
		t.Fatalf("post-compact decompose status %d", code)
	}
	if !again.Cached {
		t.Fatal("compaction invalidated the cache despite the head being preserved")
	}
	if decomposeFields(again) != decomposeFields(warm) {
		t.Fatal("compaction changed the decomposition")
	}
	if _, _, ok := st.Graph("c"); !ok {
		t.Fatal("compaction deregistered the graph")
	}
}
