package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

// solo is the write-side target: one graphdiamd with a catalog and no
// fleet, restarted in place by the fault-in measurements.
type solo struct {
	p      *proc
	dir    string
	port   int
	client *http.Client
	peakMB float64 // highest VmHWM over all incarnations
}

func (r *run) startSolo(rep int) (*solo, error) {
	s := &solo{dir: filepath.Join(r.env.tmp, fmt.Sprintf("solo-%d", rep)), client: newClient(r.nproc)}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	s.port = port
	return s, s.boot(r.env)
}

func (s *solo) boot(e *env) error {
	p, err := e.startProc("graphdiamd-solo", "graphdiamd", s.port, "-data-dir", s.dir, "-quiet")
	if err != nil {
		return err
	}
	s.p = p
	return p.waitHTTP(s.client, "/healthz", 20*time.Second)
}

func (s *solo) halt() {
	if s == nil || s.p == nil {
		return
	}
	s.p.stop()
	if s.p.peakMB > s.peakMB {
		s.peakMB = s.p.peakMB
	}
	// The next incarnation listens on the same port: drop connections to
	// the old one so no request is sent down a dead socket.
	s.client.CloseIdleConnections()
}

func (s *solo) stop() {
	if s == nil {
		return
	}
	s.halt()
	os.RemoveAll(s.dir)
}

// writing is the state of the ingest phase across laps.
type writing struct {
	r     *run
	s     *solo
	rng   *rand.Rand
	avg   float64 // weight scale of the inserted edges
	query []byte  // the query that follows every append

	ingestMS, ingestMBs            []float64
	appendFreshMS                  []float64
	appendMS, requeryMS            []float64
	faultInMS                      []float64
	compactMS                      float64
	recomputed, invalidated, bgCmp float64
	diskMB, bytesPerEdge           float64
	// For the oracle: the deltas applied to dataset 0 and the answer
	// served after each.
	deltas  [][]byte
	answers []DiameterResponse
	names   []string
}

// freshParams is the parameter set of the query that follows an append.
func (r *run) freshParams() StoreParams { return StoreParams{Seed: 7, Workers: r.nproc} }

func (w *writing) post(parent int64, name, path string, body []byte) (int, []byte, time.Duration, error) {
	sp := w.r.rec.start(parent, name)
	t0 := time.Now()
	status, b, err := do(w.s.client, call{method: "POST", url: w.s.p.url + path, body: body})
	dt := time.Since(t0)
	w.r.rec.end(sp, map[string]any{"path": path, "status": status})
	return status, b, dt, err
}

// ingestNext posts the next generated text under a never-used name.
func (w *writing) ingestNext() error {
	r := w.r
	i := len(w.names)
	d := r.in.ingested[i]
	name := fmt.Sprintf("w%dd%d", r.seed, i)
	status, body, dt, err := w.post(0, "client.ingest", "/v2/datasets?name="+name, d.text)
	var info DatasetInfo
	ok := err == nil && status == http.StatusCreated && json.Unmarshal(body, &info) == nil &&
		info.NumNodes == d.nodes && info.NumEdges == d.edges
	r.tally.op(ok)
	if !ok {
		return fmt.Errorf("ingest %s: status %d err %v body %.200s (want %d nodes %d edges)", name, status, err, body, d.nodes, d.edges)
	}
	w.names = append(w.names, name)
	w.ingestMS = append(w.ingestMS, float64(dt)/1e6)
	w.ingestMBs = append(w.ingestMBs, float64(len(d.text))/1e6/dt.Seconds())
	if i == 0 {
		w.bytesPerEdge = float64(info.Bytes) / float64(info.NumEdges)
	}
	return nil
}

// newWriting ingests the two datasets the laps work on (timed like every
// other ingest), makes the first query of the append target, and grows
// the delta chain of the fault-in target.
func (r *run) newWriting(s *solo) (*writing, error) {
	w := &writing{r: r, s: s, avg: r.in.kernel.AvgEdgeWeight(),
		rng: rand.New(rand.NewSource(int64(seedFor(r.seed, purposeDelta, 0))))}
	for i := 0; i < 2; i++ {
		if err := w.ingestNext(); err != nil {
			return nil, err
		}
	}
	w.query, _ = json.Marshal(struct {
		Graph string `json:"graph"`
		StoreParams
	}{w.names[0], r.freshParams()})
	if status, body, _, err := w.post(0, "client.query", "/v1/diameter", w.query); err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("first query of %s: status %d err %v body %.200s", w.names[0], status, err, body)
	}
	r.checkResident(s, w.names[0], r.in.ingested[0].nodes)
	chained, cbase := w.names[1], r.in.ingested[1]
	for i := 0; i < r.p.chain; i++ {
		status, body, _, err := w.post(0, "client.append", "/v2/datasets/"+chained+"/append", makeDelta(w.rng, cbase.nodes, r.p.deltaRecords, w.avg))
		ok := err == nil && status == http.StatusOK
		r.tally.op(ok)
		if !ok {
			return nil, fmt.Errorf("append to %s: status %d err %v body %.200s", chained, status, err, body)
		}
	}
	return w, nil
}

// lap drives the write side of the catalog once:
//
//	ingest    the next texts are posted, each under a never-used name
//	append    on the first dataset: post a delta, then query until holding
//	          an answer for the new head (for dApp)
//	fault-in  on the second dataset, which carries a delta chain: restart
//	          the daemon and time POST …/load (for dFault)
func (w *writing) lap(texts int, dApp, dFault time.Duration) error {
	r := w.r
	for i := 0; i < texts && len(w.names) < len(r.in.ingested); i++ {
		if err := w.ingestNext(); err != nil {
			return err
		}
	}

	// The daemon finishes cache maintenance before it acknowledges an
	// append, so the first query after the acknowledgement already is for
	// the new head; the oracle check in verifyIngest proves it on every run.
	// An untimed query first: the restarts of the previous lap left the
	// append target on disk only, and its fault-in is not what this loop
	// measures.
	target, base := w.names[0], r.in.ingested[0]
	if status, body, _, err := w.post(0, "client.query", "/v1/diameter", w.query); err != nil || status != http.StatusOK {
		return fmt.Errorf("query of %s: status %d err %v body %.200s", target, status, err, body)
	}
	stop := time.Now().Add(dApp)
	for first := true; first || time.Now().Before(stop); first = false {
		delta := makeDelta(w.rng, base.nodes, r.p.deltaRecords, w.avg)
		root := r.rec.start(0, "op.append_fresh")
		t0 := time.Now()
		status, body, dtA, err := w.post(root, "client.append", "/v2/datasets/"+target+"/append", delta)
		var ar AppendResponse
		ok := err == nil && status == http.StatusOK && json.Unmarshal(body, &ar) == nil && ar.Applied
		r.tally.op(ok)
		if !ok {
			return fmt.Errorf("append to %s: status %d err %v body %.200s", target, status, err, body)
		}
		status, body, dtQ, err := w.post(root, "client.query", "/v1/diameter", w.query)
		total := time.Since(t0)
		r.rec.end(root, nil)
		var resp DiameterResponse
		ok = err == nil && status == http.StatusOK && json.Unmarshal(body, &resp) == nil
		r.tally.op(ok)
		if !ok {
			return fmt.Errorf("query after append: status %d err %v body %.200s", status, err, body)
		}
		w.appendFreshMS = append(w.appendFreshMS, float64(total)/1e6)
		w.appendMS = append(w.appendMS, float64(dtA)/1e6)
		w.requeryMS = append(w.requeryMS, float64(dtQ)/1e6)
		w.deltas = append(w.deltas, delta)
		w.answers = append(w.answers, resp)
		if m := ar.Maintenance; m != nil {
			w.recomputed += float64(m.Recomputed)
			w.invalidated += float64(m.Invalidated)
		}
	}

	chained, cbase := w.names[1], r.in.ingested[1]
	stop = time.Now().Add(dFault)
	for first := true; first || time.Now().Before(stop); first = false {
		if r.rec != nil {
			// Counters die with the process: read them before each restart.
			if m, err := scrape(w.s.client, w.s.p); err == nil {
				w.bgCmp += m.sum("graphdiam_dataset_compactions_total")
			}
		}
		w.s.halt()
		if err := w.s.boot(r.env); err != nil {
			return err
		}
		status, body, dt, err := w.post(0, "client.load", "/v2/datasets/"+chained+"/load", nil)
		var gi struct{ NumNodes int }
		ok := err == nil && status == http.StatusOK && json.Unmarshal(body, &gi) == nil && gi.NumNodes >= cbase.nodes
		r.tally.op(ok)
		if !ok {
			return fmt.Errorf("load %s after restart: status %d err %v body %.200s", chained, status, err, body)
		}
		w.faultInMS = append(w.faultInMS, float64(dt)/1e6)
	}
	return nil
}

// finish makes the one explicit compaction of the fault-in chain.
func (w *writing) finish() {
	r := w.r
	status, body, dt, err := w.post(0, "client.compact", "/v2/datasets/"+w.names[1]+"/compact", nil)
	var cr struct {
		Compacted   bool `json:"compacted"`
		ChainLength int  `json:"chainLength"`
	}
	ok := err == nil && status == http.StatusOK && json.Unmarshal(body, &cr) == nil && cr.Compacted && cr.ChainLength == 0
	r.tally.check("explicit compaction folds the chain", ok, "status %d err %v body %.200s", status, err, body)
	w.compactMS = float64(dt) / 1e6
	w.diskMB = dirSizeMB(w.s.dir)
}

// checkResident asserts GET /v1/graphs lists the dataset with the node
// count the benchmark generated (dataset-name hygiene: a stale resident
// graph under a reused name would show the old count).
func (r *run) checkResident(s *solo, name string, nodes int) {
	var list struct {
		Graphs []struct {
			Name     string `json:"name"`
			NumNodes int    `json:"numNodes"`
		} `json:"graphs"`
	}
	status, body, err := do(s.client, call{method: "GET", url: s.p.url + "/v1/graphs"})
	found := -1
	if err == nil && status == http.StatusOK && json.Unmarshal(body, &list) == nil {
		for _, g := range list.Graphs {
			if g.Name == name {
				found = g.NumNodes
			}
		}
	}
	r.tally.check("GET /v1/graphs reports the ingested node count", found == nodes,
		"dataset %s: listed %d nodes, generated %d", name, found, nodes)
}

func dirSizeMB(dir string) float64 {
	total := int64(0)
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil // a file vanishing mid-walk (background compaction) is not an error here
	})
	return float64(total) / (1 << 20)
}

// verifyIngest replays the appends in process — parse the same text,
// apply the same deltas — and compares the served answers with the
// answers for those graphs: first, last and a few between.
func (r *run) verifyIngest(out *writing) error {
	g, err := gioReadDIMACS(bytes.NewReader(r.in.ingested[0].text))
	if err != nil {
		return err
	}
	n := len(out.deltas)
	step := n/6 + 1
	st := storeNew(StoreConfig{MaxConcurrent: r.nproc})
	defer st.Close()
	for i, text := range out.deltas {
		d, err := datasetDecodeDelta(bytes.NewReader(text))
		if err != nil {
			return err
		}
		if g, err = datasetApplyDelta(g, d); err != nil {
			return err
		}
		if i%step != 0 && i != n-1 {
			continue
		}
		name := out.names[0]
		if _, err := st.AddGraph(name, g, "oracle"); err != nil {
			return err
		}
		want, _, err := st.Diameter(context.Background(), name, r.freshParams())
		r.tally.check("answer after append is for the new head", err == nil && sameAnswer(out.answers[i].DiameterResult, want),
			"append %d: served %+v, in-process %+v (err %v)", i, out.answers[i].DiameterResult, want, err)
	}
	return nil
}

// catalogReplay times the catalog's own entry points in process, on the
// same bytes the daemon received — the per-layer view of the write side.
func (r *run) catalogReplay() (map[string]float64, error) {
	dir := filepath.Join(r.env.tmp, "catalog-replay")
	defer os.RemoveAll(dir)
	open := func() (*Catalog, error) { return datasetOpen(dir, CatalogOptions{CompactAfter: -1}) }
	cat, err := open()
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			cat.Close()
		}
	}()
	L := map[string]float64{}
	text := r.in.ingested[0].text
	timed := func(name string, fn func() error) (float64, error) {
		root := r.rec.start(0, "replay."+name)
		t0 := time.Now()
		err := fn()
		dt := time.Since(t0).Seconds()
		r.rec.end(root, nil)
		return dt, err
	}
	var g *Graph
	if L["gio.parse_s"], err = timed("gio.ReadDIMACS", func() error {
		g, err = gioReadDIMACS(bytes.NewReader(text))
		return err
	}); err != nil {
		return nil, err
	}
	if L["dataset.ingest_s"], err = timed("Catalog.Ingest", func() error {
		_, err := cat.Ingest("replay-a", bytes.NewReader(text), "", "bench")
		return err
	}); err != nil {
		return nil, err
	}
	// A reweighted copy, so the snapshot write is not deduplicated
	// against the blob Ingest just stored.
	h := g.ReweightUniform(func() float64 { return 1 })
	if L["dataset.snapshot_write_s"], err = timed("Catalog.IngestGraph", func() error {
		_, err := cat.IngestGraph("replay-b", h, "graph", "bench")
		return err
	}); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(seedFor(r.seed, purposeDelta, 1))))
	var appendMS []float64
	for i := 0; i < r.p.chain; i++ {
		d, err := datasetDecodeDelta(bytes.NewReader(makeDelta(rng, g.NumNodes(), r.p.deltaRecords, g.AvgEdgeWeight())))
		if err != nil {
			return nil, err
		}
		dt, err := timed("Catalog.AppendDelta", func() error {
			_, err := cat.AppendDelta("replay-a", d, "bench")
			return err
		})
		if err != nil {
			return nil, err
		}
		appendMS = append(appendMS, dt*1e3)
	}
	L["dataset.append_call_ms"] = median(appendMS)
	// Reopen, so the loads below read the disk and not the catalog's
	// cache of materialized heads.
	if err := cat.Close(); err != nil {
		return nil, err
	}
	closed = true
	if cat, err = open(); err != nil {
		return nil, err
	}
	closed = false
	dt, err := timed("Catalog.Load.snapshot", func() error { _, err := cat.Load("replay-b"); return err })
	if err != nil {
		return nil, err
	}
	L["dataset.load_snapshot_ms"] = dt * 1e3
	dt, err = timed("Catalog.Load.chain", func() error { _, err := cat.Load("replay-a"); return err })
	if err != nil {
		return nil, err
	}
	L["dataset.load_chain_ms"] = dt * 1e3
	delete(L, "gio.parse_s") // a span in the trace; gio.parse_mb_per_s is the metric
	return L, nil
}
