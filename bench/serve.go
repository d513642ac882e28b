package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// fleet is the serving tier a run queries: two graphdiamd in one
// placement view (the second reading snapshots through the first's blob
// tier) behind one graphdiamlb, all real binaries on loopback.
type fleet struct {
	daemons []*proc // rank order
	lb      *proc
	dir     string
	names   []string // dataset i of inputs.served
	owner   []*proc  // rendezvous owner of dataset i
	other   []*proc  // the daemon that does not own dataset i
	hot     []hotKey
	client  *http.Client
}

// hotKey is one pre-warmed query: its request body and the exact reply
// bytes the owner serves for it from cache.
type hotKey struct {
	dataset int
	seed    uint64
	body    []byte
	want    []byte
}

func queryBody(graph string, seed uint64, workers int) []byte {
	return []byte(fmt.Sprintf(`{"graph":%q,"seed":%d,"workers":%d}`, graph, seed, workers))
}

// probeInterval is the fleet's health-probe cadence. A member counts as
// live after two consecutive good probes, so this bounds how long set-up
// waits for the placement view to settle.
const probeInterval = "100ms"

func (r *run) startFleet(rep int) (*fleet, error) {
	f := &fleet{dir: filepath.Join(r.env.tmp, fmt.Sprintf("fleet-%d", rep)), client: newClient(8)}
	ports := make([]int, 3)
	for i := range ports {
		p, err := freePort()
		if err != nil {
			return nil, err
		}
		ports[i] = p
	}
	peers := fmt.Sprintf("http://127.0.0.1:%d,http://127.0.0.1:%d", ports[0], ports[1])
	for rank := 0; rank < 2; rank++ {
		dir := filepath.Join(f.dir, fmt.Sprintf("rank%d", rank))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		args := []string{"-data-dir", dir, "-peers", peers, "-worker-id", fmt.Sprint(rank),
			"-probe-interval", probeInterval, "-max-entries", fmt.Sprint(r.p.cacheEntries), "-quiet"}
		if rank == 1 {
			args = append(args, "-blob-url", fmt.Sprintf("http://127.0.0.1:%d", ports[0]))
		}
		d, err := r.env.startProc(fmt.Sprintf("graphdiamd-%d", rank), "graphdiamd", ports[rank], args...)
		if err != nil {
			return nil, err
		}
		f.daemons = append(f.daemons, d)
		if err := d.waitHTTP(f.client, "/healthz", 20*time.Second); err != nil {
			return nil, err
		}
	}
	lb, err := r.env.startProc("graphdiamlb", "graphdiamlb", ports[2],
		"-peers", peers, "-probe-interval", probeInterval, "-quiet")
	if err != nil {
		return nil, err
	}
	f.lb = lb
	if err := lb.waitHTTP(f.client, "/readyz", 20*time.Second); err != nil {
		return nil, err
	}
	// Placement is only stable once every node sees every member live.
	for _, p := range append([]*proc{lb}, f.daemons...) {
		if err := f.waitAllLive(p); err != nil {
			return nil, err
		}
	}
	return f, nil
}

func (f *fleet) waitAllLive(p *proc) error {
	stop := time.Now().Add(20 * time.Second)
	for {
		var info FleetInfo
		status, body, err := do(f.client, call{method: "GET", url: p.url + "/v2/fleet"})
		if err == nil && status == http.StatusOK && json.Unmarshal(body, &info) == nil {
			live := 0
			for _, m := range info.Members {
				if m.Live {
					live++
				}
			}
			if live == len(f.daemons) {
				return nil
			}
		}
		if time.Now().After(stop) {
			return fmt.Errorf("%s never saw both daemons live", p.name)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// load ingests the served datasets through the front door under names no
// run has used, finds each one's owner, and pre-warms the hot keys.
func (r *run) loadFleet(f *fleet, rep int) error {
	for i, d := range r.in.served {
		name := fmt.Sprintf("s%dr%dd%d", r.seed, rep, i)
		status, body, err := do(f.client, call{method: "POST", url: f.lb.url + "/v2/datasets?name=" + name, body: d.text})
		var info DatasetInfo
		ok := err == nil && status == http.StatusCreated && json.Unmarshal(body, &info) == nil &&
			info.NumNodes == d.nodes && info.NumEdges == d.edges
		r.tally.check("fleet ingest reports the generated graph's size", ok,
			"dataset %s: status %d err %v body %.200s (want %d nodes, %d edges)", name, status, err, body, d.nodes, d.edges)
		if !ok {
			return fmt.Errorf("ingest of %s through the lb failed", name)
		}
		var fi FleetInfo
		status, body, err = do(f.client, call{method: "GET", url: f.lb.url + "/v2/fleet?dataset=" + name})
		if err != nil || status != http.StatusOK || json.Unmarshal(body, &fi) != nil || fi.Owner == nil {
			return fmt.Errorf("no owner reported for %s: status %d err %v", name, status, err)
		}
		f.names = append(f.names, name)
		f.owner = append(f.owner, f.daemons[fi.Owner.Rank])
		f.other = append(f.other, f.daemons[1-fi.Owner.Rank])
	}
	for i := range f.names {
		for s := 1; s <= r.p.hotSeeds; s++ {
			f.hot = append(f.hot, hotKey{dataset: i, seed: uint64(s), body: queryBody(f.names[i], uint64(s), 1)})
		}
	}
	// Pre-warm with nproc clients, then read every key once more: that
	// reply (served from cache) is the byte string later phases expect.
	var (
		wg   sync.WaitGroup
		errs = make([]error, r.nproc)
	)
	for c := 0; c < r.nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; k < len(f.hot); k += r.nproc {
				key := &f.hot[k]
				for pass := 0; pass < 2; pass++ {
					status, body, err := do(f.client, call{method: "POST", url: f.lb.url + "/v1/diameter", body: key.body})
					if err != nil || status != http.StatusOK {
						errs[c] = fmt.Errorf("pre-warm of %s: status %d err %v body %.200s", key.body, status, err, body)
						return
					}
					key.want = body
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (f *fleet) stop() {
	if f == nil {
		return
	}
	if f.lb != nil {
		f.lb.stop()
	}
	for _, d := range f.daemons {
		d.stop()
	}
	f.client.CloseIdleConnections()
	os.RemoveAll(f.dir)
}

// scrape reads one process's /metrics.
func scrape(c *http.Client, p *proc) (promSample, error) {
	status, body, err := do(c, call{method: "GET", url: p.url + "/metrics"})
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d err %v", p.name, status, err)
	}
	return parseProm(bytes.NewReader(body))
}

func storeStats(c *http.Client, p *proc) (StoreStats, error) {
	var st StoreStats
	status, body, err := do(c, call{method: "GET", url: p.url + "/v1/stats"})
	if err != nil || status != http.StatusOK {
		return st, fmt.Errorf("stats %s: status %d err %v", p.name, status, err)
	}
	return st, json.Unmarshal(body, &st)
}

const (
	classHot = iota
	classCold
)

// coldReply keeps a cold query's answer for the oracle comparison.
type coldReply struct {
	dataset int
	seed    uint64
	resp    DiameterResponse
	latency time.Duration
}

// serving is the state of the serve phases across laps.
type serving struct {
	r       *run
	f       *fleet
	traffic *rand.Rand
	procs   []*proc
	before  []promSample // traced runs: /metrics of each process before the first lap
	nextID  int          // makes request IDs and cold seeds unique across laps

	warm, routed, nonOwner, mixed []sample
	warmSeconds, mixedSeconds     float64
	cold                          []coldReply
	offered                       int
	coalesces                     float64
}

func (r *run) newServing(f *fleet) (*serving, error) {
	sv := &serving{r: r, f: f, procs: append([]*proc{f.lb}, f.daemons...),
		traffic: rand.New(rand.NewSource(int64(seedFor(r.seed, purposeTraffic, 0))))}
	if r.rec != nil {
		for _, p := range sv.procs {
			s, err := scrape(f.client, p)
			if err != nil {
				return nil, err
			}
			sv.before = append(sv.before, s)
		}
	}
	return sv, nil
}

// closed runs one closed-loop phase over the hot keys; target picks the
// process a key's request goes to.
func (sv *serving) closed(phase string, clients int, d time.Duration, target func(k *hotKey) *proc) []sample {
	r, f := sv.r, sv.f
	client := newClient(clients)
	defer client.CloseIdleConnections()
	order := make([][]int, clients)
	for c := range order {
		order[c] = sv.traffic.Perm(len(f.hot))
	}
	base := sv.nextID
	sv.nextID += 10_000_000
	samples := closedLoop(client, clients, d,
		func(c, i int) (call, int) {
			k := order[c][i%len(f.hot)]
			req := call{method: "POST", url: target(&f.hot[k]).url + "/v1/diameter", body: f.hot[k].body}
			if r.rec != nil {
				req.id = requestID(phase, base+c*1_000_000+i)
			}
			return req, k
		},
		func(k, status int, body []byte) bool {
			return status == http.StatusOK && bytes.Equal(body, f.hot[k].want)
		})
	for _, s := range samples {
		r.tally.op(s.ok)
		r.rec.add(0, "client."+phase, s.start, s.end, map[string]any{"request_id": s.id})
	}
	return samples
}

// lap runs the three traffic phases once.
//
//	A  closed loop, nproc clients, hot keys, sent straight to each key's owner
//	B  closed loop, one client: first through the lb, then to the non-owner
//	C  open loop, Poisson arrivals through the lb, hot keys mixed with
//	   never-seen seeds, each request timed from its due time
func (sv *serving) lap(dA, dB, dC time.Duration) {
	r, f := sv.r, sv.f
	t0 := time.Now()
	sv.warm = append(sv.warm, sv.closed("warm", r.nproc, dA, func(k *hotKey) *proc { return f.owner[k.dataset] })...)
	sv.warmSeconds += time.Since(t0).Seconds()
	sv.routed = append(sv.routed, sv.closed("routed", 1, dB/2, func(*hotKey) *proc { return f.lb })...)
	sv.nonOwner = append(sv.nonOwner, sv.closed("nonowner", 1, dB/2, func(k *hotKey) *proc { return f.other[k.dataset] })...)

	due := poissonSchedule(sv.traffic, r.p.rate, dC)
	sv.offered += len(due)
	sv.mixedSeconds += dC.Seconds()
	type plan struct {
		key     *hotKey
		dataset int
		seed    uint64
	}
	base := sv.nextID
	sv.nextID += len(due)
	// One cold request at a random place in every block of 1/coldShare
	// requests, all others hot: the cold share of a lap is then exact, so
	// the 99th percentile of the mix is a fixed percentile of the cold
	// class and not one that wanders with the draw.
	plans := make([]plan, len(due))
	for i := range plans {
		plans[i] = plan{key: &f.hot[sv.traffic.Intn(len(f.hot))]}
	}
	block := int(math.Round(1 / r.p.coldShare))
	for start := 0; start+block <= len(plans); start += block {
		i := start + sv.traffic.Intn(block)
		plans[i] = plan{dataset: sv.traffic.Intn(len(f.names)), seed: uint64(1_000_000 + base + i)}
	}
	replies := make([]DiameterResponse, len(due))
	client := newClient(16)
	defer client.CloseIdleConnections()
	samples := openLoop(client, due,
		func(i int) (call, int) {
			req := call{method: "POST", url: f.lb.url + "/v1/diameter"}
			if r.rec != nil {
				req.id = requestID("mixed", base+i)
			}
			if k := plans[i].key; k != nil {
				req.body = k.body
			} else {
				req.body = queryBody(f.names[plans[i].dataset], plans[i].seed, 1)
			}
			return req, i
		},
		func(i, status int, body []byte) bool {
			if status != http.StatusOK {
				return false
			}
			if k := plans[i].key; k != nil {
				return bytes.Equal(body, k.want)
			}
			// A never-seen key must have been computed for this request.
			return json.Unmarshal(body, &replies[i]) == nil && !replies[i].Cached &&
				replies[i].Graph == f.names[plans[i].dataset] && replies[i].Estimate > 0
		})
	for i := range samples {
		s := &samples[i]
		s.class = classHot
		if plans[i].key == nil {
			s.class = classCold
		}
		r.tally.op(s.ok)
		r.rec.add(0, "client.mixed", s.start, s.end,
			map[string]any{"request_id": s.id, "cold": s.class == classCold, "late_ns": int64(s.late)})
		if s.class == classCold && s.ok {
			sv.cold = append(sv.cold, coldReply{plans[i].dataset, plans[i].seed, replies[i], s.latency})
		}
	}
	sv.mixed = append(sv.mixed, samples...)
}

// finish runs the singleflight burst and, on a traced run, turns the
// /metrics deltas of the three processes into per-layer counts.
func (sv *serving) finish() (map[string]float64, error) {
	r, f := sv.r, sv.f
	if err := sv.singleflightCheck(); err != nil {
		return nil, err
	}
	if r.rec == nil {
		return nil, nil
	}
	total := promSample{}
	var gcCycles, gcPause float64
	for i, p := range sv.procs {
		s, err := scrape(f.client, p)
		if err != nil {
			return nil, err
		}
		d := s.sub(sv.before[i])
		for k, v := range d {
			total[k] += v
		}
		gcCycles += d.sum("go_gc_cycles_total")
		gcPause += d.sum("go_gc_pause_seconds_total")
	}
	L := map[string]float64{
		"store.hits":           total.sum("graphdiam_store_cache_hits_total"),
		"store.misses":         total.sum("graphdiam_store_cache_misses_total"),
		"store.computations":   total.sum("graphdiam_store_computations_total"),
		"store.evictions":      total.sum("graphdiam_store_evictions_total"),
		"store.coalesces":      sv.coalesces,
		"server.http_requests": total.sum("graphdiam_http_requests_total"),
		"fleet.proxy_attempts": total.sum("graphdiam_fleet_proxy_attempts_total"),
		"fleet.failover_hops":  total.sum("graphdiam_fleet_proxy_failover_hops_total"),
		"go.gc_cycles":         gcCycles,
		"go.gc_pause_ms":       gcPause * 1e3,
	}
	r.tally.check("no failover hops in a healthy fleet", L["fleet.failover_hops"] == 0, "%v hops", L["fleet.failover_hops"])
	return L, nil
}

// singleflightCheck fires eight identical never-seen queries at once:
// the fleet must run exactly one computation for them.
func (sv *serving) singleflightCheck() error {
	r, f := sv.r, sv.f
	const fanout = 8
	sum := func() (comp, dedup, hits int64, err error) {
		for _, d := range f.daemons {
			st, e := storeStats(f.client, d)
			if e != nil {
				return 0, 0, 0, e
			}
			comp += st.Counters.Computations
			dedup += st.Counters.Dedups
			hits += st.Counters.Hits + st.Counters.FleetHits
		}
		return
	}
	c0, d0, h0, err := sum()
	if err != nil {
		return err
	}
	// The heaviest variant of the query keeps the computation in flight
	// long enough for all eight requests to meet it.
	body := []byte(fmt.Sprintf(`{"graph":%q,"seed":%d,"workers":1,"cluster2":true}`, f.names[0], 2_000_000))
	var wg sync.WaitGroup
	fresh := make([]bool, fanout)
	okAll := make([]bool, fanout)
	for i := 0; i < fanout; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, b, err := do(f.client, call{method: "POST", url: f.owner[0].url + "/v1/diameter", body: body})
			var resp DiameterResponse
			okAll[i] = err == nil && status == http.StatusOK && json.Unmarshal(b, &resp) == nil
			fresh[i] = !resp.Cached
		}(i)
	}
	wg.Wait()
	c1, d1, h1, err := sum()
	if err != nil {
		return err
	}
	nFresh := 0
	for i := range fresh {
		r.tally.op(okAll[i])
		if fresh[i] {
			nFresh++
		}
	}
	// A request that arrives after the computation finished is a cache
	// hit instead of a coalesce; both mean it did not compute again.
	r.tally.check("8 identical cold queries run one computation",
		c1-c0 == 1 && (d1-d0)+(h1-h0) == fanout-1 && nFresh == 1,
		"computations +%d, coalesces +%d, hits +%d, %d replies with cached=false", c1-c0, d1-d0, h1-h0, nFresh)
	sv.coalesces = float64(d1 - d0)
	return nil
}

// oracle answers the same queries in process: one store holding the
// graphs parsed from the very texts the fleet ingested.
type oracle struct {
	st    *Store
	names []string
}

func (r *run) newOracle(f *fleet) (*oracle, error) {
	o := &oracle{st: storeNew(StoreConfig{MaxEntries: 4096, MaxConcurrent: r.nproc}), names: f.names}
	var parseMBs []float64
	for i, d := range r.in.served {
		t0 := time.Now()
		g, err := gioReadDIMACS(bytes.NewReader(d.text))
		if err != nil {
			return nil, err
		}
		parseMBs = append(parseMBs, float64(len(d.text))/1e6/time.Since(t0).Seconds())
		if _, err := o.st.AddGraph(f.names[i], g, "oracle"); err != nil {
			return nil, err
		}
	}
	r.layer["gio.parse_mb_per_s"] = median(parseMBs)
	return o, nil
}

func sameAnswer(a, b DiameterResult) bool {
	a.WallMillis, b.WallMillis = 0, 0
	return a == b
}

// verifyServe compares served answers with the oracle's: every hot key,
// and a sample of the cold ones. The oracle's own calls double as the
// in-process timings of the store and server layers.
func (r *run) verifyServe(f *fleet, o *oracle, out *serving) {
	ctx := context.Background()
	var (
		mu             sync.Mutex
		coldMS, warmUS []float64
		wg             sync.WaitGroup
	)
	for c := 0; c < r.nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; k < len(f.hot); k += r.nproc {
				key := f.hot[k]
				params := StoreParams{Seed: key.seed, Workers: 1}
				t0 := time.Now()
				want, _, err := o.st.Diameter(ctx, f.names[key.dataset], params)
				t1 := time.Now()
				_, cached, _ := o.st.Diameter(ctx, f.names[key.dataset], params)
				t2 := time.Now()
				var got DiameterResponse
				ok := err == nil && json.Unmarshal(key.want, &got) == nil && got.Cached && cached &&
					sameAnswer(got.DiameterResult, want)
				r.tally.check("hot answer equals the in-process answer and is cached", ok,
					"key %s: served %.300s, in-process %+v (err %v)", key.body, key.want, want, err)
				mu.Lock()
				coldMS = append(coldMS, float64(t1.Sub(t0))/1e6)
				warmUS = append(warmUS, float64(t2.Sub(t1))/1e3)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	const coldSample = 8
	step := len(out.cold)/coldSample + 1
	for i := 0; i < len(out.cold); i += step {
		c := out.cold[i]
		want, _, err := o.st.Diameter(ctx, f.names[c.dataset], StoreParams{Seed: c.seed, Workers: 1})
		r.tally.check("cold answer equals the in-process answer", err == nil && sameAnswer(c.resp.DiameterResult, want),
			"dataset %s seed %d: served %+v, in-process %+v (err %v)", f.names[c.dataset], c.seed, c.resp.DiameterResult, want, err)
	}
	r.layer["store.cold_call_ms"] = median(coldMS)
	r.layer["store.warm_call_us"] = median(warmUS)

	if r.rec == nil {
		return
	}
	// The same warm request through the HTTP handler, no socket.
	h := serverNew(o.st, ServerConfig{})
	key := f.hot[0]
	var handlerUS []float64
	for i := 0; i < 200; i++ {
		req := httptest.NewRequest("POST", "/v1/diameter", bytes.NewReader(key.body))
		w := httptest.NewRecorder()
		root := r.rec.start(0, "replay.warm")
		sp := r.rec.start(root, "server.ServeHTTP")
		t0 := time.Now()
		h.ServeHTTP(w, req)
		handlerUS = append(handlerUS, float64(time.Since(t0))/1e3)
		r.rec.end(sp, nil)
		sp = r.rec.start(root, "store.Diameter")
		_, _, _ = o.st.Diameter(ctx, f.names[key.dataset], StoreParams{Seed: key.seed, Workers: 1})
		r.rec.end(sp, nil)
		r.rec.end(root, nil)
		var resp DiameterResponse
		r.tally.op(w.Code == http.StatusOK && json.Unmarshal(w.Body.Bytes(), &resp) == nil && resp.Cached)
	}
	r.layer["server.handler_us"] = median(handlerUS)
}
