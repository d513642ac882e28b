package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// tally counts operations and correctness checks. A failed or refused
// request and a failed check both count as failed.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	shown     int
}

func (t *tally) op(ok bool) {
	t.mu.Lock()
	t.attempted++
	if !ok {
		t.failed++
	}
	t.mu.Unlock()
}

func (t *tally) check(name string, ok bool, format string, args ...any) {
	t.mu.Lock()
	t.attempted++
	if !ok {
		t.failed++
		if t.shown < 20 { // enough to diagnose, not enough to drown the report
			t.shown++
			fmt.Fprintf(os.Stderr, "FAILED check %q: %s\n", name, fmt.Sprintf(format, args...))
		}
	}
	t.mu.Unlock()
}

// run is one execution of the pipeline on one workload.
type run struct {
	p       params
	seed    uint64
	seconds float64
	nproc   int
	env     *env
	rec     *recorder // nil unless --trace 1
	tally   tally
	in      *inputs
	layer   map[string]float64
}

// laps is how many times a run cycles through its timed phases.
const laps = 5

// setupReps is how many times a run performs its whole set-up. setup_s is
// the median, which one slow fsync or a late health probe cannot move.
const setupReps = 3

// setUp generates the inputs, starts the fleet and the solo daemon,
// ingests the served datasets and pre-warms the hot keys: everything
// before the first timed call. Each repetition starts from nothing.
func (r *run) setUp(rep, ingestCount int) (*fleet, *solo, error) {
	t0 := time.Now()
	in, err := generate(r.p, r.seed, ingestCount)
	if err != nil {
		return nil, nil, err
	}
	r.in = in
	t1 := time.Now()
	f, err := r.startFleet(rep)
	if err != nil {
		return f, nil, err
	}
	t2 := time.Now()
	if err := r.loadFleet(f, rep); err != nil {
		return f, nil, err
	}
	t3 := time.Now()
	s, err := r.startSolo(rep)
	fmt.Fprintf(os.Stderr, "set-up %d: generate %.2f s, start fleet %.2f s, ingest + pre-warm %.2f s, start solo %.2f s\n",
		rep, t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds(), time.Since(t3).Seconds())
	return f, s, err
}

func (r *run) dur(share float64) time.Duration {
	return time.Duration(share * r.seconds * float64(time.Second))
}

// execute runs set-up and the timed phases, and returns the metrics of
// the requested kind: end-to-end for an untraced run, per-layer for a
// traced one.
func (r *run) execute() (map[string]float64, error) {
	r.layer = map[string]float64{}
	fmt.Fprintf(os.Stderr, "workload %s seed %d: %.0f s, nproc %d, scratch %s (%s)\n",
		r.p.name, r.seed, r.seconds, r.nproc, r.env.tmp, fsType(r.env.tmp))
	ingestCount := int(math.Round(r.p.ingestPerSecond * r.seconds))
	if ingestCount < 4 {
		ingestCount = 4
	}

	var (
		f      *fleet
		s      *solo
		setupS []float64
	)
	defer func() { f.stop(); s.stop() }()
	for rep := 0; rep < setupReps; rep++ {
		f.stop()
		s.stop()
		runtime.GC() // the previous repetition's graphs are garbage now
		t0 := time.Now()
		var err error
		if f, s, err = r.setUp(rep, ingestCount); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	k, err := r.newKernel()
	if err != nil {
		return nil, fmt.Errorf("kernel warm-up: %w", err)
	}
	sv, err := r.newServing(f)
	if err != nil {
		return nil, err
	}
	ing, err := r.newWriting(s)
	if err != nil {
		return nil, fmt.Errorf("ingest phase: %w", err)
	}
	// The timed phases run in laps, so that every metric draws its samples
	// from the whole run and a noisy second on the host costs each metric a
	// few samples instead of costing one metric all of them.
	lap := func(share float64) time.Duration { return r.dur(share) / laps }
	textsLeft := ingestCount - len(ing.names)
	for i := 0; i < laps; i++ {
		if err := k.lap(lap(r.p.shareKernel)); err != nil {
			return nil, fmt.Errorf("kernel phase: %w", err)
		}
		sv.lap(lap(r.p.shareWarm), lap(r.p.shareRouted), lap(r.p.shareMixed))
		texts := (textsLeft + laps - 1 - i) / laps
		if err := ing.lap(texts, lap(r.p.shareAppend), lap(r.p.shareFault)); err != nil {
			return nil, fmt.Errorf("ingest phase: %w", err)
		}
	}
	kernelLayer, err := k.finish()
	if err != nil {
		return nil, fmt.Errorf("kernel phase: %w", err)
	}
	serveLayer, err := sv.finish()
	if err != nil {
		return nil, fmt.Errorf("serve phase: %w", err)
	}
	ing.finish()

	// Untimed from here: the oracle comparisons.
	o, err := r.newOracle(f)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	r.verifyServe(f, o, sv)
	o.st.Close()
	if err := r.verifyIngest(ing); err != nil {
		return nil, fmt.Errorf("verify ingest: %w", err)
	}
	var catalogLayer map[string]float64
	if r.rec != nil {
		if catalogLayer, err = r.catalogReplay(); err != nil {
			return nil, fmt.Errorf("catalog replay: %w", err)
		}
	}

	// Stop everything, which also records each process's peak RSS.
	f.stop()
	s.stop()
	self, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	rss := self + s.peakMB + f.lb.peakMB
	for _, d := range f.daemons {
		rss += d.peakMB
	}

	warmMS := latenciesMS(sv.warm, -1)
	routedMS := latenciesMS(sv.routed, -1)
	mixedMS := latenciesMS(sv.mixed, -1)
	coldMS := latenciesMS(sv.mixed, classCold)
	r.tally.check("phase C saw cold queries", len(coldMS) > 0, "no cold request among %d", len(mixedMS))
	p99, beyond := tailPercentile(mixedMS, 99)
	fmt.Fprintf(os.Stderr, "samples: cldiam %d, deltastep %d, warm %d, routed %d, mixed %d (cold %d; %d beyond p99, highest percentile with ten beyond: p%g), ingest %d, append %d, fault-in %d\n",
		len(k.cldiamS), len(k.deltastepS), len(warmMS), len(routedMS), len(mixedMS), len(coldMS), beyond,
		supportedPercentile(len(mixedMS), []float64{90, 95, 98, 99, 99.9}),
		len(ing.ingestMS), len(ing.appendFreshMS), len(ing.faultInMS))

	if r.rec == nil {
		return map[string]float64{
			"setup_s":         median(setupS),
			"cldiam_s":        median(k.cldiamS),
			"deltastep_s":     median(k.deltastepS),
			"cldiam_rounds":   k.overSeeds(func(d diamIdentity) float64 { return float64(d.cost.Rounds) }),
			"cldiam_work":     k.overSeeds(func(d diamIdentity) float64 { return float64(d.cost.Work()) }),
			"approx_ratio":    k.overSeeds(func(d diamIdentity) float64 { return d.estimate / r.in.lower }),
			"warm_qps":        float64(len(sv.warm)) / sv.warmSeconds,
			"warm_p50_ms":     median(warmMS),
			"routed_p50_ms":   median(routedMS),
			"cold_p50_ms":     median(coldMS),
			"mixed_p99_ms":    p99,
			"ingest_mb_per_s": median(ing.ingestMBs),
			"fault_in_ms":     median(ing.faultInMS),
			"append_fresh_ms": median(ing.appendFreshMS),
			"peak_rss_mb":     rss,
		}, nil
	}

	L := r.layer
	for _, m := range []map[string]float64{r.in.layer, kernelLayer, serveLayer, catalogLayer} {
		for name, v := range m {
			L[name] = v
		}
	}
	nonOwnerMS := latenciesMS(sv.nonOwner, -1)
	L["lb.hop_ms"] = median(routedMS) - median(warmMS)
	L["lb.rss_mb"] = f.lb.peakMB
	L["fleet.nonowner_p50_ms"] = median(nonOwnerMS)
	L["server.warm_p99_ms"], _ = tailPercentile(warmMS, 99)
	var overheadMS, lateMS []float64
	for _, c := range sv.cold {
		overheadMS = append(overheadMS, float64(c.latency)/1e6-c.resp.WallMillis)
	}
	for _, sm := range sv.mixed {
		lateMS = append(lateMS, float64(sm.late)/1e6)
	}
	L["server.cold_overhead_ms"] = median(overheadMS)
	L["server.ingest_overhead_ms"] = median(ing.ingestMS) - L["dataset.ingest_s"]*1e3
	// Hot requests are all of phases A and B and the hot class of phase C;
	// ok on a hot request means the owner's cached bytes came back.
	hotOK, hotAll := 0, 0
	countHot := func(samples []sample, mixed bool) {
		for _, sm := range samples {
			if mixed && sm.class == classCold {
				continue
			}
			hotAll++
			if sm.ok {
				hotOK++
			}
		}
	}
	countHot(sv.warm, false)
	countHot(sv.routed, false)
	countHot(sv.nonOwner, false)
	countHot(sv.mixed, true)
	L["store.hot_hit_ratio"] = float64(hotOK) / float64(hotAll)
	L["store.maint_recomputed"] = ing.recomputed
	L["store.maint_invalidated"] = ing.invalidated
	L["store.requery_ms"] = median(ing.requeryMS)
	L["dataset.append_ms"] = median(ing.appendMS)
	L["dataset.compact_ms"] = ing.compactMS
	L["dataset.bg_compactions"] = ing.bgCmp
	L["dataset.bytes_per_edge"] = ing.bytesPerEdge
	L["dataset.disk_mb"] = ing.diskMB
	L["loadgen.offered_qps"] = float64(sv.offered) / sv.mixedSeconds
	L["loadgen.achieved_qps"] = float64(len(sv.mixed)-int(countFailed(sv.mixed))) / sv.mixedSeconds
	L["loadgen.late_p99_ms"], _ = tailPercentile(lateMS, 99)

	path := filepath.Join(r.env.out, "trace-"+r.p.name+".json")
	if err := r.rec.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "trace: %d spans written to %s\n", len(r.rec.spans), path)
	r.printSelfTimes()
	r.printBudget(k, sv, ing)
	return L, nil
}

// printSelfTimes prints the trace's per-name totals of self time: each
// span's duration minus what its children cover.
func (r *run) printSelfTimes() {
	by := selfByName(r.rec.spans)
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return by[names[i]] > by[names[j]] })
	fmt.Fprintf(os.Stderr, "self time by span name (%s, ms, summed over the recorded spans):\n", r.p.name)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-28s %10.3f\n", n, float64(by[n])/1e6)
	}
}

// printBudget prints where a cold query, a warm one, a routed one and an
// append each spend their time, from the numbers of this traced run.
func (r *run) printBudget(k *kernel, sv *serving, ing *writing) {
	L := r.layer
	warm := median(latenciesMS(sv.warm, -1))
	routed := median(latenciesMS(sv.routed, -1))
	cold := median(latenciesMS(sv.mixed, classCold))
	handler := L["server.handler_us"] / 1e3
	storeWarm := L["store.warm_call_us"] / 1e3
	compute := cold - L["server.cold_overhead_ms"]
	w := os.Stderr
	fmt.Fprintf(w, "layer budget (%s, medians, ms):\n", r.p.name)
	fmt.Fprintf(w, "  cold query    %8.3f = lb+fleet+http %.3f + compute (store slot, core, quotient, bsp) %.3f\n",
		cold, L["server.cold_overhead_ms"], compute)
	fmt.Fprintf(w, "  warm query    %8.3f = socket+client %.3f + server handler %.3f + store cache %.3f\n",
		warm, warm-handler, handler-storeWarm, storeWarm)
	fmt.Fprintf(w, "  routed query  %8.3f = warm query %.3f + lb hop %.3f\n", routed, warm, L["lb.hop_ms"])
	fmt.Fprintf(w, "  append+query  %8.3f = append (decode, lineage, manifest, maintenance) %.3f + requery %.3f\n",
		median(ing.appendFreshMS), L["dataset.append_ms"], L["store.requery_ms"])
	fmt.Fprintf(w, "  (in-process CL-DIAM on the kernel graph: %.3f = cluster %.3f + quotient build %.3f + quotient diameter %.3f)\n",
		median(k.cldiamS)*1e3, L["core.cluster_s"]*1e3, L["quotient.build_s"]*1e3, L["quotient.diameter_s"]*1e3)
}
