package main

import (
	"context"
	"runtime"
	"sync"
	"time"
)

// diamIdentity is the part of a DiamResult that must repeat bit for bit
// for one (graph, τ, seed) whatever the worker count: everything except
// the wall time.
type diamIdentity struct {
	estimate, quotientDiameter, radius float64
	quotientNodes, quotientEdges       int
	clusters, stages                   int
	growingSteps                       int64
	cost                               Snapshot
}

// acrossWorkers drops the one field that is not invariant under the
// worker count: a node that receives two improving messages in one
// superstep is updated once or twice depending on the order its senders
// are drained in, and that order follows the partition (README, known
// issues). Everything else must match.
func (d diamIdentity) acrossWorkers() diamIdentity {
	d.cost.Updates = 0
	return d
}

func identityOf(r DiamResult) diamIdentity {
	return diamIdentity{r.Estimate, r.QuotientDiameter, r.Radius,
		r.QuotientNodes, r.QuotientEdges,
		r.Clustering.NumClusters(), r.Clustering.Stages, r.Clustering.GrowingSteps, r.Metrics}
}

// stepTracer is the benchmark's bsp.Tracer: it sums worker 0's compute
// time and the barrier wait of every parallel step, and (while leaves is
// set) records one leaf span per step under the current operation.
type stepTracer struct {
	mu        sync.Mutex
	rec       *recorder
	parent    int64
	leaves    bool
	steps     int64
	computeNS int64
	barrierNS int64
}

func (t *stepTracer) ObserveSuperstep(compute, barrier time.Duration) {
	end := time.Now()
	t.mu.Lock()
	t.steps++
	t.computeNS += int64(compute)
	t.barrierNS += int64(barrier)
	parent, leaves := t.parent, t.leaves
	t.mu.Unlock()
	if leaves {
		t.rec.add(parent, "bsp.superstep", end.Add(-compute-barrier), end,
			map[string]any{"compute_ns": int64(compute), "barrier_ns": int64(barrier)})
	}
}

func (t *stepTracer) ObserveComm(time.Duration)      {}
func (t *stepTracer) ObserveAllreduce(time.Duration) {}

// reset starts a new operation and returns the previous totals.
func (t *stepTracer) reset(parent int64, leaves bool) (steps, computeNS, barrierNS int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	steps, computeNS, barrierNS = t.steps, t.computeNS, t.barrierNS
	t.steps, t.computeNS, t.barrierNS = 0, 0, 0
	t.parent, t.leaves = parent, leaves
	return
}

// kernel is the in-process phase: the two algorithms the paper compares,
// CL-DIAM (core.ApproxDiameter) and the Δ-stepping 2-approximation
// (sssp.DiameterUpperBound), called alternately, each call on a fresh
// engine with workers = nproc.
type kernel struct {
	r     *run
	seeds []uint64
	calls int // CL-DIAM calls made so far; picks the next algorithm seed

	cldiamS, deltastepS []float64
	nsPerRelax          []float64
	first               map[uint64]diamIdentity // per algorithm seed
	firstDS             map[NodeID]DeltaResult  // per source

	// Traced runs only.
	tr                                            *stepTracer
	tracedS, w1S, clusterS, buildS, qdiamS        []float64
	steps, computeS, barrierS, dsSteps, dsBarrier []float64
	firstCluster                                  *Clustering
	firstCost                                     Snapshot
	qNodes, qEdges                                int
}

// algoSeeds is how many CL-DIAM seeds, and how many Δ-stepping sources, a
// run cycles through. What one call costs (rounds, work, relaxations, and
// with them time) is exact per (graph, seed or source) but differs a lot
// between them — ±20 % in relaxations between two sources of one R-MAT
// graph; a median over five moves far less from one --seed to the next
// than any single value.
const algoSeeds = 5

// source returns the i-th Δ-stepping source: nodes n/6, 2n/6, … 5n/6, so
// the third is the node n/2 that Δ was tuned from.
func (k *kernel) source(i int) NodeID {
	n := k.r.in.kernel.NumNodes()
	return NodeID((i%algoSeeds + 1) * n / (algoSeeds + 1))
}

// newKernel makes one untimed call of each algorithm, so lazy set-up
// (page faults on the CSR, the runtime growing its heap) is not charged
// to the first sample.
func (r *run) newKernel() (*kernel, error) {
	k := &kernel{r: r, first: map[uint64]diamIdentity{}, firstDS: map[NodeID]DeltaResult{}, seeds: make([]uint64, algoSeeds)}
	for i := range k.seeds {
		k.seeds[i] = seedFor(r.seed, purposeAlgo, i)
	}
	if r.rec != nil {
		k.tr = &stepTracer{rec: r.rec}
	}
	if _, _, err := r.clDiam(k.seeds[0], r.nproc, nil, nil); err != nil {
		return nil, err
	}
	_, _, _, err := r.deltaStep(k.source(0), nil)
	return k, err
}

func (r *run) clDiam(seed uint64, workers int, tr Tracer, progress func(Progress)) (DiamResult, time.Duration, error) {
	e := bspNew(workers)
	defer e.Close()
	if tr != nil {
		e.SetTracer(tr)
	}
	opts := DiamOptions{Options: ClusterOptions{Tau: r.in.tau, Seed: seed, Engine: e}}
	if progress != nil {
		opts.Progress = progress
	}
	t0 := time.Now()
	res, err := coreApproxDiameter(context.Background(), r.in.kernel, opts)
	return res, time.Since(t0), err
}

func (r *run) deltaStep(src NodeID, tr Tracer) (float64, DeltaResult, time.Duration, error) {
	e := bspNew(r.nproc)
	defer e.Close()
	if tr != nil {
		e.SetTracer(tr)
	}
	g := r.in.kernel
	t0 := time.Now()
	ub, dr, err := ssspDiameterUpperBound(context.Background(), g, src, r.in.delta, e)
	return ub, dr, time.Since(t0), err
}

// checkDiam applies the per-call correctness checks of CL-DIAM: the
// estimate is conservative, and the result for a seed never changes.
func (k *kernel) checkDiam(seed uint64, res DiamResult) {
	r := k.r
	r.tally.check("cldiam estimate >= lower bound", res.Estimate >= r.in.lower,
		"estimate %v < lower bound %v (seed %d)", res.Estimate, r.in.lower, seed)
	id := identityOf(res)
	if prev, ok := k.first[seed]; ok {
		r.tally.check("cldiam result repeats", prev == id, "seed %d: %+v != %+v", seed, id, prev)
	} else {
		k.first[seed] = id
	}
}

func (k *kernel) checkDS(src NodeID, ub float64, dr DeltaResult) {
	r := k.r
	r.tally.check("deltastep bound >= lower bound", ub >= r.in.lower,
		"upper bound %v below lower bound %v", ub, r.in.lower)
	f, seen := k.firstDS[src]
	if !seen {
		k.firstDS[src] = DeltaResult{Rounds: dr.Rounds, Relaxations: dr.Relaxations, Updates: dr.Updates, Delta: dr.Delta}
		return
	}
	r.tally.check("deltastep costs repeat", f.Rounds == dr.Rounds && f.Relaxations == dr.Relaxations && f.Updates == dr.Updates,
		"rounds/relaxations/updates %d/%d/%d != %d/%d/%d", dr.Rounds, dr.Relaxations, dr.Updates, f.Rounds, f.Relaxations, f.Updates)
}

// timedPair makes one untraced call of each algorithm and records both.
func (k *kernel) timedPair() (seed uint64, src NodeID, err error) {
	r := k.r
	seed, src = k.seeds[k.calls%algoSeeds], k.source(k.calls)
	k.calls++
	res, dt, err := r.clDiam(seed, r.nproc, nil, nil)
	r.tally.op(err == nil)
	if err != nil {
		return seed, src, err
	}
	k.checkDiam(seed, res)
	k.cldiamS = append(k.cldiamS, dt.Seconds())

	ub, dr, dt, err := r.deltaStep(src, nil)
	r.tally.op(err == nil)
	if err != nil {
		return seed, src, err
	}
	k.checkDS(src, ub, dr)
	k.deltastepS = append(k.deltastepS, dt.Seconds())
	k.nsPerRelax = append(k.nsPerRelax, float64(dt)/float64(dr.Relaxations))
	return seed, src, nil
}

// overSeeds returns the median over the algorithm seeds of one exact
// quantity of CL-DIAM's result. Every lap makes at least one call and
// the seeds are taken in turn, so all five have been run.
func (k *kernel) overSeeds(f func(diamIdentity) float64) float64 {
	var xs []float64
	for _, seed := range k.seeds {
		if id, ok := k.first[seed]; ok {
			xs = append(xs, f(id))
		}
	}
	return median(xs)
}

// lap measures for d (at least one pair of calls). On a traced run every
// untraced pair is followed by the same calls under the benchmark's
// tracer, the three stages of CL-DIAM called one by one, and a workers=1
// call.
func (k *kernel) lap(d time.Duration) error {
	stop := time.Now().Add(d)
	for first := true; first || time.Now().Before(stop); first = false {
		seed, src, err := k.timedPair()
		if err != nil {
			return err
		}
		if k.tr != nil {
			if err := k.tracedRound(seed, src); err != nil {
				return err
			}
		}
	}
	return nil
}

func (k *kernel) tracedRound(seed uint64, src NodeID) error {
	r, tr := k.r, k.tr
	g := r.in.kernel
	leaves := len(k.tracedS) == 0 // leaf spans for the first round only: they are many

	root := r.rec.start(0, "op.cldiam")
	tr.reset(root, leaves)
	stageStart := time.Now()
	res, dt, err := r.clDiam(seed, r.nproc, tr, func(p Progress) {
		now := time.Now()
		r.rec.add(root, "core.stage."+p.Phase, stageStart, now,
			map[string]any{"stage": p.Stage, "delta": p.Delta, "covered": p.Covered})
		stageStart = now
	})
	r.rec.end(root, map[string]any{"seed": seed, "rounds": res.Metrics.Rounds})
	r.tally.op(err == nil)
	if err != nil {
		return err
	}
	k.checkDiam(seed, res)
	n, c, b := tr.reset(0, false)
	r.tally.check("bsp compute+barrier <= cldiam wall", time.Duration(c+b) <= dt,
		"compute %v + barrier %v > wall %v", time.Duration(c), time.Duration(b), dt)
	k.tracedS = append(k.tracedS, dt.Seconds())
	k.steps = append(k.steps, float64(n))
	k.computeS = append(k.computeS, float64(c)/1e9)
	k.barrierS = append(k.barrierS, float64(b)/1e9)

	root = r.rec.start(0, "op.deltastep")
	tr.reset(root, leaves)
	ub, dr, _, err := r.deltaStep(src, tr)
	r.rec.end(root, map[string]any{"source": src, "rounds": dr.Rounds})
	r.tally.op(err == nil)
	if err != nil {
		return err
	}
	k.checkDS(src, ub, dr)
	n, _, b = tr.reset(0, false)
	k.dsSteps = append(k.dsSteps, float64(n))
	k.dsBarrier = append(k.dsBarrier, float64(b)/1e9)

	// The stages of CL-DIAM one by one, as core.ApproxDiameter chains them.
	e := bspNew(r.nproc)
	defer e.Close()
	root = r.rec.start(0, "op.cldiam.staged")
	sp := r.rec.start(root, "core.Cluster")
	t0 := time.Now()
	cl, err := coreCluster(context.Background(), g, ClusterOptions{Tau: r.in.tau, Seed: seed, Engine: e})
	k.clusterS = append(k.clusterS, time.Since(t0).Seconds())
	r.rec.end(sp, nil)
	r.tally.op(err == nil)
	if err != nil {
		return err
	}
	sp = r.rec.start(root, "quotient.Build")
	t0 = time.Now()
	q, _ := quotientBuild(g, cl.Center, cl.Dist, e)
	k.buildS = append(k.buildS, time.Since(t0).Seconds())
	r.rec.end(sp, nil)
	sp = r.rec.start(root, "quotient.Diameter")
	t0 = time.Now()
	qd := quotientDiameter(q, e, QuotientOptions{})
	k.qdiamS = append(k.qdiamS, time.Since(t0).Seconds())
	r.rec.end(sp, nil)
	r.rec.end(root, nil)
	r.tally.check("staged CL-DIAM equals ApproxDiameter", qd+2*cl.Radius == res.Estimate,
		"staged %v != %v", qd+2*cl.Radius, res.Estimate)
	if k.firstCluster == nil {
		k.firstCluster, k.firstCost = cl, res.Metrics
		k.qNodes, k.qEdges = q.NumNodes(), q.NumEdges()
	}

	w1, dt, err := r.clDiam(seed, 1, nil, nil)
	r.tally.op(err == nil)
	if err != nil {
		return err
	}
	k.checkAcrossWorkers(seed, w1)
	k.w1S = append(k.w1S, dt.Seconds())
	return nil
}

func (k *kernel) checkAcrossWorkers(seed uint64, w1 DiamResult) {
	k.r.tally.check("cldiam identical at workers=1 and workers=nproc",
		identityOf(w1).acrossWorkers() == k.first[seed].acrossWorkers(),
		"%+v != %+v", identityOf(w1), k.first[seed])
}

// finish runs what needs to happen once, after the laps: the determinism
// check across worker counts on an untraced run, the per-layer numbers
// on a traced one.
func (k *kernel) finish() (map[string]float64, error) {
	r := k.r
	if k.tr == nil {
		w1, _, err := r.clDiam(k.seeds[0], 1, nil, nil)
		r.tally.op(err == nil)
		if err != nil {
			return nil, err
		}
		k.checkAcrossWorkers(k.seeds[0], w1)
		return nil, nil
	}
	g := r.in.kernel
	// Allocation of one CL-DIAM call, and the single-threaded baselines.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := r.clDiam(k.seeds[0], r.nproc, nil, nil); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	t0 := time.Now()
	ssspDijkstra(g, NodeID(g.NumNodes()/2))
	dijkstraS := time.Since(t0).Seconds()
	t0 = time.Now()
	ccLargest(g)
	ccS := time.Since(t0).Seconds()

	cld, cost, cl := median(k.cldiamS), k.firstCost, k.firstCluster
	ds := k.firstDS[k.source(2)] // the run from node n/2; five laps reach every source
	offsets, targets, weights := g.RawCSR()
	return map[string]float64{
		"core.cluster_s":        median(k.clusterS),
		"core.stages":           float64(cl.Stages),
		"core.grow_steps":       float64(cl.GrowingSteps),
		"core.num_clusters":     float64(cl.NumClusters()),
		"core.radius":           cl.Radius,
		"core.ns_per_work":      cld * 1e9 / float64(cost.Work()),
		"core.update_ratio":     float64(cost.Updates) / float64(cost.Messages),
		"core.cldiam_w1_s":      median(k.w1S),
		"core.parallel_eff":     median(k.w1S) / (float64(r.nproc) * cld),
		"core.alloc_mb_per_run": float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		"core.allocs_per_run":   float64(after.Mallocs - before.Mallocs),
		"quotient.build_s":      median(k.buildS),
		"quotient.diameter_s":   median(k.qdiamS),
		"quotient.nodes":        float64(k.qNodes),
		"quotient.edges":        float64(k.qEdges),
		"bsp.supersteps":        median(k.steps),
		"bsp.compute_s":         median(k.computeS),
		"bsp.barrier_s":         median(k.barrierS),
		"bsp.barrier_share":     median(k.barrierS) / median(k.tracedS),
		"bsp.us_per_superstep":  median(k.tracedS) * 1e6 / median(k.steps),
		"bsp.rounds":            float64(cost.Rounds),
		"bsp.messages":          float64(cost.Messages),
		"bsp.updates":           float64(cost.Updates),
		"sssp.rounds":           float64(ds.Rounds),
		"sssp.relaxations":      float64(ds.Relaxations),
		"sssp.updates":          float64(ds.Updates),
		"sssp.ns_per_relax":     median(k.nsPerRelax),
		"sssp.supersteps":       median(k.dsSteps),
		"sssp.barrier_s":        median(k.dsBarrier),
		"pq.dijkstra_s":         dijkstraS,
		"cc.largest_s":          ccS,
		"graph.csr_mb":          float64(8*len(offsets)+4*len(targets)+8*len(weights)) / (1 << 20),
		"trace.overhead_ratio":  median(k.tracedS) / cld,
	}, nil
}
