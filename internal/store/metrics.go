package store

import (
	"time"

	"graphdiam/internal/bsp"
	"graphdiam/internal/obs"
)

// Metrics is the store's observability bundle: cache traffic by tier,
// compute-slot pressure, job lifecycle durations, the paper's accounting
// counters mirrored as monotone series, and the BSP engine tracer. A nil
// *Metrics is a valid no-op — every method checks, so instrumentation
// sites stay unconditional and wiring decides whether the store is
// observed.
//
// The graphdiam_bsp_* counters are *observed* from the same completed-run
// snapshots Stats() folds into TotalCost (addCost), never recomputed:
// attaching metrics cannot perturb the paper's golden accounting.
type Metrics struct {
	cacheHits    *obs.CounterVec // tier: local | fleet_raw | fleet_probe
	cacheMisses  *obs.Counter
	coalesces    *obs.Counter
	evictions    *obs.Counter
	computations *obs.Counter
	errors       *obs.Counter

	slotsBusy  *obs.Gauge
	slotsTotal *obs.Gauge

	jobSeconds   *obs.HistogramVec // state
	jobsFinished *obs.CounterVec   // state

	rounds   *obs.Counter
	messages *obs.Counter
	updates  *obs.Counter

	tracer engineTracer
}

// engineTracer implements bsp.Tracer over obs histograms. It lives in
// this package (not obs) so bsp's structural-interface seam keeps both
// bsp and obs free of each other.
type engineTracer struct {
	compute *obs.Histogram
	barrier *obs.Histogram
}

func (t *engineTracer) ObserveSuperstep(compute, barrier time.Duration) {
	t.compute.ObserveDuration(compute)
	t.barrier.ObserveDuration(barrier)
}

// NewMetrics registers the graphdiam_store_* and graphdiam_bsp_* families
// on r and returns the bundle to pass as Config.Metrics.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		cacheHits: r.CounterVec("graphdiam_store_cache_hits_total",
			"Result-cache hits by tier: local LRU, raw fleet push promoted on query, or live fleet probe.",
			"tier"),
		cacheMisses: r.Counter("graphdiam_store_cache_misses_total",
			"Queries that missed every cache tier and became flight leaders."),
		coalesces: r.Counter("graphdiam_store_coalesces_total",
			"Queries that joined an identical in-flight computation (singleflight)."),
		evictions: r.Counter("graphdiam_store_evictions_total",
			"Result-cache entries evicted from the LRU tail."),
		computations: r.Counter("graphdiam_store_computations_total",
			"BSP runs actually executed (fleet-wide misses)."),
		errors: r.Counter("graphdiam_store_errors_total",
			"Computations that failed for reasons other than client cancellation."),
		slotsBusy: r.Gauge("graphdiam_store_compute_slots_busy",
			"BSP compute slots currently held (the slot queue depth)."),
		slotsTotal: r.Gauge("graphdiam_store_compute_slots",
			"Configured compute-slot capacity (MaxConcurrent)."),
		jobSeconds: r.HistogramVec("graphdiam_store_job_seconds",
			"Job wall time from submission to its terminal state, by outcome.",
			obs.DefBuckets, "state"),
		jobsFinished: r.CounterVec("graphdiam_store_jobs_total",
			"Jobs reaching a terminal state, by outcome.", "state"),
		rounds: r.Counter("graphdiam_bsp_rounds_total",
			"Parallel supersteps of completed runs (mirrors the paper's round count)."),
		messages: r.Counter("graphdiam_bsp_messages_total",
			"Inter-partition messages of completed runs (paper work measure)."),
		updates: r.Counter("graphdiam_bsp_updates_total",
			"Node-state updates of completed runs (paper work measure)."),
		tracer: engineTracer{
			compute: r.Histogram("graphdiam_bsp_superstep_compute_seconds",
				"Per-superstep compute time (worker 0's busy time).", obs.FastBuckets),
			barrier: r.Histogram("graphdiam_bsp_superstep_barrier_seconds",
				"Per-superstep barrier wait (time for the slowest worker to finish).", obs.FastBuckets),
		},
	}
}

// Tracer returns the bundle's bsp.Tracer, or nil for a nil bundle (the
// typed-nil guard matters: an interface holding a nil *engineTracer
// would defeat the engine's nil check).
func (m *Metrics) Tracer() bsp.Tracer {
	if m == nil {
		return nil
	}
	return &m.tracer
}

func (m *Metrics) hit(tier string) {
	if m != nil {
		m.cacheHits.With(tier).Inc()
	}
}

func (m *Metrics) miss() {
	if m != nil {
		m.cacheMisses.Inc()
	}
}

func (m *Metrics) coalesce() {
	if m != nil {
		m.coalesces.Inc()
	}
}

func (m *Metrics) eviction() {
	if m != nil {
		m.evictions.Inc()
	}
}

func (m *Metrics) computation() {
	if m != nil {
		m.computations.Inc()
	}
}

func (m *Metrics) errored() {
	if m != nil {
		m.errors.Inc()
	}
}

func (m *Metrics) slotAcquired() {
	if m != nil {
		m.slotsBusy.Inc()
	}
}

func (m *Metrics) slotReleased() {
	if m != nil {
		m.slotsBusy.Dec()
	}
}

func (m *Metrics) setSlotCapacity(n int) {
	if m != nil {
		m.slotsTotal.Set(float64(n))
	}
}

func (m *Metrics) jobFinished(state JobState, d time.Duration) {
	if m != nil {
		m.jobsFinished.With(string(state)).Inc()
		m.jobSeconds.With(string(state)).ObserveDuration(d)
	}
}

// observeCost mirrors one completed run's accounting snapshot into the
// monotone counters — the same snapshot addCost folds into TotalCost.
func (m *Metrics) observeCost(snap bsp.Snapshot) {
	if m != nil {
		m.rounds.Add(snap.Rounds)
		m.messages.Add(snap.Messages)
		m.updates.Add(snap.Updates)
	}
}
