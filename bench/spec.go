package main

// The benchmark's vocabulary: workloads and metrics. BENCHMARK.json at the
// repository root states the same lists for the driver; spec_test.go keeps
// the two from drifting apart.

// params is one workload: the inputs one run of the pipeline is fed.
// Every workload runs the same pipeline — set-up, kernel phase, serve
// phases A/B/C, ingest phase — and reports the same metrics; they differ
// in graph family, sizes and traffic mix only, never in code path.
type params struct {
	name string
	why  string

	kernelSpec string // graph of the kernel phase; "" = the first served dataset
	dataSpec   string // graphs the fleet serves
	datasets   int
	hotSeeds   int // hot keys = datasets × hotSeeds
	ingestSpec string

	cacheEntries int     // graphdiamd -max-entries
	rate         float64 // phase C arrivals per second
	coldShare    float64 // share of phase C requests that name a never-seen seed
	deltaRecords int     // insertions per append
	chain        int     // delta-chain length of the fault-in dataset

	// Shares of --seconds given to the timed phases; they sum to 1.
	shareKernel, shareWarm, shareRouted, shareMixed, shareAppend, shareFault float64
	// ingestPerSecond sets how many texts the ingest phase posts:
	// round(ingestPerSecond × --seconds), at least 4.
	ingestPerSecond float64
}

var workloads = []params{
	{
		name:       "road",
		why:        "high-diameter degree-4 road networks: ~100 sparse CL-DIAM rounds, thousands of Δ-stepping rounds, so per-superstep overhead dominates",
		kernelSpec: "road:640", dataSpec: "road:192", ingestSpec: "road:256",
		datasets: 4, hotSeeds: 4, cacheEntries: 128, rate: 250, coldShare: 0.04,
		deltaRecords: 64, chain: 6,
		shareKernel: 0.30, shareWarm: 0.08, shareRouted: 0.08, shareMixed: 0.26, shareAppend: 0.14, shareFault: 0.14,
		ingestPerSecond: 0.5,
	},
	{
		name:       "rmat",
		why:        "low-diameter power-law R-MAT graphs: ~23 rounds of dense frontiers, so per-edge relaxation, mailbox exchange and the quotient dominate",
		kernelSpec: "rmat:15", dataSpec: "rmat:12", ingestSpec: "rmat:12",
		datasets: 4, hotSeeds: 4, cacheEntries: 128, rate: 250, coldShare: 0.04,
		deltaRecords: 64, chain: 6,
		shareKernel: 0.30, shareWarm: 0.08, shareRouted: 0.08, shareMixed: 0.26, shareAppend: 0.14, shareFault: 0.14,
		ingestPerSecond: 0.5,
	},
	{
		name:       "serve",
		why:        "read-heavy mix on road datasets: hot set plus cold stream larger than the 64-entry result cache, so LRU eviction runs while hot keys must still hit",
		kernelSpec: "", dataSpec: "road:224", ingestSpec: "road:192",
		datasets: 4, hotSeeds: 8, cacheEntries: 64, rate: 300, coldShare: 0.04,
		deltaRecords: 64, chain: 6,
		shareKernel: 0.12, shareWarm: 0.14, shareRouted: 0.14, shareMixed: 0.36, shareAppend: 0.12, shareFault: 0.12,
		ingestPerSecond: 0.4,
	},
	{
		name:       "ingest",
		why:        "write-heavy mix: larger uploads, 512-record deltas and a chain past the compaction threshold, so parse, snapshot write, lineage and cache maintenance dominate",
		kernelSpec: "", dataSpec: "road:192", ingestSpec: "road:320",
		datasets: 4, hotSeeds: 4, cacheEntries: 128, rate: 250, coldShare: 0.04,
		deltaRecords: 512, chain: 7,
		shareKernel: 0.12, shareWarm: 0.08, shareRouted: 0.08, shareMixed: 0.24, shareAppend: 0.24, shareFault: 0.24,
		ingestPerSecond: 0.5,
	},
}

func workloadByName(name string) (params, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return params{}, false
}

// metricSpec names one metric. Bound (end-to-end only) is the share of
// the parent's median by which the metric may worsen before a change
// counts as a regression.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"cldiam_s", "s", "lower", 0.25},
	{"deltastep_s", "s", "lower", 0.25},
	{"cldiam_rounds", "count", "lower", 0.10},
	{"cldiam_work", "count", "lower", 0.10},
	{"approx_ratio", "ratio", "lower", 0.25},
	{"warm_qps", "req/s", "higher", 0.25},
	{"warm_p50_ms", "ms", "lower", 0.25},
	{"routed_p50_ms", "ms", "lower", 0.25},
	{"cold_p50_ms", "ms", "lower", 0.25},
	{"mixed_p99_ms", "ms", "lower", 0.25},
	{"ingest_mb_per_s", "MB/s", "higher", 0.25},
	{"fault_in_ms", "ms", "lower", 0.25},
	{"append_fresh_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

var perLayer = []metricSpec{
	// core
	{Name: "core.cluster_s", Unit: "s", Better: "lower"},
	{Name: "core.stages", Unit: "count", Better: "lower"},
	{Name: "core.grow_steps", Unit: "count", Better: "lower"},
	{Name: "core.num_clusters", Unit: "count", Better: "lower"},
	{Name: "core.radius", Unit: "weight", Better: "lower"},
	{Name: "core.ns_per_work", Unit: "ns", Better: "lower"},
	{Name: "core.update_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.cldiam_w1_s", Unit: "s", Better: "lower"},
	{Name: "core.parallel_eff", Unit: "ratio", Better: "higher"},
	{Name: "core.alloc_mb_per_run", Unit: "MB", Better: "lower"},
	{Name: "core.allocs_per_run", Unit: "count", Better: "lower"},
	// quotient
	{Name: "quotient.build_s", Unit: "s", Better: "lower"},
	{Name: "quotient.diameter_s", Unit: "s", Better: "lower"},
	{Name: "quotient.nodes", Unit: "count", Better: "lower"},
	{Name: "quotient.edges", Unit: "count", Better: "lower"},
	// bsp (CL-DIAM under the benchmark's tracer)
	{Name: "bsp.supersteps", Unit: "count", Better: "lower"},
	{Name: "bsp.compute_s", Unit: "s", Better: "lower"},
	{Name: "bsp.barrier_s", Unit: "s", Better: "lower"},
	{Name: "bsp.barrier_share", Unit: "ratio", Better: "lower"},
	{Name: "bsp.us_per_superstep", Unit: "us", Better: "lower"},
	{Name: "bsp.rounds", Unit: "count", Better: "lower"},
	{Name: "bsp.messages", Unit: "count", Better: "lower"},
	{Name: "bsp.updates", Unit: "count", Better: "lower"},
	// sssp
	{Name: "sssp.rounds", Unit: "count", Better: "lower"},
	{Name: "sssp.relaxations", Unit: "count", Better: "lower"},
	{Name: "sssp.updates", Unit: "count", Better: "lower"},
	{Name: "sssp.ns_per_relax", Unit: "ns", Better: "lower"},
	{Name: "sssp.supersteps", Unit: "count", Better: "lower"},
	{Name: "sssp.barrier_s", Unit: "s", Better: "lower"},
	{Name: "sssp.tune_s", Unit: "s", Better: "lower"},
	// pq, validate, gen, cc, graph, gio
	{Name: "pq.dijkstra_s", Unit: "s", Better: "lower"},
	{Name: "validate.lowerbound_s", Unit: "s", Better: "lower"},
	{Name: "gen.build_s", Unit: "s", Better: "lower"},
	{Name: "cc.largest_s", Unit: "s", Better: "lower"},
	{Name: "graph.csr_mb", Unit: "MB", Better: "lower"},
	{Name: "gio.parse_mb_per_s", Unit: "MB/s", Better: "higher"},
	// graphdiamlb, fleet
	{Name: "lb.hop_ms", Unit: "ms", Better: "lower"},
	{Name: "lb.rss_mb", Unit: "MB", Better: "lower"},
	{Name: "fleet.nonowner_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.proxy_attempts", Unit: "count", Better: "lower"},
	{Name: "fleet.failover_hops", Unit: "count", Better: "lower"},
	// server
	{Name: "server.warm_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.handler_us", Unit: "us", Better: "lower"},
	{Name: "server.cold_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "server.http_requests", Unit: "count", Better: "lower"},
	{Name: "server.ingest_overhead_ms", Unit: "ms", Better: "lower"},
	// store
	{Name: "store.warm_call_us", Unit: "us", Better: "lower"},
	{Name: "store.cold_call_ms", Unit: "ms", Better: "lower"},
	{Name: "store.hits", Unit: "count", Better: "higher"},
	{Name: "store.misses", Unit: "count", Better: "lower"},
	{Name: "store.computations", Unit: "count", Better: "lower"},
	{Name: "store.coalesces", Unit: "count", Better: "higher"},
	{Name: "store.evictions", Unit: "count", Better: "lower"},
	{Name: "store.hot_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "store.maint_recomputed", Unit: "count", Better: "lower"},
	{Name: "store.maint_invalidated", Unit: "count", Better: "lower"},
	{Name: "store.requery_ms", Unit: "ms", Better: "lower"},
	// dataset
	{Name: "dataset.ingest_s", Unit: "s", Better: "lower"},
	{Name: "dataset.snapshot_write_s", Unit: "s", Better: "lower"},
	{Name: "dataset.load_snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "dataset.load_chain_ms", Unit: "ms", Better: "lower"},
	{Name: "dataset.append_ms", Unit: "ms", Better: "lower"},
	{Name: "dataset.append_call_ms", Unit: "ms", Better: "lower"},
	{Name: "dataset.compact_ms", Unit: "ms", Better: "lower"},
	{Name: "dataset.bg_compactions", Unit: "count", Better: "lower"},
	{Name: "dataset.bytes_per_edge", Unit: "B", Better: "lower"},
	{Name: "dataset.disk_mb", Unit: "MB", Better: "lower"},
	// runtime and the load generator itself
	{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.offered_qps", Unit: "req/s", Better: "higher"},
	{Name: "loadgen.achieved_qps", Unit: "req/s", Better: "higher"},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}
