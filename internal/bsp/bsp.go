// Package bsp provides the bulk-synchronous parallel execution substrate on
// which graphdiam's distributed algorithms run.
//
// The paper evaluates its algorithms on a 16-node Spark cluster and compares
// them through platform-independent metrics: the number of rounds (parallel
// supersteps, each of which costs a full communication phase in a
// MapReduce-like system) and the work (node updates plus messages
// generated). This package simulates that environment in-process: an Engine
// owns P workers — the stand-ins for machines — that execute supersteps
// over contiguous node partitions, separated by barriers, while a Metrics
// struct accumulates exactly the counters the paper reports.
//
// An Engine may be bound to a context.Context (Bind); cancellation is
// observed cooperatively at superstep barriers only, so the per-edge hot
// path pays nothing and an abort lands within one superstep (see DESIGN.md
// "Cancellation at superstep barriers only").
//
// The companion package internal/mr implements the rigorous MR(M_T, M_L)
// key-value model of Pietracaprina et al. for validating round complexities
// of the primitives; algorithms use this package for throughput.
package bsp

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics accumulates the paper's platform-independent cost measures.
// All fields are updated atomically and may be read concurrently.
type Metrics struct {
	rounds   atomic.Int64
	messages atomic.Int64
	updates  atomic.Int64
}

// Snapshot is an immutable copy of the metrics at a point in time.
type Snapshot struct {
	// Rounds is the number of parallel supersteps executed. In a
	// MapReduce-like system each superstep is a constant number of
	// communication rounds (Fact 1 of the paper).
	Rounds int64 `json:"rounds"`
	// Messages counts inter-partition notifications generated (the
	// "messages" component of the paper's work measure).
	Messages int64 `json:"messages"`
	// Updates counts node-state writes (the "node updates" component).
	Updates int64 `json:"updates"`
}

// Work returns the paper's aggregate work measure: updates + messages.
func (s Snapshot) Work() int64 { return s.Updates + s.Messages }

// String renders the snapshot compactly for logs and tables.
func (s Snapshot) String() string {
	return fmt.Sprintf("rounds=%d updates=%d messages=%d work=%d",
		s.Rounds, s.Updates, s.Messages, s.Work())
}

// AddRounds adds k supersteps to the round count.
func (m *Metrics) AddRounds(k int64) { m.rounds.Add(k) }

// AddMessages adds k generated messages.
func (m *Metrics) AddMessages(k int64) { m.messages.Add(k) }

// AddUpdates adds k node updates.
func (m *Metrics) AddUpdates(k int64) { m.updates.Add(k) }

// Snapshot returns a consistent-enough copy for reporting (individual
// counters are read atomically).
func (m *Metrics) Snapshot() Snapshot {
	return Snapshot{
		Rounds:   m.rounds.Load(),
		Messages: m.messages.Load(),
		Updates:  m.updates.Load(),
	}
}

// Reset zeroes all counters.
func (m *Metrics) Reset() {
	m.rounds.Store(0)
	m.messages.Store(0)
	m.updates.Store(0)
}

// Engine executes supersteps across a fixed number of workers. It is safe
// for sequential reuse; a single Engine must not run two supersteps
// concurrently.
//
// Concurrent engines (workers > 1, not simulated) dispatch supersteps to a
// persistent pool of long-lived worker goroutines parked on a reusable
// barrier, so the thousands of ParallelFor/Superstep calls of a typical run
// pay no goroutine spawning. The pool starts lazily on the first parallel
// dispatch; Close releases it. Engines that are never closed explicitly are
// drained by a finalizer once unreachable, but callers owning an engine's
// lifecycle (the store, the CLIs, the experiments harness) should Close.
type Engine struct {
	workers  int
	simulate bool
	closed   bool
	ctx      context.Context // nil means context.Background (never cancelled)
	critPath atomic.Int64    // ns; accumulated max per-step worker time
	metrics  Metrics
	tracer   Tracer      // nil disables wall-clock tracing (the default)
	pool     *workerPool // lazily started; nil for sequential/simulated engines
	dist     *distEngine // non-nil when workers span processes (see dist.go)
}

// Tracer receives wall-clock timings from an engine's supersteps. It
// exists so the observability layer can watch the engine without this
// package importing it (any type with this method satisfies it
// structurally). Implementations must be safe for concurrent use; a nil
// tracer costs one branch per superstep, which is what keeps the
// accounting benchmarks inside the regression gate.
//
// Tracing measures wall-clock only — it never touches Metrics, so the
// paper's rounds/messages/updates accounting stays bit-identical whether
// a tracer is attached or not.
type Tracer interface {
	// ObserveSuperstep reports one parallel step: compute is worker 0's
	// busy time, barrier the extra time spent waiting for the slowest
	// worker to reach the barrier.
	ObserveSuperstep(compute, barrier time.Duration)
}

// SetTracer attaches t (nil detaches) and returns the engine for
// chaining. Simulated engines ignore the tracer: their sequential
// execution would report meaningless wall-clock splits, and they already
// accumulate CriticalPath.
func (e *Engine) SetTracer(t Tracer) *Engine {
	e.tracer = t
	return e
}

// workerPool is the persistent execution crew of a concurrent engine:
// workers-1 goroutines parked between supersteps (the dispatching goroutine
// itself acts as worker 0). A dispatch publishes the task function, releases
// every parked goroutine through its run channel, executes worker 0's share
// inline, and waits on a countdown barrier for the rest.
//
// The pool deliberately never references its Engine between dispatches (fn
// is cleared at the barrier), so an abandoned engine becomes unreachable and
// its finalizer can drain the pool.
type workerPool struct {
	workers int
	fn      func(w int)     // current task; set before release, cleared after
	pending atomic.Int32    // workers not yet done with the current task
	busy    atomic.Bool     // reentry guard: one dispatch at a time
	run     []chan struct{} // one buffered slot per parked goroutine
	done    chan struct{}   // signalled by the last finisher (if not worker 0)
	quit    chan struct{}   // closed by Engine.Close / the finalizer
}

func newWorkerPool(workers int) *workerPool {
	p := &workerPool{
		workers: workers,
		run:     make([]chan struct{}, workers-1),
		done:    make(chan struct{}),
		quit:    make(chan struct{}),
	}
	for i := range p.run {
		p.run[i] = make(chan struct{}, 1)
		go p.work(i)
	}
	return p
}

func (p *workerPool) work(slot int) {
	for {
		select {
		case <-p.quit:
			return
		case <-p.run[slot]:
			p.fn(slot + 1)
			if p.pending.Add(-1) == 0 {
				p.done <- struct{}{}
			}
		}
	}
}

// dispatch runs fn(w) for every w in [0, workers), worker 0 on the calling
// goroutine, returning when all have finished. The channel send/receive pair
// per worker establishes the happens-before edges of the barrier.
//
// Engines have always forbidden concurrent supersteps; with a shared pool
// that misuse would silently corrupt the barrier state, so it now panics
// loudly instead (two atomic ops per superstep — noise).
func (p *workerPool) dispatch(fn func(w int)) {
	if !p.busy.CompareAndSwap(false, true) {
		panic("bsp: concurrent supersteps dispatched on one Engine")
	}
	defer p.busy.Store(false)
	p.fn = fn
	p.pending.Store(int32(p.workers))
	for _, c := range p.run {
		c <- struct{}{}
	}
	fn(0)
	if p.pending.Add(-1) != 0 {
		<-p.done
	}
	p.fn = nil
}

// New returns an engine with the given number of workers. workers <= 0
// selects runtime.GOMAXPROCS(0).
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{workers: workers}
}

// NewSimulated returns an engine that executes workers sequentially while
// measuring each worker's compute time and accumulating the per-step
// maximum — the critical path a real P-machine cluster would pay
// (communication aside). This reproduces machine-scaling experiments
// faithfully on hosts with fewer physical cores than simulated machines;
// results are identical to the concurrent engine by the determinism of the
// algorithms.
func NewSimulated(workers int) *Engine {
	e := New(workers)
	e.simulate = true
	return e
}

// CriticalPath returns the accumulated simulated parallel compute time.
// Zero unless the engine was created with NewSimulated.
func (e *Engine) CriticalPath() time.Duration {
	return time.Duration(e.critPath.Load())
}

// ResetCriticalPath zeroes the simulated-time accumulator.
func (e *Engine) ResetCriticalPath() { e.critPath.Store(0) }

// Workers returns the configured degree of parallelism (the simulated
// machine count).
func (e *Engine) Workers() int { return e.workers }

// Bind attaches ctx to the engine for cooperative cancellation and returns
// the engine for chaining. The context is consulted only at superstep
// barriers — never inside worker loops — so the per-edge hot path pays
// nothing for cancellability and an abort lands within one superstep.
// Binding nil restores the never-cancelled default.
func (e *Engine) Bind(ctx context.Context) *Engine {
	e.ctx = ctx
	return e
}

// Context returns the bound context (context.Background if none was bound).
func (e *Engine) Context() context.Context {
	if e.ctx == nil {
		return context.Background()
	}
	return e.ctx
}

// Err returns the bound context's error — or, for distributed engines, the
// sticky first transport failure — nil while the run may proceed. Algorithms
// check it between supersteps and abandon the run when non-nil.
func (e *Engine) Err() error {
	if e.dist != nil && e.dist.err != nil {
		return e.dist.err
	}
	if e.ctx == nil {
		return nil
	}
	return e.ctx.Err()
}

// Metrics returns the engine's metrics accumulator.
func (e *Engine) Metrics() *Metrics { return &e.metrics }

// Partition returns the contiguous range [start, end) of items owned by
// worker w out of n items. Ranges differ in size by at most one.
func (e *Engine) Partition(n, w int) (start, end int) {
	per := n / e.workers
	rem := n % e.workers
	start = w*per + min(w, rem)
	end = start + per
	if w < rem {
		end++
	}
	return start, end
}

// Owner returns the worker owning item i of n under Partition.
//
// Owner pays two integer divisions per call; message-routing hot loops
// should hoist a Router once per run instead.
func (e *Engine) Owner(n, i int) int {
	per := n / e.workers
	rem := n % e.workers
	// Items [0, rem*(per+1)) belong to the first rem workers.
	boundary := rem * (per + 1)
	if i < boundary {
		return i / (per + 1)
	}
	if per == 0 {
		return e.workers - 1
	}
	return rem + (i-boundary)/per
}

// Router is a precomputed O(1) owner lookup for the engine's partition of
// [0, n): the two per-range divisions of Owner are replaced by exact
// reciprocal multiplications (the division-free scheme of Lemire et al.,
// "Faster remainder by direct computation": for d < 2³², x < 2³² and
// c = ⌊2⁶⁴/d⌋+1, ⌊c·x/2⁶⁴⌋ = ⌊x/d⌋), hoisted once per run. Routers are
// values; copy them freely into hot loops.
type Router struct {
	n        uint32 // items routed: [0, n)
	boundary uint32 // items below this belong to the (per+1)-sized ranges
	rem      uint32 // number of (per+1)-sized ranges
	cBig     uint64 // reciprocal of per+1
	cSmall   uint64 // reciprocal of max(per, 1)
}

// Router returns the O(1) owner lookup for n items under the engine's
// Partition. It agrees with Owner(n, i) for every i in [0, n).
func (e *Engine) Router(n int) Router {
	per := uint32(n / e.workers)
	rem := uint32(n % e.workers)
	small := per
	if small == 0 {
		small = 1 // never consulted: boundary == n when per == 0
	}
	return Router{
		n:        uint32(n),
		boundary: rem * (per + 1),
		rem:      rem,
		cBig:     reciprocal(per + 1),
		cSmall:   reciprocal(small),
	}
}

// reciprocal returns ⌊2⁶⁴/d⌋+1 (for powers of two the exact 2⁶⁴/d, which is
// also exact in the multiply-shift), the constant of the Lemire scheme. For
// d == 1 the constant is 2⁶⁴, unrepresentable — it wraps to 0, which Owner
// treats as the identity-division sentinel.
func reciprocal(d uint32) uint64 { return ^uint64(0)/uint64(d) + 1 }

// Owner returns the worker owning item i. i must be in [0, n) for the n the
// router was built with.
func (r Router) Owner(i uint32) int {
	if i < r.boundary {
		if r.cBig == 0 { // unit ranges (divisor 1)
			return int(i)
		}
		hi, _ := bits.Mul64(r.cBig, uint64(i))
		return int(hi)
	}
	off := i - r.boundary
	if r.cSmall == 0 { // unit ranges (divisor 1)
		return int(r.rem + off)
	}
	hi, _ := bits.Mul64(r.cSmall, uint64(off))
	return int(r.rem) + int(hi)
}

// ParallelFor runs fn once per worker over its partition of [0, n),
// blocking until all complete. It does not count a round; use Superstep
// for metered steps.
//
// Distributed engines execute only the workers this process owns
// (OwnedWorkers); the partition geometry is still that of the full P
// workers, so worker indices, ranges, and routing are identical to the
// single-process run.
//
// When the bound context is already cancelled, fn is not executed at all:
// the step degenerates to a no-op barrier so that an algorithm whose
// cancellation check lives a few supersteps up the call chain cannot keep
// burning CPU on work that will be discarded.
func (e *Engine) ParallelFor(n int, fn func(worker, start, end int)) {
	if e.Err() != nil {
		return
	}
	lo, hi := 0, e.workers
	if e.dist != nil {
		lo, hi = e.dist.ownLo, e.dist.ownHi
	}
	if e.simulate {
		var maxNS int64
		for w := lo; w < hi; w++ {
			start, end := e.Partition(n, w)
			t0 := time.Now()
			fn(w, start, end)
			if d := int64(time.Since(t0)); d > maxNS {
				maxNS = d
			}
		}
		e.critPath.Add(maxNS)
		return
	}
	if hi-lo == 1 {
		start, end := e.Partition(n, lo)
		if t := e.tracer; t != nil {
			t0 := time.Now()
			fn(lo, start, end)
			t.ObserveSuperstep(time.Since(t0), 0)
			return
		}
		fn(lo, start, end)
		return
	}
	if e.pool == nil && !e.closed {
		e.pool = newWorkerPool(hi - lo)
		// Safety net for engines abandoned without Close (e.g. defaulted
		// engines deep inside a run): drain the pool once unreachable.
		runtime.SetFinalizer(e, (*Engine).Close)
	}
	if p := e.pool; p != nil {
		if t := e.tracer; t != nil {
			// Worker 0 runs on the dispatching goroutine, so its busy time
			// is the step's compute sample and the remainder of the dispatch
			// is barrier wait (how long the slowest worker held everyone).
			// computeNS is written and read on this goroutine only.
			var computeNS int64
			t0 := time.Now()
			p.dispatch(func(slot int) {
				w := lo + slot
				start, end := e.Partition(n, w)
				if slot == 0 {
					c0 := time.Now()
					fn(w, start, end)
					computeNS = int64(time.Since(c0))
					return
				}
				fn(w, start, end)
			})
			barrierNS := int64(time.Since(t0)) - computeNS
			if barrierNS < 0 {
				barrierNS = 0
			}
			t.ObserveSuperstep(time.Duration(computeNS), time.Duration(barrierNS))
			return
		}
		p.dispatch(func(slot int) {
			w := lo + slot
			start, end := e.Partition(n, w)
			fn(w, start, end)
		})
		return
	}
	// Closed engine: degrade to transient goroutines rather than failing.
	var wg sync.WaitGroup
	wg.Add(hi - lo)
	for w := lo; w < hi; w++ {
		go func(w int) {
			defer wg.Done()
			start, end := e.Partition(n, w)
			fn(w, start, end)
		}(w)
	}
	wg.Wait()
}

// Close releases the engine's persistent worker pool, if any. It must not
// be called concurrently with a running superstep. Closing is idempotent;
// a closed engine remains usable (supersteps fall back to transient
// goroutines), so late stragglers holding a reference stay correct while
// the common case releases its goroutines promptly.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	if e.pool != nil {
		close(e.pool.quit)
		e.pool = nil
	}
	runtime.SetFinalizer(e, nil)
}

// Superstep runs one metered BSP superstep: a ParallelFor over [0, n)
// followed by a barrier, incrementing the round counter by one. A superstep
// entered after cancellation does not execute and is not metered.
func (e *Engine) Superstep(n int, fn func(worker, start, end int)) {
	if e.Err() != nil {
		return
	}
	e.ParallelFor(n, fn)
	e.metrics.AddRounds(1)
}

// ReduceFloat64 runs fn per worker, each returning a float64, and combines
// the results with combine (e.g. math.Max). Not metered. Distributed
// engines gather the remote workers' partials and fold the full P-entry
// array sequentially in worker order, so float combining is bit-exact
// against the single-process run; a transport failure returns 0 with the
// error sticky in Err().
func (e *Engine) ReduceFloat64(n int, fn func(worker, start, end int) float64,
	combine func(a, b float64) float64) float64 {
	partial := make([]float64, e.workers)
	e.ParallelFor(n, func(w, start, end int) {
		partial[w] = fn(w, start, end)
	})
	if d := e.dist; d != nil {
		if e.Err() != nil {
			return 0
		}
		if err := d.gatherFloat64s(e, partial); err != nil {
			return 0
		}
	}
	acc := partial[0]
	for _, p := range partial[1:] {
		acc = combine(acc, p)
	}
	return acc
}

// ReduceInt runs fn per worker returning an int, and sums the results.
// Not metered. Distributed engines return the fleet-wide sum; a transport
// failure returns 0 with the error sticky in Err().
func (e *Engine) ReduceInt(n int, fn func(worker, start, end int) int) int {
	partial := make([]int, e.workers)
	e.ParallelFor(n, func(w, start, end int) {
		partial[w] = fn(w, start, end)
	})
	if d := e.dist; d != nil {
		if e.Err() != nil {
			return 0
		}
		if err := d.gatherInts(e, partial); err != nil {
			return 0
		}
	}
	total := 0
	for _, p := range partial {
		total += p
	}
	return total
}
