// Package mr implements the MR(M_T, M_L) computational model of
// Pietracaprina, Pucci, Riondato, Silvestri and Upfal ("Space-round
// tradeoffs for MapReduce computations", ICS 2012), which is the machine
// model the paper analyzes its algorithms on.
//
// An MR algorithm is a sequence of rounds. In each round a multiset of
// key-value pairs is transformed into a new multiset by applying a reducer
// independently to every group of pairs sharing a key. The model has two
// parameters: M_T, the total memory, and M_L, the local memory available to
// a single reducer. Practical algorithms must keep M_T linear in the input
// and M_L substantially sublinear while minimizing rounds.
//
// The Engine here executes rounds with real parallelism (reducer groups are
// processed by a worker pool) and enforces the model's accounting: it
// counts rounds and shuffled pairs and records the maximum number of pairs
// any single reducer receives, which must stay within M_L for the execution
// to be valid in MR(M_T, M_L).
//
// The sorting and prefix-sum primitives of the paper's Fact 1 are not
// implemented: internal/mrcluster runs each Δ-growing step as a single
// reduce round, which is what the O(1)-rounds argument needs.
package mr

import (
	"fmt"
	"sort"
	"sync"
)

// Pair is a key-value pair. Keys are uint64 — node IDs, cluster IDs and
// bucket indices all embed naturally.
type Pair[V any] struct {
	Key   uint64
	Value V
}

// Engine executes MR rounds and accumulates model accounting.
type Engine struct {
	workers     int
	localMemory int // M_L: max pairs a reducer may receive; 0 = unchecked

	mu          sync.Mutex
	rounds      int64
	shuffled    int64
	maxReducer  int
	violations  int
	lastReducer int
}

// NewEngine returns an engine with the given parallelism and local-memory
// bound M_L expressed in pairs (0 disables the check).
func NewEngine(workers, localMemory int) *Engine {
	if workers <= 0 {
		workers = 1
	}
	return &Engine{workers: workers, localMemory: localMemory}
}

// Rounds returns the number of MR rounds executed so far.
func (e *Engine) Rounds() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rounds
}

// Shuffled returns the total number of pairs moved through shuffles.
func (e *Engine) Shuffled() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.shuffled
}

// MaxReducerLoad returns the largest number of pairs delivered to a single
// reducer in any round — the realized M_L requirement of the execution.
func (e *Engine) MaxReducerLoad() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.maxReducer
}

// Violations returns how many reducer invocations exceeded M_L.
func (e *Engine) Violations() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.violations
}

// Reset zeroes the accounting.
func (e *Engine) Reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rounds, e.shuffled, e.maxReducer, e.violations = 0, 0, 0, 0
}

func (e *Engine) recordRound(groupSizes []int, shuffled int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rounds++
	e.shuffled += int64(shuffled)
	for _, s := range groupSizes {
		if s > e.maxReducer {
			e.maxReducer = s
		}
		if e.localMemory > 0 && s > e.localMemory {
			e.violations++
		}
	}
}

// Round executes one MR round over input: reduce is applied independently
// (and in parallel) to each key group, emitting output pairs. The output
// order is deterministic: groups are processed in ascending key order.
func Round[V1, V2 any](e *Engine, input []Pair[V1],
	reduce func(key uint64, values []V1, emit func(uint64, V2))) []Pair[V2] {

	// Shuffle: group by key.
	groups := make(map[uint64][]V1)
	for _, p := range input {
		groups[p.Key] = append(groups[p.Key], p.Value)
	}
	keys := make([]uint64, 0, len(groups))
	sizes := make([]int, 0, len(groups))
	for k, vs := range groups {
		keys = append(keys, k)
		sizes = append(sizes, len(vs))
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	// Reduce phase: worker pool over key groups.
	outs := make([][]Pair[V2], len(keys))
	var wg sync.WaitGroup
	next := make(chan int, len(keys))
	for i := range keys {
		next <- i
	}
	close(next)
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				k := keys[i]
				var local []Pair[V2]
				reduce(k, groups[k], func(k2 uint64, v2 V2) {
					local = append(local, Pair[V2]{k2, v2})
				})
				outs[i] = local
			}
		}()
	}
	wg.Wait()

	total := 0
	for _, o := range outs {
		total += len(o)
	}
	result := make([]Pair[V2], 0, total)
	for _, o := range outs {
		result = append(result, o...)
	}
	e.recordRound(sizes, len(input)+total)
	return result
}

// String summarizes the engine accounting.
func (e *Engine) String() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return fmt.Sprintf("mr{rounds=%d shuffled=%d maxReducer=%d violations=%d}",
		e.rounds, e.shuffled, e.maxReducer, e.violations)
}
