package bsp

import (
	"testing"
	"time"
)

func TestSimulatedVisitsEachOnce(t *testing.T) {
	e := NewSimulated(4)
	const n = 100
	visits := make([]int, n)
	e.ParallelFor(n, func(_, start, end int) {
		for i := start; i < end; i++ {
			visits[i]++
		}
	})
	for i, v := range visits {
		if v != 1 {
			t.Fatalf("item %d visited %d times", i, v)
		}
	}
}

func TestSimulatedCriticalPathAccumulates(t *testing.T) {
	e := NewSimulated(2)
	if e.CriticalPath() != 0 {
		t.Fatal("fresh engine has nonzero critical path")
	}
	e.ParallelFor(2, func(w, _, _ int) {
		time.Sleep(2 * time.Millisecond)
	})
	cp := e.CriticalPath()
	// Max of two ~2ms workers: at least 2ms, well below the 4ms serial sum
	// plus generous scheduling slack.
	if cp < 2*time.Millisecond {
		t.Fatalf("critical path %v below single worker time", cp)
	}
	e.ResetCriticalPath()
	if e.CriticalPath() != 0 {
		t.Fatal("ResetCriticalPath did not zero the accumulator")
	}
}

func TestSimulatedCriticalPathScalesDown(t *testing.T) {
	// A perfectly parallel workload's critical path must shrink with more
	// workers (this is what backs the Figure 4 reproduction).
	const n = 1 << 22
	data := make([]float64, n)
	attempt := func(e *Engine) time.Duration {
		e.ResetCriticalPath()
		for rep := 0; rep < 4; rep++ {
			e.ParallelFor(n, func(_, start, end int) {
				for i := start; i < end; i++ {
					data[i] += float64(i)
				}
			})
		}
		return e.CriticalPath()
	}
	// Best-of-5 per worker count, with the 1- and 8-worker attempts
	// interleaved so a contention burst from a concurrently running test
	// binary hits both sides rather than only one.
	e1, e8 := NewSimulated(1), NewSimulated(8)
	t1 := time.Duration(1<<62 - 1)
	t8 := t1
	for i := 0; i < 5; i++ {
		t1 = min(t1, attempt(e1))
		t8 = min(t8, attempt(e8))
	}
	if t8*2 > t1 {
		t.Fatalf("8-worker critical path %v not well below 1-worker %v", t8, t1)
	}
}

func TestSimulatedMatchesConcurrentResults(t *testing.T) {
	// The simulated engine must produce identical algorithmic results to
	// the concurrent one (sequential execution is just a schedule).
	sum := func(e *Engine) int {
		return e.ReduceInt(1000, func(_, start, end int) int {
			s := 0
			for i := start; i < end; i++ {
				s += i
			}
			return s
		})
	}
	if a, b := sum(New(4)), sum(NewSimulated(4)); a != b {
		t.Fatalf("results differ: %d vs %d", a, b)
	}
}
