package mr

import (
	"testing"

	"graphdiam/internal/rng"
)

func TestRoundGroupsByKey(t *testing.T) {
	e := NewEngine(4, 0)
	input := []Pair[int]{
		{1, 10}, {2, 20}, {1, 11}, {3, 30}, {2, 21},
	}
	out := Round(e, input, func(k uint64, vs []int, emit func(uint64, int)) {
		s := 0
		for _, v := range vs {
			s += v
		}
		emit(k, s)
	})
	got := map[uint64]int{}
	for _, p := range out {
		got[p.Key] = p.Value
	}
	want := map[uint64]int{1: 21, 2: 41, 3: 30}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %d: got %d, want %d", k, got[k], v)
		}
	}
	if e.Rounds() != 1 {
		t.Fatalf("rounds = %d, want 1", e.Rounds())
	}
}

func TestRoundPreservesValueOrderWithinGroup(t *testing.T) {
	e := NewEngine(2, 0)
	input := []Pair[int]{{7, 1}, {7, 2}, {7, 3}, {7, 4}}
	Round(e, input, func(_ uint64, vs []int, emit func(uint64, int)) {
		for i, v := range vs {
			if v != i+1 {
				t.Errorf("value order not preserved: %v", vs)
				return
			}
		}
	})
}

func TestRoundOutputDeterministicAcrossKeys(t *testing.T) {
	// Group outputs must be concatenated in ascending key order regardless
	// of scheduling, so repeated runs agree.
	run := func() []Pair[int] {
		e := NewEngine(8, 0)
		var input []Pair[int]
		for k := 20; k >= 0; k-- {
			input = append(input, Pair[int]{uint64(k), k})
		}
		return Round(e, input, func(k uint64, vs []int, emit func(uint64, int)) {
			emit(k, vs[0]*2)
		})
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic output length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic output at %d: %v vs %v", i, a[i], b[i])
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i-1].Key > a[i].Key {
			t.Fatal("output keys not ascending")
		}
	}
}

func TestAccountingShuffledAndLoad(t *testing.T) {
	e := NewEngine(2, 0)
	input := []Pair[int]{{0, 1}, {0, 2}, {0, 3}, {1, 4}}
	Round(e, input, func(k uint64, vs []int, emit func(uint64, int)) {
		emit(k, 0)
	})
	if e.MaxReducerLoad() != 3 {
		t.Fatalf("MaxReducerLoad = %d, want 3", e.MaxReducerLoad())
	}
	// shuffled = input pairs + emitted pairs = 4 + 2.
	if e.Shuffled() != 6 {
		t.Fatalf("Shuffled = %d, want 6", e.Shuffled())
	}
}

func TestLocalMemoryViolationDetected(t *testing.T) {
	e := NewEngine(1, 2)
	input := []Pair[int]{{0, 1}, {0, 2}, {0, 3}}
	Round(e, input, func(k uint64, vs []int, emit func(uint64, int)) {})
	if e.Violations() != 1 {
		t.Fatalf("Violations = %d, want 1", e.Violations())
	}
	e.Reset()
	if e.Violations() != 0 || e.Rounds() != 0 {
		t.Fatal("Reset incomplete")
	}
}

// A Δ-growing step expressed in the MR model: each active node sends
// (neighbor, candidate distance) messages, each node reduces to its minimum
// candidate. This validates the paper's claim that one growing step is O(1)
// MR rounds.
func TestGrowingStepIsOneRound(t *testing.T) {
	// Path 0-1-2-3 with unit weights, source 0, Δ = 10.
	type cand struct {
		center uint64
		dist   float64
	}
	adj := map[uint64][]uint64{0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2}}
	state := map[uint64]cand{0: {0, 0}}
	e := NewEngine(2, 0)

	var msgs []Pair[cand]
	for u, st := range state {
		for _, v := range adj[u] {
			msgs = append(msgs, Pair[cand]{v, cand{st.center, st.dist + 1}})
		}
	}
	out := Round(e, msgs, func(k uint64, vs []cand, emit func(uint64, cand)) {
		best := vs[0]
		for _, c := range vs[1:] {
			if c.dist < best.dist {
				best = c
			}
		}
		emit(k, best)
	})
	if e.Rounds() != 1 {
		t.Fatalf("growing step took %d rounds, want 1", e.Rounds())
	}
	found := false
	for _, p := range out {
		if p.Key == 1 && p.Value.dist == 1 && p.Value.center == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("node 1 not updated correctly: %v", out)
	}
}

func BenchmarkRound(b *testing.B) {
	e := NewEngine(8, 0)
	const n = 1 << 14
	input := make([]Pair[int], n)
	r := rng.New(1)
	for i := range input {
		input[i] = Pair[int]{uint64(r.Intn(1024)), i}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Round(e, input, func(k uint64, vs []int, emit func(uint64, int)) {
			s := 0
			for _, v := range vs {
				s += v
			}
			emit(k, s)
		})
	}
}
