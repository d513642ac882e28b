package pq

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"graphdiam/internal/rng"
)

// refHeap is the brute-force oracle for FlatHeap: a priority per id, with
// Pop done by a linear scan.
type refHeap struct {
	prio    []float64
	present []bool
	size    int
}

func newRefHeap(n int) *refHeap {
	return &refHeap{prio: make([]float64, n), present: make([]bool, n)}
}

func (r *refHeap) Push(id int32, p float64) {
	if !r.present[id] {
		r.present[id], r.prio[id] = true, p
		r.size++
	} else if p < r.prio[id] {
		r.prio[id] = p
	}
}

func (r *refHeap) Pop() float64 {
	best := -1
	for id, ok := range r.present {
		if ok && (best < 0 || r.prio[id] < r.prio[best]) {
			best = id
		}
	}
	r.present[best] = false
	r.size--
	return r.prio[best]
}

// TestFlatHeapMatchesBruteForce drives FlatHeap and the linear-scan oracle
// with the same randomized push/decrease/pop mix and requires identical pop
// sequences of priorities (ids may differ on ties; priorities may not).
func TestFlatHeapMatchesBruteForce(t *testing.T) {
	const n = 200
	r := rng.New(31)
	fh := NewFlatHeap(n)
	ref := newRefHeap(n)
	for round := 0; round < 5000; round++ {
		switch {
		case fh.Len() == 0 || r.Float64() < 0.55:
			id := int32(r.Intn(n))
			p := r.Float64()
			fh.Push(id, p) // Push doubles as decrease-key in both
			ref.Push(id, p)
		default:
			_, fp := fh.Pop()
			if rp := ref.Pop(); fp != rp {
				t.Fatalf("round %d: flat popped p=%v, oracle popped p=%v", round, fp, rp)
			}
		}
		if fh.Len() != ref.size {
			t.Fatalf("round %d: lengths diverged %d vs %d", round, fh.Len(), ref.size)
		}
	}
	for fh.Len() > 0 {
		_, fp := fh.Pop()
		if rp := ref.Pop(); fp != rp {
			t.Fatalf("drain: %v vs %v", fp, rp)
		}
	}
}

// TestFlatHeapDecreaseKeyAndReset: pushing a smaller priority for a present
// id lowers it (larger is ignored), and Reset empties retaining validity.
func TestFlatHeapDecreaseKeyAndReset(t *testing.T) {
	h := NewFlatHeap(10)
	h.Push(3, 5.0)
	h.Push(4, 4.0)
	h.Push(3, 9.0) // not lower: ignored
	h.Push(3, 1.0) // decrease-key
	if !h.Contains(3) || h.Contains(7) {
		t.Fatal("Contains wrong")
	}
	id, p := h.Pop()
	if id != 3 || p != 1.0 {
		t.Fatalf("Pop = (%d, %v), want (3, 1)", id, p)
	}
	h.Reset()
	if h.Len() != 0 || h.Contains(4) {
		t.Fatal("Reset did not empty the heap")
	}
	h.Push(4, 2.0)
	if id, p := h.Pop(); id != 4 || p != 2.0 {
		t.Fatalf("post-Reset Pop = (%d, %v)", id, p)
	}
}

// heaps names each indexed-heap layout the shared suite below runs on,
// keyed by arity. FlatHeap, the 4-ary heap, is the only one left.
var heaps = map[string]func(n int) *FlatHeap{
	"quad": NewFlatHeap,
}

func TestHeapPopOrder(t *testing.T) {
	for name, newHeap := range heaps {
		t.Run(name, func(t *testing.T) {
			h := newHeap(100)
			r := rng.New(17)
			want := make([]float64, 0, 100)
			for i := int32(0); i < 100; i++ {
				p := r.Float64()
				h.Push(i, p)
				want = append(want, p)
			}
			sort.Float64s(want)
			for i := 0; i < 100; i++ {
				_, p := h.Pop()
				if p != want[i] {
					t.Fatalf("pop %d: got prio %v, want %v", i, p, want[i])
				}
			}
			if h.Len() != 0 {
				t.Fatalf("heap not empty after draining: len=%d", h.Len())
			}
		})
	}
}

func TestHeapDecreaseKey(t *testing.T) {
	for name, newHeap := range heaps {
		t.Run(name, func(t *testing.T) {
			h := newHeap(10)
			h.Push(0, 5)
			h.Push(1, 3)
			h.Push(2, 9)
			h.Push(2, 1) // decrease-key goes through Push
			id, p := h.Pop()
			if id != 2 || p != 1 {
				t.Fatalf("got (%d,%v), want (2,1)", id, p)
			}
			// Increase attempts are ignored.
			h.Push(1, 100)
			id, p = h.Pop()
			if id != 1 || p != 3 {
				t.Fatalf("got (%d,%v), want (1,3)", id, p)
			}
		})
	}
}

func TestHeapPushExistingActsAsDecrease(t *testing.T) {
	for name, newHeap := range heaps {
		t.Run(name, func(t *testing.T) {
			h := newHeap(4)
			h.Push(3, 10)
			h.Push(3, 4) // decrease
			h.Push(3, 7) // ignored
			if h.Len() != 1 {
				t.Fatalf("duplicate push grew heap: len=%d", h.Len())
			}
			id, p := h.Pop()
			if id != 3 || p != 4 {
				t.Fatalf("got (%d,%v), want (3,4)", id, p)
			}
		})
	}
}

func TestHeapContainsAndReset(t *testing.T) {
	for name, newHeap := range heaps {
		t.Run(name, func(t *testing.T) {
			h := newHeap(8)
			h.Push(5, 1)
			h.Push(6, 2)
			if !h.Contains(5) || !h.Contains(6) || h.Contains(7) {
				t.Fatal("Contains mismatch after pushes")
			}
			h.Pop()
			if h.Contains(5) {
				t.Fatal("popped item still reported present")
			}
			h.Reset()
			if h.Len() != 0 || h.Contains(6) {
				t.Fatal("Reset did not clear the heap")
			}
			// Heap is reusable after Reset.
			h.Push(1, 9)
			if id, p := h.Pop(); id != 1 || p != 9 {
				t.Fatalf("heap unusable after Reset: got (%d,%v)", id, p)
			}
		})
	}
}

// Property: for any sequence of pushes and decreases (through Push),
// popping drains items in nondecreasing priority order, each ID appears at
// most once, and it carries the lowest priority pushed for it.
func TestHeapPropertySortedDrain(t *testing.T) {
	for name, newHeap := range heaps {
		t.Run(name, func(t *testing.T) {
			check := func(seed uint64, nOps uint16) bool {
				const n = 256
				h := newHeap(n)
				prio := make([]float64, n) // current priority of each queued id
				r := rng.New(seed)
				ops := int(nOps)%500 + 1
				for i := 0; i < ops; i++ {
					id := int32(r.Intn(n))
					p := r.Float64()
					queued := h.Contains(id)
					if r.Bernoulli(0.3) && queued {
						p *= prio[id] // decrease-key, through Push
					}
					h.Push(id, p)
					if !queued || p < prio[id] {
						prio[id] = p
					}
				}
				prev := math.Inf(-1)
				seen := make(map[int32]bool)
				for h.Len() > 0 {
					id, p := h.Pop()
					if p < prev || seen[id] || p != prio[id] {
						return false
					}
					seen[id] = true
					prev = p
				}
				return true
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// BenchmarkFlatHeapDijkstraPattern simulates the push/decrease/pop mix
// Dijkstra produces on a sparse graph (≈2 decreases per pop).
func BenchmarkFlatHeapDijkstraPattern(b *testing.B) {
	const n = 1 << 16
	h := NewFlatHeap(n)
	r := rng.New(42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Reset()
		for j := 0; j < 1024; j++ {
			h.Push(int32(r.Intn(n)), r.Float64()+1)
		}
		for h.Len() > 0 {
			id, p := h.Pop()
			for k := int32(0); k < 2; k++ {
				nb := (id + k + 1) % n
				if h.Contains(nb) {
					h.Push(nb, p*0.9)
				}
			}
		}
	}
}
