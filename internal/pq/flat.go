// Package pq provides the two priority queues of graphdiam's shortest-path
// algorithms: FlatHeap, an indexed 4-ary min-heap whose Push doubles as
// decrease-key (for Dijkstra), and BucketQueue, a cyclic bucket queue (for
// Δ-stepping).
//
// Both key items by dense integer IDs in [0, n), which matches the node-ID
// space of internal/graph and avoids per-operation allocation.
package pq

// FlatHeap is an indexed 4-ary min-heap that stores (priority, id) entries
// inline in the heap array. Push doubles as decrease-key. Comparisons read
// the contiguous entry slice directly rather than through a separate
// id → priority array (h.h[c].p is a sequential load, not a dependent
// random access), and sifts move a hole instead of swapping. On the
// diameter sweeps, where Dijkstra dominates the profile, this roughly
// halves the heap cost of a classic indexed heap.
type FlatHeap struct {
	h   []flatEntry
	pos []int32 // id -> index in h, -1 if absent
}

type flatEntry struct {
	p  float64
	id int32
}

// NewFlatHeap returns an empty heap for IDs in [0, n).
func NewFlatHeap(n int) *FlatHeap {
	h := &FlatHeap{
		h:   make([]flatEntry, 0, 64),
		pos: make([]int32, n),
	}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// Len reports the number of items currently in the heap.
func (h *FlatHeap) Len() int { return len(h.h) }

// Contains reports whether id is currently in the heap.
func (h *FlatHeap) Contains(id int32) bool { return h.pos[id] >= 0 }

// Push inserts id with priority p, or lowers its priority if already
// present and p is smaller.
func (h *FlatHeap) Push(id int32, p float64) {
	if at := h.pos[id]; at >= 0 {
		if p < h.h[at].p {
			h.siftUp(int(at), flatEntry{p, id})
		}
		return
	}
	h.h = append(h.h, flatEntry{})
	h.siftUp(len(h.h)-1, flatEntry{p, id})
}

// Pop removes and returns the minimum item. Panics if empty.
func (h *FlatHeap) Pop() (id int32, p float64) {
	top := h.h[0]
	h.pos[top.id] = -1
	last := len(h.h) - 1
	e := h.h[last]
	h.h = h.h[:last]
	if last > 0 {
		h.siftDown(e)
	}
	return top.id, top.p
}

// Reset empties the heap, retaining capacity.
func (h *FlatHeap) Reset() {
	for _, e := range h.h {
		h.pos[e.id] = -1
	}
	h.h = h.h[:0]
}

// siftUp moves the hole at index i toward the root until e fits, then
// places e there.
func (h *FlatHeap) siftUp(i int, e flatEntry) {
	for i > 0 {
		parent := (i - 1) >> 2
		pe := h.h[parent]
		if pe.p <= e.p {
			break
		}
		h.h[i] = pe
		h.pos[pe.id] = int32(i)
		i = parent
	}
	h.h[i] = e
	h.pos[e.id] = int32(i)
}

// siftDown moves a hole from the root toward the leaves until e fits, then
// places e there.
func (h *FlatHeap) siftDown(e flatEntry) {
	n := len(h.h)
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		end := first + 4
		if end > n {
			end = n
		}
		smallest := first
		sp := h.h[first].p
		for c := first + 1; c < end; c++ {
			if h.h[c].p < sp {
				smallest, sp = c, h.h[c].p
			}
		}
		if sp >= e.p {
			break
		}
		se := h.h[smallest]
		h.h[i] = se
		h.pos[se.id] = int32(i)
		i = smallest
	}
	h.h[i] = e
	h.pos[e.id] = int32(i)
}
