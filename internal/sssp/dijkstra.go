// Package sssp implements the single-source shortest path algorithms the
// paper uses, on the weighted graphs of internal/graph:
//
//   - Dijkstra's algorithm with an indexed 4-ary heap (the exact
//     sequential tool: ground truth, the diameter lower bound procedure
//     and quotient diameters);
//   - Δ-stepping (Meyer & Sanders, J. Algorithms 2003), both sequential
//     and parallel on the BSP engine — the paper's only practical
//     linear-space competitor, used as a 2-approximation of the diameter.
//
// A sequential Bellman–Ford with round counting is kept as the test
// reference Dijkstra and Δ-stepping are compared against.
package sssp

import (
	"math"

	"graphdiam/internal/graph"
	"graphdiam/internal/pq"
)

// Inf is the distance assigned to unreachable nodes.
var Inf = math.Inf(1)

// Dijkstra computes exact shortest-path distances from src. Unreachable
// nodes get +Inf. O((n+m) log n) with an indexed 4-ary heap of inline
// (priority, id) entries. Callers running many sources over the same graph
// (eccentricity sweeps, all-pairs validation) should allocate a Scratch
// once and use Scratch.Dijkstra to reuse the distance and heap buffers
// across sources.
func Dijkstra(g *graph.Graph, src graph.NodeID) []float64 {
	sc := NewScratch(g.NumNodes())
	dist := sc.Dijkstra(g, src)
	sc.dist = nil // the caller keeps the slice; don't alias a live scratch
	return dist
}

// Scratch holds the reusable buffers of repeated Dijkstra runs over graphs
// of (up to) a fixed node count: the distance array and the indexed heap,
// which holds each node at most once and so never carries stale entries. The
// diameter sweeps (quotient diameter, ExactDiameter, LowerBound) run one
// full Dijkstra per source; without a scratch every source pays an O(n)
// allocation pair plus cold caches. A Scratch must not be shared between
// goroutines; sweeps allocate one per worker.
type Scratch struct {
	dist  []float64
	heap  *pq.FlatHeap
	heapN int // node capacity the heap was built for
}

// NewScratch returns a scratch for graphs with up to n nodes.
func NewScratch(n int) *Scratch {
	return &Scratch{dist: make([]float64, n), heap: pq.NewFlatHeap(n), heapN: n}
}

// Dijkstra computes exact shortest-path distances from src into the
// scratch's distance buffer and returns it. The returned slice is valid
// until the next call on this scratch. Results are identical to the
// package-level Dijkstra.
func (sc *Scratch) Dijkstra(g *graph.Graph, src graph.NodeID) []float64 {
	n := g.NumNodes()
	if len(sc.dist) < n {
		sc.dist = make([]float64, n)
	}
	dist := sc.dist[:n]
	sc.DijkstraInto(g, src, dist)
	return dist
}

// DijkstraInto computes exact shortest-path distances from src into dist
// (which must have length g.NumNodes()), reusing the scratch's heap. Used
// by sweeps that keep several distance arrays alive at once (the bounding
// diameter computation) while sharing heap storage.
func (sc *Scratch) DijkstraInto(g *graph.Graph, src graph.NodeID, dist []float64) {
	n := g.NumNodes()
	for i := range dist {
		dist[i] = Inf
	}
	if sc.heap == nil || sc.heapN < n {
		sc.heap = pq.NewFlatHeap(n)
		sc.heapN = n
	}
	h := sc.heap
	h.Reset()
	dist[src] = 0
	h.Push(int32(src), 0)
	for h.Len() > 0 {
		u, du := h.Pop()
		ts, ws := g.Neighbors(graph.NodeID(u))
		for i, v := range ts {
			if nd := du + ws[i]; nd < dist[v] {
				dist[v] = nd
				h.Push(int32(v), nd)
			}
		}
	}
}

// BellmanFord computes shortest-path distances from src by synchronous
// (Jacobi-style) relaxation sweeps: every sweep relaxes all edges against
// the previous sweep's distances, exactly as a parallel round would. It
// returns the distances and the number of sweeps until fixpoint, which is
// ℓ_Φ — the maximum number of edges on any shortest path from src — plus
// the final no-change sweep.
func BellmanFord(g *graph.Graph, src graph.NodeID) ([]float64, int) {
	n := g.NumNodes()
	dist := make([]float64, n)
	next := make([]float64, n)
	for i := range dist {
		dist[i] = Inf
	}
	dist[src] = 0
	rounds := 0
	for {
		rounds++
		copy(next, dist)
		changed := false
		for u := 0; u < n; u++ {
			du := dist[u]
			if math.IsInf(du, 1) {
				continue
			}
			ts, ws := g.Neighbors(graph.NodeID(u))
			for i, v := range ts {
				if nd := du + ws[i]; nd < next[v] {
					next[v] = nd
					changed = true
				}
			}
		}
		dist, next = next, dist
		if !changed {
			return dist, rounds
		}
	}
}

// Eccentricity returns the largest finite distance in dist and the node
// attaining it. For a connected graph this is the eccentricity of the
// source the distances were computed from.
func Eccentricity(dist []float64) (float64, graph.NodeID) {
	best := -1.0
	var arg graph.NodeID
	for v, d := range dist {
		if !math.IsInf(d, 1) && d > best {
			best = d
			arg = graph.NodeID(v)
		}
	}
	if best < 0 {
		return 0, 0
	}
	return best, arg
}
