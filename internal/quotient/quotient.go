// Package quotient builds the weighted quotient graph of a clustering and
// computes its diameter — the second half of the paper's diameter
// approximation (Section 4).
//
// Given a clustering with per-node center assignments c_u and center
// distances d_u, the quotient graph G_C has one node per cluster and, for
// every edge (u,v) of G with c_u ≠ c_v, an edge between the clusters of u
// and v of weight w(u,v) + d_u + d_v (keeping the minimum over parallel
// edges). The diameter estimate is Φ(G_C) + 2R. It is conservative — it
// never underestimates Φ(G) — because Diameter returns Φ(G_C) exactly or,
// on quotients too large for its Dijkstra budget, a proven upper bound.
// Diameter is validate's fringe-ordered bounding loop (a 2-sweep, a
// Dijkstra from the center, then batches in descending distance from it
// until twice the next distance is at most the realized lower bound): on
// the benchmark's kernel quotients it runs 3–42 Dijkstras, and a few
// hundred on the small-world quotients random appended edges make.
package quotient

import (
	"math"
	"slices"

	"graphdiam/internal/bsp"
	"graphdiam/internal/graph"
	"graphdiam/internal/validate"
)

// Build constructs the weighted quotient graph from per-node center IDs and
// center-distance upper bounds, as produced by core.Cluster. It returns the
// quotient and the original center node ID of each quotient node (quotient
// node i corresponds to centers[i]).
//
// The quotient is Cᵀ·A·C over the (min, +) semiring, and Build computes it
// row by row like Gustavson's sparse product: the nodes are grouped by
// cluster, and each quotient row a is accumulated in a dense per-worker
// array indexed by the neighbouring cluster, then emitted in target order
// straight into CSR. It uses no hash map and sorts only each row's
// distinct targets. The rows are built in one metered superstep, and the
// accounting is that of the MR formulation: a map round and a dedup round,
// one message per quotient edge.
//
// e must be an in-process engine: the rows of a worker another peer owns
// would stay empty on a distributed engine. The distributed engine
// reproduces the clustering phase and Δ-stepping, which is what the
// transport-equivalence suites pin.
func Build(g *graph.Graph, center []int32, dist []float64, e *bsp.Engine) (*graph.Graph, []graph.NodeID) {
	n := g.NumNodes()
	// Dense renumbering of the centers in ascending order: mark each
	// center with 0, then overwrite the marks with quotient node IDs.
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = -1
	}
	for _, c := range center {
		idx[c] = 0
	}
	var centers []graph.NodeID
	for u, x := range idx {
		if x == 0 {
			idx[u] = int32(len(centers))
			centers = append(centers, graph.NodeID(u))
		}
	}
	k := len(centers)

	// Group the nodes by cluster, stably in node order: each worker labels
	// its nodes and counts them (and their adjacency volume) per cluster,
	// a prefix over (cluster, worker) turns the counts into cursors, and
	// the workers scatter their nodes into order.
	P := e.Workers()
	cu := make([]int32, n)
	count := make([]int32, P*k)
	vol := make([]int64, P*k)
	e.ParallelFor(n, func(w, start, end int) {
		cnt, vl := count[w*k:(w+1)*k], vol[w*k:(w+1)*k]
		for u := start; u < end; u++ {
			c := idx[center[u]]
			cu[u] = c
			cnt[c]++
			vl[c] += int64(g.Degree(graph.NodeID(u)))
		}
	})
	// first[a] is where cluster a's members start in order. bounds splits
	// the clusters into P contiguous row ranges of about equal volume.
	first := make([]int32, k+1)
	bounds := make([]int, P+1)
	total := 2 * int64(g.NumEdges())
	var pos int32
	var acc int64
	next := 1
	for c := 0; c < k; c++ {
		for ; next < P && acc*int64(P) >= int64(next)*total; next++ {
			bounds[next] = c
		}
		first[c] = pos
		for w := 0; w < P; w++ {
			i := w*k + c
			pos, count[i] = pos+count[i], pos
			acc += vol[i]
		}
	}
	for ; next <= P; next++ {
		bounds[next] = k
	}
	first[k] = pos
	order := idx // idx is dead once every node is labelled; the scatter fills all n slots
	e.ParallelFor(n, func(w, start, end int) {
		cur := count[w*k : (w+1)*k]
		for u := start; u < end; u++ {
			c := cu[u]
			order[cur[c]] = int32(u)
			cur[c]++
		}
	})

	// Build the rows. An edge (u,v) between clusters a and b contributes
	// min((w+d_u)+d_v, (w+d_v)+d_u) to both row a and row b: those are
	// the two summation orders under which the edge's two directions are
	// projected, so each (a,b) entry is the minimum over the same set of
	// float values whichever side computes it, and the quotient is
	// symmetric and independent of P bit for bit.
	offsets := make([]int64, k+1)
	rowT := make([][]graph.NodeID, P)
	rowW := make([][]float64, P)
	inf := math.Inf(1)
	e.Superstep(P, func(w, _, _ int) {
		best := make([]float64, k) // +Inf marks a cluster untouched in this row
		for i := range best {
			best[i] = inf
		}
		var touched []int32
		var ts []graph.NodeID
		var ws []float64
		for a := bounds[w]; a < bounds[w+1]; a++ {
			touched = touched[:0]
			for _, u := range order[first[a]:first[a+1]] {
				du := dist[u]
				nt, nw := g.Neighbors(graph.NodeID(u))
				for i, v := range nt {
					b := cu[v]
					if b == int32(a) {
						continue
					}
					dv := dist[v]
					x, y := nw[i]+du+dv, nw[i]+dv+du
					if y < x {
						x = y
					}
					if old := best[b]; x < old {
						if old == inf {
							touched = append(touched, b)
						}
						best[b] = x
					}
				}
			}
			slices.Sort(touched)
			for _, b := range touched {
				ts = append(ts, graph.NodeID(b))
				ws = append(ws, best[b])
				best[b] = inf
			}
			offsets[a+1] = int64(len(touched))
		}
		rowT[w], rowW[w] = ts, ws
	})
	for a := 0; a < k; a++ {
		offsets[a+1] += offsets[a]
	}
	targets, weights := slices.Concat(rowT...), slices.Concat(rowW...)
	e.Metrics().AddRounds(1)
	e.Metrics().AddMessages(int64(len(targets) / 2))

	q, err := graph.FromCSR(offsets, targets, weights, graph.ComputeStats(offsets, targets, weights))
	if err != nil {
		panic("quotient: " + err.Error()) // the rows above are a well-formed CSR by construction
	}
	return q, centers
}

// DiameterOptions is Diameter's option set. It has no fields: the
// computation is fixed and its cost is bounded by the quotient size. It
// stays so that existing callers keep compiling.
type DiameterOptions struct{}

// budgetNodes sizes Diameter's Dijkstra budget: a quotient of k nodes may
// run ⌈budgetNodes²/k⌉ sources, about the work of all-pairs Dijkstra on
// budgetNodes nodes. A quotient of at most budgetNodes nodes thus has a
// budget of at least k sources, which the bounding loop cannot exhaust,
// so its diameter is exact.
const budgetNodes = 4096

// Diameter computes the weighted diameter of the quotient graph q with
// validate's fringe-ordered bounding loop under a budget of ⌈4096²/k⌉
// Dijkstra sources (every component gets at least its first Dijkstra).
// The result is Φ(G_C) exactly when the loop converges within the budget —
// always up to 4096 nodes, and on the benchmark quotients well beyond —
// and a proven upper bound on it otherwise, so CL-DIAM's Φ(G_C) + 2R
// bounds Φ(G) from above either way.
func Diameter(q *graph.Graph, e *bsp.Engine, _ DiameterOptions) float64 {
	k := max(q.NumNodes(), 1)
	return validate.DiameterUpperBound(q, e, (budgetNodes*budgetNodes+k-1)/k)
}
