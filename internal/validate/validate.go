// Package validate provides reference diameter computations used to judge
// approximation quality:
//
//   - ExactDiameter: the exact weighted diameter by Takes–Kosters
//     eccentricity bounding over batches of parallel Dijkstras, feasible
//     for graphs up to a few tens of thousands of nodes;
//     DiameterUpperBound runs the same loop under a budget of Dijkstra
//     sources and returns a proven upper bound if the budget runs out;
//   - LowerBound: the paper's reference procedure — run sequential SSSP
//     repeatedly, each time from the farthest node reached by the previous
//     run, and keep the heaviest shortest path seen (Table 2's footnote).
//
// Approximation ratios reported by the experiments harness are
// estimate / LowerBound, exactly as in the paper.
package validate

import (
	"math"

	"graphdiam/internal/bsp"
	"graphdiam/internal/graph"
	"graphdiam/internal/sssp"
)

// ExactDiameter computes the exact weighted diameter of g — the maximum
// finite pairwise distance, which for disconnected graphs is the largest
// distance within a component, per the paper's convention.
//
// Instead of the quadratic all-pairs sweep, it maintains per-node
// eccentricity bounds in the style of Takes & Kosters ("Determining the
// diameter of small world networks"): after running Dijkstra from a source
// s with eccentricity ecc(s), every node v within s's component satisfies
//
//	ecc(v) ≥ max(d(s,v), ecc(s) − d(s,v))   and   ecc(v) ≤ ecc(s) + d(s,v),
//
// so nodes whose upper bound cannot beat the best realized distance found
// so far can never be a diameter endpoint and are pruned. Sources are
// chosen adaptively in fixed-size batches (highest upper bounds to raise
// the lower bound, lowest lower bounds to cut the upper bounds) and each
// batch's Dijkstras run in parallel on e. The batch schedule is independent
// of the worker count, so the result is deterministic across engines; it
// equals the all-pairs answer up to floating-point path-summation order.
// Worst case remains n Dijkstras; on the benchmark topologies it converges
// in a few dozen.
//
// If e is cancelled the loop stops after the batch in flight and the
// result is meaningless; callers check e.Err().
func ExactDiameter(g *graph.Graph, e *bsp.Engine) float64 {
	d, _ := boundDiameter(g, e, g.NumNodes())
	return d
}

// DiameterUpperBound runs ExactDiameter's bounding loop with at most about
// maxSources Dijkstra sources (rounded up to whole batches). If the loop
// converges within the budget the result is the exact diameter; otherwise
// it is max(realized lower bound, largest eccentricity upper bound of a
// still-active node), which bounds Φ(g) from above because every pruned
// or finished node has eccentricity at most the realized lower bound. The
// bound is always finite: the loop keeps running past the budget until
// every component has had a source. Cancellation is as for ExactDiameter.
func DiameterUpperBound(g *graph.Graph, e *bsp.Engine, maxSources int) float64 {
	d, _ := boundDiameter(g, e, maxSources)
	return d
}

// boundDiameter is the loop behind ExactDiameter and DiameterUpperBound.
// It also returns the number of sources it picked.
func boundDiameter(g *graph.Graph, e *bsp.Engine, maxSources int) (float64, int) {
	n := g.NumNodes()
	if n == 0 {
		return 0, 0
	}
	if n <= 2*exactBatch {
		return exactDiameterAllPairs(g, e), n
	}
	eccL := make([]float64, n)
	eccU := make([]float64, n)
	done := make([]bool, n)
	for i := range eccU {
		eccU[i] = math.Inf(1)
	}
	active := make([]graph.NodeID, n)
	for i := range active {
		active[i] = graph.NodeID(i)
	}
	dists := make([][]float64, exactBatch)
	scratch := make([]*sssp.Scratch, exactBatch)
	for i := range dists {
		dists[i] = make([]float64, n)
		scratch[i] = sssp.NewScratch(n)
	}
	eccs := make([]float64, exactBatch)

	diamLB := 0.0
	maxU := math.Inf(1) // largest eccU over active
	used := 0
	for len(active) > 0 {
		if used >= maxSources && !math.IsInf(maxU, 1) {
			return math.Max(diamLB, maxU), used
		}
		sources := pickEccSources(active, eccL, eccU)
		e.ParallelFor(len(sources), func(_, start, end int) {
			for i := start; i < end; i++ {
				scratch[i].DijkstraInto(g, sources[i], dists[i])
				eccs[i], _ = sssp.Eccentricity(dists[i])
			}
		})
		used += len(sources)
		if e.Err() != nil {
			break // cancelled: the caller discards the result
		}
		for i := range sources {
			done[sources[i]] = true
			if eccs[i] > diamLB {
				diamLB = eccs[i]
			}
		}
		// Tighten every node's bounds against each new source (parallel over
		// nodes; each node is touched by exactly one worker).
		e.ParallelFor(n, func(_, start, end int) {
			for i := range sources {
				dist, ecc := dists[i], eccs[i]
				for v := start; v < end; v++ {
					d := dist[v]
					if math.IsInf(d, 1) {
						continue // other component: no triangle bounds
					}
					if d > eccL[v] {
						eccL[v] = d
					}
					if ecc-d > eccL[v] {
						eccL[v] = ecc - d
					}
					if ecc+d < eccU[v] {
						eccU[v] = ecc + d
					}
				}
			}
		})
		// A realized lower bound can also come from a non-source node's
		// eccL (it is a witnessed pairwise distance).
		diamLB = e.ReduceFloat64(n, func(_, start, end int) float64 {
			best := diamLB
			for v := start; v < end; v++ {
				if eccL[v] > best {
					best = eccL[v]
				}
			}
			return best
		}, math.Max)
		// Keep only nodes whose upper bound might still beat diamLB. The
		// slack keeps pruning conservative against floating-point
		// path-summation asymmetry, preserving exactness.
		slack := 1e-9 * diamLB
		kept := active[:0]
		maxU = 0
		for _, v := range active {
			if !done[v] && eccU[v] > diamLB-slack {
				kept = append(kept, v)
				maxU = math.Max(maxU, eccU[v])
			}
		}
		active = kept
	}
	return diamLB, used
}

// exactBatch is the number of Dijkstra sources per bounding round. Fixed —
// not derived from the worker count — so the chosen source schedule, and
// with it every floating-point outcome, is identical across engines.
const exactBatch = 16

// pickEccSources selects up to exactBatch sources from active:
// half the nodes with the largest eccentricity upper bounds (candidate
// diameter endpoints: running them raises the realized lower bound) and
// half with the smallest lower bounds (central nodes: their small
// eccentricities cut everyone's upper bounds). Deterministic: ties break
// toward smaller node IDs.
func pickEccSources(active []graph.NodeID, eccL, eccU []float64) []graph.NodeID {
	k := exactBatch
	if len(active) <= k {
		return append([]graph.NodeID(nil), active...)
	}
	type cand struct {
		v graph.NodeID
		x float64
	}
	bestU := make([]cand, 0, k/2) // max eccU, descending
	bestL := make([]cand, 0, k/2) // min eccL, ascending
	insert := func(s []cand, c cand, less func(a, b cand) bool, lim int) []cand {
		i := len(s)
		for i > 0 && less(c, s[i-1]) {
			i--
		}
		if i >= lim {
			return s
		}
		if len(s) < lim {
			s = append(s, cand{})
		}
		copy(s[i+1:], s[i:])
		s[i] = c
		return s
	}
	moreU := func(a, b cand) bool { return a.x > b.x || (a.x == b.x && a.v < b.v) }
	lessL := func(a, b cand) bool { return a.x < b.x || (a.x == b.x && a.v < b.v) }
	for _, v := range active {
		bestU = insert(bestU, cand{v, eccU[v]}, moreU, k/2)
		bestL = insert(bestL, cand{v, eccL[v]}, lessL, k/2)
	}
	picked := make([]graph.NodeID, 0, k)
	seen := make(map[graph.NodeID]bool, k)
	for _, c := range bestU {
		picked = append(picked, c.v)
		seen[c.v] = true
	}
	for _, c := range bestL {
		if !seen[c.v] {
			picked = append(picked, c.v)
		}
	}
	return picked
}

// exactDiameterAllPairs is the quadratic reference: Dijkstra from every
// node, parallel over sources. Used for small graphs and by the tests as
// the ground truth the bounding computation must match.
func exactDiameterAllPairs(g *graph.Graph, e *bsp.Engine) float64 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	return e.ReduceFloat64(n, func(_, start, end int) float64 {
		best := 0.0
		sc := sssp.NewScratch(n) // per-worker scratch: one allocation per sweep
		for s := start; s < end; s++ {
			dist := sc.Dijkstra(g, graph.NodeID(s))
			ecc, _ := sssp.Eccentricity(dist)
			if ecc > best {
				best = ecc
			}
		}
		return best
	}, math.Max)
}

// LowerBound computes a lower bound on the weighted diameter by iterated
// farthest-node sweeps: an SSSP from start, then from the farthest node it
// reached, and so on for the given number of sweeps. The returned value is
// the largest eccentricity observed, which is at most Φ(G) and in practice
// extremely close to it. It also returns the last farthest node, useful as
// a good SSSP source.
func LowerBound(g *graph.Graph, start graph.NodeID, sweeps int) (float64, graph.NodeID) {
	if sweeps < 1 {
		sweeps = 1
	}
	best := 0.0
	cur := start
	far := start
	sc := sssp.NewScratch(g.NumNodes())
	for i := 0; i < sweeps; i++ {
		dist := sc.Dijkstra(g, cur)
		ecc, argmax := sssp.Eccentricity(dist)
		if ecc > best {
			best = ecc
			far = argmax
		}
		if argmax == cur {
			break // isolated node or fixpoint
		}
		cur = argmax
	}
	return best, far
}

// UnweightedDiameter computes the exact unweighted diameter Ψ(G) (maximum
// hop distance within a component) by parallel BFS from every node.
// Quadratic; for validation and for checking Corollary 1's Ψ/n^(ε'/b)
// round bound on small graphs.
func UnweightedDiameter(g *graph.Graph, e *bsp.Engine) int {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	best := e.ReduceFloat64(n, func(_, start, end int) float64 {
		localBest := 0
		depth := make([]int32, n)
		queue := make([]graph.NodeID, 0, n)
		for s := start; s < end; s++ {
			for i := range depth {
				depth[i] = -1
			}
			queue = append(queue[:0], graph.NodeID(s))
			depth[s] = 0
			for head := 0; head < len(queue); head++ {
				u := queue[head]
				ts, _ := g.Neighbors(u)
				for _, v := range ts {
					if depth[v] < 0 {
						depth[v] = depth[u] + 1
						queue = append(queue, v)
					}
				}
			}
			for _, d := range depth {
				if int(d) > localBest {
					localBest = int(d)
				}
			}
		}
		return float64(localBest)
	}, math.Max)
	return int(best)
}
