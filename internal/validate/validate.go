// Package validate provides reference diameter computations used to judge
// approximation quality:
//
//   - ExactDiameter: the exact weighted diameter by a fringe-ordered
//     bounding loop — iFUB (Crescenzi et al., TCS 2013) carried over to
//     weighted graphs, with Takes–Kosters eccentricity pruning — over
//     batches of parallel Dijkstras, feasible for graphs up to a few tens
//     of thousands of nodes; DiameterUpperBound runs the same loop under a
//     budget of Dijkstra sources and returns a proven upper bound if the
//     budget runs out;
//   - LowerBound: the paper's reference procedure — run sequential SSSP
//     repeatedly, each time from the farthest node reached by the previous
//     run, and keep the heaviest shortest path seen (Table 2's footnote).
//
// Approximation ratios reported by the experiments harness are
// estimate / LowerBound, exactly as in the paper.
package validate

import (
	"cmp"
	"math"
	"slices"

	"graphdiam/internal/bsp"
	"graphdiam/internal/cc"
	"graphdiam/internal/graph"
	"graphdiam/internal/sssp"
)

// ExactDiameter computes the exact weighted diameter of g — the maximum
// finite pairwise distance, which for disconnected graphs is the largest
// distance within a component, per the paper's convention.
//
// Instead of the quadratic all-pairs sweep it runs a fringe-ordered
// bounding loop: iFUB (Crescenzi et al., TCS 2013) carried over to
// weighted graphs, together with Takes–Kosters eccentricity pruning. Per
// component it runs a 2-sweep from the max-degree node s (a Dijkstra from
// s to its farthest node a, then from a to a's farthest node b), picks the
// center u = argmin_v max(d(a,v), d(b,v)), runs a Dijkstra from u, and
// then visits the nodes in descending d(u,·), ties to the smaller ID, in
// fixed batches of parallel Dijkstras. Every source's eccentricity is a
// realized distance and raises the lower bound LB.
//
// A node leaves the running once it has been a source or once every
// partner of it is provably at most LB away. For the latter each node v
// keeps U(v) = min over sources s of d(s,v) + reach(s), where reach(s) is
// s's largest distance to a node still in the running when s ran: a
// partner w still in the running then is at most d(s,v) + d(s,w) ≤ U(v)
// away, and one already out of it at most LB. With reach(s) = ecc(s) this
// is the Takes–Kosters upper bound; measuring it only over the nodes still
// in the running makes it shrink as the loop goes on. The component stops
// at the first node x with 2·d(u,x) ≤ LB: any two nodes y, z still in the
// running satisfy d(y,z) ≤ d(u,y) + d(u,z) ≤ 2·d(u,x). The comparisons
// keep a relative 1e-9 slack against floating-point path-summation
// asymmetry, so the result is the all-pairs answer up to summation order;
// on non-integral weights it can differ in the last ulp from an earlier
// schedule's. The schedule is independent of the worker count, so the
// result is deterministic across engines. Worst case remains n Dijkstras;
// on the benchmark's kernel quotients it stops after 3–42.
//
// If e is cancelled the loop stops after the Dijkstras in flight and the
// result is meaningless; callers check e.Err().
func ExactDiameter(g *graph.Graph, e *bsp.Engine) float64 {
	d, _ := boundDiameter(g, e, g.NumNodes())
	return d
}

// DiameterUpperBound runs ExactDiameter's loop with at most about
// maxSources Dijkstra sources (rounded up to the batch in flight). If the
// loop converges within the budget the result is the exact diameter.
// Otherwise a component cut short contributes max(LB, min(2·L, U)), where
// L and U are the largest d(u,·) and the largest U(v) over its nodes still
// in the running (before u has run, d(u,·) is the last source's
// distances): a pair of two such nodes is at most 2·L apart, a pair with
// one such node at most max(LB, U), and every other pair at most LB. The
// bound is always finite: every component gets at least its first
// Dijkstra, past the budget if need be. Cancellation is as for
// ExactDiameter.
func DiameterUpperBound(g *graph.Graph, e *bsp.Engine, maxSources int) float64 {
	d, _ := boundDiameter(g, e, maxSources)
	return d
}

// exactBatch is the number of Dijkstra sources per fringe batch. Fixed —
// not derived from the worker count — so the source schedule, and with it
// every floating-point outcome, is identical across engines.
const exactBatch = 16

// boundDiameter is the loop behind ExactDiameter and DiameterUpperBound.
// It also returns the number of Dijkstra sources it ran.
func boundDiameter(g *graph.Graph, e *bsp.Engine, maxSources int) (float64, int) {
	n := g.NumNodes()
	if n == 0 {
		return 0, 0
	}
	if n <= 2*exactBatch {
		return exactDiameterAllPairs(g, e), n
	}
	b := &bounder{g: g, e: e, budget: maxSources, farU: make([]float64, n), done: make([]bool, n)}
	for i := range b.farU {
		b.farU[i] = math.Inf(1)
	}
	// One distance array per batch slot, plus one that holds d(u,·) while
	// the batches run.
	b.dists = make([][]float64, exactBatch+1)
	for i := range b.dists {
		b.dists[i] = make([]float64, n)
	}
	// Heap-only scratches: DijkstraInto writes into dists, so a scratch's
	// own distance array would go unused, and the heap is allocated on
	// first use.
	b.scratch = make([]*sssp.Scratch, exactBatch)
	for i := range b.scratch {
		b.scratch[i] = new(sssp.Scratch)
	}
	// The components in order of their smallest node, each as its nodes
	// in ascending order. Singletons have diameter 0 and need no source.
	label, _ := cc.Components(g)
	nodes := make([]graph.NodeID, n)
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
	}
	slices.SortStableFunc(nodes, func(x, y graph.NodeID) int { return cmp.Compare(label[x], label[y]) })
	for lo := 0; lo < n && e.Err() == nil; {
		hi := lo + 1
		for hi < n && label[nodes[hi]] == label[nodes[lo]] {
			hi++
		}
		if hi-lo > 1 {
			b.component(nodes[lo:hi])
		}
		lo = hi
	}
	return max(b.lb, b.ub), b.used
}

// bounder is the state of one boundDiameter call.
type bounder struct {
	g       *graph.Graph
	e       *bsp.Engine
	budget  int
	farU    []float64 // U(v): no partner of v is farther than max(LB, U(v)); +Inf before any source
	done    []bool    // node has been a source
	dists   [][]float64
	scratch []*sssp.Scratch
	ecc     [exactBatch]float64 // per source of the batch in flight
	reach   [exactBatch]float64
	lb      float64 // largest eccentricity of any source: a realized distance
	ub      float64 // largest bound a component cut short by the budget left
	used    int     // Dijkstra sources run
}

// component runs the loop on one connected component, given as its nodes
// in ascending order. It reorders comp.
func (b *bounder) component(comp []graph.NodeID) {
	g := b.g
	// The start: a 2-sweep from the max-degree node (ties to the smaller
	// ID), then the center. ran[i] is the source of dists[i].
	var ran []graph.NodeID
	dist := func(v graph.NodeID) []float64 {
		if i := slices.Index(ran, v); i >= 0 {
			return b.dists[i]
		}
		ran = append(ran, v)
		i := len(ran) - 1
		b.run(ran[i:], comp, b.dists[i:])
		return b.dists[i]
	}
	s := comp[0]
	for _, v := range comp {
		if g.Degree(v) > g.Degree(s) {
			s = v
		}
	}
	ds := dist(s)
	if b.settle(comp, ds) {
		return
	}
	_, a := sssp.Eccentricity(ds)
	da := dist(a)
	if b.settle(comp, da) {
		return
	}
	_, z := sssp.Eccentricity(da)
	dz := dist(z)
	if b.settle(comp, dz) {
		return
	}
	u, r := comp[0], math.Inf(1)
	for _, v := range comp {
		if x := max(da[v], dz[v]); x < r {
			u, r = v, x
		}
	}
	dist(u)
	i := slices.Index(ran, u)
	b.dists[i], b.dists[exactBatch] = b.dists[exactBatch], b.dists[i]
	du := b.dists[exactBatch]

	// The fringe: nodes in descending d(u,·), ties to the smaller ID, in
	// batches of the next exactBatch nodes still in the running.
	slices.SortFunc(comp, func(x, y graph.NodeID) int {
		if c := cmp.Compare(du[y], du[x]); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	var batch []graph.NodeID
	for pos := 0; !b.settle(comp[pos:], du); {
		thr := b.threshold()
		batch = batch[:0]
		for ; pos < len(comp) && len(batch) < exactBatch; pos++ {
			x := comp[pos]
			if 2*du[x] <= thr {
				pos = len(comp) // no pair of the nodes left can beat LB
				break
			}
			if !b.done[x] && b.farU[x] > thr {
				batch = append(batch, x)
			}
		}
		b.run(batch, comp[pos:], b.dists)
	}
}

// threshold is LB less the floating-point slack: a node whose U is at
// most it leaves the running.
func (b *bounder) threshold() float64 { return b.lb - 1e-9*b.lb }

// run runs a Dijkstra from each source into dists[i], in parallel, raises
// LB, and tightens U over nodes, which holds every node of the sources'
// component still in the running.
func (b *bounder) run(sources, nodes []graph.NodeID, dists [][]float64) {
	b.e.ParallelFor(len(sources), func(_, start, end int) {
		for i := start; i < end; i++ {
			b.scratch[i].DijkstraInto(b.g, sources[i], dists[i])
			b.ecc[i], _ = sssp.Eccentricity(dists[i])
		}
	})
	b.used += len(sources)
	if b.e.Err() != nil {
		return // cancelled: the caller discards the result
	}
	for i, s := range sources {
		b.done[s] = true
		b.lb = max(b.lb, b.ecc[i])
	}
	thr := b.threshold()
	b.e.ParallelFor(len(sources), func(_, start, end int) {
		for i := start; i < end; i++ {
			reach := 0.0
			for _, v := range nodes {
				if !b.done[v] && b.farU[v] > thr {
					reach = max(reach, dists[i][v])
				}
			}
			b.reach[i] = reach
		}
	})
	b.e.ParallelFor(len(nodes), func(_, start, end int) {
		for _, v := range nodes[start:end] {
			u := b.farU[v]
			for i := range sources {
				u = min(u, dists[i][v]+b.reach[i])
			}
			b.farU[v] = u
		}
	})
}

// settle reports whether the component needs no more sources. rest holds
// every node of it still in the running — not yet a source, U above the
// threshold — and ref is the distance array of one of its sources. Any two
// such nodes are at most 2·L apart, L their largest ref distance, and a
// pair with one such node at most max(LB, U), U their largest U(v); every
// other pair is at most LB. The component is settled when min(2·L, U)
// cannot beat LB or, that bound recorded, when the source budget is spent.
// A cancelled engine settles everything.
func (b *bounder) settle(rest []graph.NodeID, ref []float64) bool {
	if b.e.Err() != nil {
		return true
	}
	thr := b.threshold()
	l, u := 0.0, 0.0
	for _, v := range rest {
		if !b.done[v] && b.farU[v] > thr {
			l, u = max(l, ref[v]), max(u, b.farU[v])
		}
	}
	bound := min(2*l, u)
	if bound > thr && b.used < b.budget {
		return false
	}
	b.ub = max(b.ub, bound)
	return true
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
