// Package quotient builds the weighted quotient graph of a clustering and
// computes its diameter — the second half of the paper's diameter
// approximation (Section 4).
//
// Given a clustering with per-node center assignments c_u and center
// distances d_u, the quotient graph G_C has one node per cluster and, for
// every edge (u,v) of G with c_u ≠ c_v, an edge between the clusters of u
// and v of weight w(u,v) + d_u + d_v (keeping the minimum over parallel
// edges). The diameter estimate is Φ(G_C) + 2R. It is conservative — it
// never underestimates Φ(G) — only while Φ(G_C) is exact, which Diameter
// guarantees up to DiameterOptions.ExactThreshold quotient nodes; above
// that Φ(G_C) is a sweep lower bound and so is not guaranteed to be.
package quotient

import (
	"slices"

	"graphdiam/internal/bsp"
	"graphdiam/internal/cc"
	"graphdiam/internal/graph"
	"graphdiam/internal/sssp"
	"graphdiam/internal/validate"
)

// Build constructs the weighted quotient graph from per-node center IDs and
// center-distance upper bounds, as produced by core.Cluster. It returns the
// quotient and the original center node ID of each quotient node (quotient
// node i corresponds to centers[i]). Edge deduplication runs in parallel on
// e (one map round and one merge round in MR terms).
//
// e must be an in-process engine. The merge folds every worker's local
// map, and on a distributed engine each peer fills only the maps of the
// workers it owns, so the quotient would be missing edges. The distributed
// engine reproduces the clustering phase and Δ-stepping, which is what the
// transport-equivalence suites pin.
func Build(g *graph.Graph, center []int32, dist []float64, e *bsp.Engine) (*graph.Graph, []graph.NodeID) {
	n := g.NumNodes()
	// Dense renumbering of centers.
	seen := make([]bool, n)
	for _, c := range center {
		seen[c] = true
	}
	var centers []graph.NodeID
	for u := 0; u < n; u++ {
		if seen[u] {
			centers = append(centers, graph.NodeID(u))
		}
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = -1
	}
	for i, c := range centers {
		idx[c] = int32(i)
	}

	// Parallel edge projection: each worker dedups its share locally.
	P := e.Workers()
	locals := make([]map[uint64]float64, P)
	e.Superstep(n, func(w, start, end int) {
		m := make(map[uint64]float64)
		for u := start; u < end; u++ {
			cu := idx[center[u]]
			du := dist[u]
			ts, ws := g.Neighbors(graph.NodeID(u))
			for i, v := range ts {
				cv := idx[center[v]]
				if cu == cv {
					continue
				}
				a, b := cu, cv
				if a > b {
					a, b = b, a
				}
				key := uint64(a)<<32 | uint64(b)
				wq := ws[i] + du + dist[v]
				if old, ok := m[key]; !ok || wq < old {
					m[key] = wq
				}
			}
		}
		locals[w] = m
	})
	// Merge (the shuffle+reduce of the dedup round).
	merged := make(map[uint64]float64)
	for _, m := range locals {
		for k, v := range m {
			if old, ok := merged[k]; !ok || v < old {
				merged[k] = v
			}
		}
	}
	e.Metrics().AddRounds(1)
	e.Metrics().AddMessages(int64(len(merged)))

	b := graph.NewBuilder(len(centers), len(merged))
	keys := make([]uint64, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		b.AddEdge(graph.NodeID(k>>32), graph.NodeID(k&0xffffffff), merged[k])
	}
	return b.Build(), centers
}

// DiameterOptions controls how the quotient diameter is computed.
type DiameterOptions struct {
	// ExactThreshold is the maximum quotient size for which the diameter
	// is computed exactly by all-pairs Dijkstra (parallel). The paper
	// chooses τ so the quotient fits in one machine's memory; this is the
	// analogous knob. Default 4096.
	ExactThreshold int
	// Sweeps is the number of iterated farthest-node sweeps used on
	// quotients above the threshold. Default 16.
	Sweeps int
}

func (o DiameterOptions) withDefaults() DiameterOptions {
	if o.ExactThreshold <= 0 {
		o.ExactThreshold = 4096
	}
	if o.Sweeps <= 0 {
		o.Sweeps = 16
	}
	return o
}

// Diameter computes (or tightly estimates) the weighted diameter of the
// quotient graph q. Up to opts.ExactThreshold nodes it is exact, so CL-DIAM's
// Φ(G_C) + 2R is a guaranteed upper bound on Φ(G). Above the threshold it
// falls back to iterated farthest-node sweeps from every component, which
// yields a lower bound on Φ(G_C): near-exact in practice, but CL-DIAM's
// estimate is then no longer guaranteed to be ≥ Φ(G) (measured by
// `cmd/experiments -scale test`; see the experiment index in DESIGN.md).
func Diameter(q *graph.Graph, e *bsp.Engine, opts DiameterOptions) float64 {
	o := opts.withDefaults()
	n := q.NumNodes()
	if n == 0 {
		return 0
	}
	if n <= o.ExactThreshold {
		return validate.ExactDiameter(q, e)
	}
	label, k := cc.Components(q)
	reps := make([]graph.NodeID, k)
	found := make([]bool, k)
	for u, l := range label {
		if !found[l] {
			found[l] = true
			reps[l] = graph.NodeID(u)
		}
	}
	best := 0.0
	for _, r := range reps {
		if lb, _ := validate.LowerBound(q, r, o.Sweeps); lb > best {
			best = lb
		}
	}
	return best
}

// Eccentric returns the quotient node with maximum eccentricity estimate
// found by a double sweep from node 0, useful for picking SSSP sources.
func Eccentric(q *graph.Graph) graph.NodeID {
	if q.NumNodes() == 0 {
		return 0
	}
	dist := sssp.Dijkstra(q, 0)
	_, far := sssp.Eccentricity(dist)
	return far
}
