// Package core implements the paper's primary contribution: the weighted
// graph decomposition algorithms CLUSTER (Algorithm 1) and CLUSTER2
// (Algorithm 2), and the diameter approximation CL-DIAM built on them
// (Sections 3–5).
//
// CLUSTER grows disjoint clusters in stages. Each stage selects a random
// batch of new centers among the still-uncovered nodes and grows all
// clusters with Δ-growing steps — Bellman–Ford-style relaxations limited to
// paths of weight at most Δ — doubling Δ until at least half of the
// uncovered nodes are absorbed. Covered nodes are (virtually) contracted
// into their centers, so later stages grow from the cluster boundaries at
// zero stage-distance, exactly the distance structure of the paper's
// Contract procedure. CLUSTER2 refines the decomposition with doubling
// selection probabilities and the weight rescaling of Contract2, which
// yields the paper's O(log³ n) approximation guarantee.
//
// CL-DIAM (ApproxDiameter) estimates the weighted diameter as
// Φ(G_C) + 2·R where G_C is the weighted quotient graph of the clustering
// and R its radius — a conservative estimate: Φapprox ≥ Φ(G).
package core

import (
	"math"

	"graphdiam/internal/bsp"
	"graphdiam/internal/graph"
)

// DeltaInit selects the initial guess for the growth threshold Δ.
type DeltaInit int

const (
	// DeltaAvgWeight starts Δ at the average edge weight — the paper's
	// recommended practical initial guess (Section 5), which "reduces the
	// round complexity without affecting the approximation quality
	// significantly".
	DeltaAvgWeight DeltaInit = iota
	// DeltaMinWeight starts Δ at the minimum edge weight, as in the
	// pseudocode of Algorithm 1. Most doublings, best radius control.
	DeltaMinWeight
	// DeltaFixed starts Δ at Options.FixedDelta and still doubles as
	// needed. Used by the Δ-sensitivity experiment.
	DeltaFixed
)

// Options configures CLUSTER / CLUSTER2 / CL-DIAM.
type Options struct {
	// Tau is the decomposition granularity parameter τ: the expected
	// number of new cluster centers per stage. More clusters mean smaller
	// radius and fewer rounds but a larger quotient graph.
	Tau int

	// Gamma scales the center-selection probability
	// p = Gamma·τ·(ln n if UseLogFactor)/|uncovered|.
	// The paper's analysis uses γ = 4 ln 2 together with UseLogFactor;
	// the practical default (mirroring the authors' CL-DIAM choices) is 1
	// without the log factor. Zero selects the default for the mode.
	Gamma float64

	// UseLogFactor multiplies the selection probability numerator by ln n
	// and the stopping threshold by log₂ n (theory mode).
	UseLogFactor bool

	// StopFactor stops cluster growth and covers the remaining nodes as
	// singletons when |uncovered| < StopFactor·τ·(log₂ n if UseLogFactor).
	// The paper's analysis uses 8; the practical default is 1.
	// Zero selects the default.
	StopFactor float64

	// InitialDelta selects the initial Δ guess; FixedDelta is the value
	// used when InitialDelta == DeltaFixed.
	InitialDelta DeltaInit
	FixedDelta   float64

	// StepCap, when positive, bounds the number of Δ-growing steps in a
	// single PartialGrowth invocation (the Section 4.1 remark: capping at
	// O(n/τ) bounds round complexity for skewed topologies at the cost of
	// an extra approximation factor). 0 means unlimited.
	StepCap int

	// Seed drives all randomness. Runs are deterministic in
	// (graph, Options) including across worker counts, except for the
	// Updates counter of the metrics: it counts every improving candidate,
	// and which candidates improve depends on their arrival order, which
	// the worker count changes.
	Seed uint64

	// Engine supplies parallelism and metrics; nil creates a default. The
	// run's context is bound to the engine, so callers sharing an engine
	// across runs must not run them concurrently.
	Engine *bsp.Engine

	// Progress, when non-nil, receives snapshots at stage boundaries —
	// never inside the Δ-growing hot loop. It does not affect the computed
	// result and is not part of any cache identity.
	Progress ProgressFunc
}

// withDefaults fills zero fields with the practical defaults.
func (o Options) withDefaults(g *graph.Graph) Options {
	if o.Tau <= 0 {
		o.Tau = defaultTau(g.NumNodes())
	}
	if o.Gamma <= 0 {
		if o.UseLogFactor {
			o.Gamma = 4 * math.Ln2
		} else {
			o.Gamma = 1
		}
	}
	if o.StopFactor <= 0 {
		if o.UseLogFactor {
			o.StopFactor = 8
		} else {
			o.StopFactor = 1
		}
	}
	if o.Engine == nil {
		o.Engine = bsp.New(0)
	}
	return o
}

// defaultTau picks τ so the final quotient stays comfortably below the
// paper's 100k-node target at our scales: √n clamped to [1, 4096].
func defaultTau(n int) int {
	tau := int(math.Sqrt(float64(n)))
	if tau < 1 {
		tau = 1
	}
	if tau > 4096 {
		tau = 4096
	}
	return tau
}

// initialDelta computes the starting Δ for the options.
func (o Options) initialDelta(g *graph.Graph) float64 {
	switch o.InitialDelta {
	case DeltaMinWeight:
		d := g.MinEdgeWeight()
		if math.IsInf(d, 1) {
			return 1
		}
		return d
	case DeltaFixed:
		if o.FixedDelta <= 0 {
			panic("core: DeltaFixed requires positive FixedDelta")
		}
		return o.FixedDelta
	default:
		d := g.AvgEdgeWeight()
		if d <= 0 {
			return 1
		}
		return d
	}
}

// logn returns ln n, at least 1, for probability scaling.
func logn(n int) float64 {
	l := math.Log(float64(n))
	if l < 1 {
		l = 1
	}
	return l
}

// log2n returns log₂ n, at least 1, for stopping thresholds.
func log2n(n int) float64 {
	l := math.Log2(float64(n))
	if l < 1 {
		l = 1
	}
	return l
}
