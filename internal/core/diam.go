package core

import (
	"context"
	"fmt"
	"time"

	"graphdiam/internal/bsp"
	"graphdiam/internal/graph"
	"graphdiam/internal/quotient"
)

// DiamOptions configures ApproxDiameter (the paper's CL-DIAM).
type DiamOptions struct {
	// Options configures the underlying decomposition.
	Options
	// UseCluster2 selects the theoretically-grounded CLUSTER2
	// decomposition instead of CLUSTER. The paper's CL-DIAM uses CLUSTER
	// "for efficiency … CLUSTER2 … does not seem to provide a significant
	// improvement to the quality of the approximation in practice"
	// (Section 5); this flag exists for the comparison experiment.
	UseCluster2 bool
	// WeightOblivious selects the [CPPU15] unweighted decomposition
	// (ClusterUnweighted) — the ablation showing why the weighted
	// Δ-growing strategy is necessary. Mutually exclusive with
	// UseCluster2.
	WeightOblivious bool
}

// DiamResult is the outcome of a CL-DIAM run.
type DiamResult struct {
	// Estimate is Φapprox(G) = Φ(G_C) + 2R, an upper bound on Φ(G).
	Estimate float64
	// QuotientDiameter is Φ(G_C).
	QuotientDiameter float64
	// Radius is the clustering radius R.
	Radius float64
	// QuotientNodes and QuotientEdges give the size of G_C.
	QuotientNodes, QuotientEdges int
	// Clustering is the decomposition used.
	Clustering *Clustering
	// Metrics is the total platform-independent cost (decomposition +
	// quotient construction + quotient diameter).
	Metrics bsp.Snapshot
	// WallTime is the end-to-end elapsed time.
	WallTime time.Duration
}

// ApproxDiameter runs the paper's practical diameter approximation CL-DIAM:
// decompose g with CLUSTER(G, τ) (Section 3), build the weighted quotient
// graph (Section 4), and return Φ(G_C) + 2R. The estimate is conservative —
// Φapprox(G) ≥ Φ(G) — because quotient.Diameter returns Φ(G_C) exactly or
// a proven upper bound on it. Per the paper's experiments the estimate is
// within a factor ~1.4 of the true diameter in practice, far below the
// O(log³ n) worst-case guarantee; `cmd/experiments -scale test` measures
// the ratios here (see the experiment index in DESIGN.md).
//
// opts.Engine must be in-process: quotient.Build assembles every worker's
// quotient rows, and a distributed engine's peer builds only the rows of
// the workers it owns. The distributed engine reproduces the clustering
// phase and Δ-stepping, which is what the transport-equivalence suites pin.
//
// Cancellation of ctx is observed at superstep barriers throughout the
// decomposition and between the quotient phases; a cancelled run returns
// ctx's error. Progress snapshots carry Phase "cluster" during the
// decomposition and "quotient"/"done" afterwards.
func ApproxDiameter(ctx context.Context, g *graph.Graph, opts DiamOptions) (DiamResult, error) {
	o := opts
	o.Options = o.Options.withDefaults(g)
	e := o.Engine.Bind(ctx)
	start := time.Now()
	before := e.Metrics().Snapshot()

	var cl *Clustering
	var err error
	switch {
	case o.UseCluster2 && o.WeightOblivious:
		return DiamResult{}, fmt.Errorf("core: UseCluster2 and WeightOblivious are mutually exclusive")
	case o.UseCluster2:
		var c2 *Cluster2Result
		if c2, err = Cluster2(ctx, g, o.Options); err == nil {
			cl = c2.Clustering
		}
	case o.WeightOblivious:
		cl, err = ClusterUnweighted(ctx, g, o.Options)
	default:
		cl, err = Cluster(ctx, g, o.Options)
	}
	if err != nil {
		return DiamResult{}, err
	}

	res := DiamResult{Clustering: cl, Radius: cl.Radius}
	n := g.NumNodes()
	if n == 0 {
		res.Metrics = diff(before, e.Metrics().Snapshot())
		res.WallTime = time.Since(start)
		return res, nil
	}

	o.Progress.emit("quotient", cl.Stages, cl.DeltaEnd, n, n,
		diff(before, e.Metrics().Snapshot()))
	q, _ := quotient.Build(g, cl.Center, cl.Dist, e)
	if err := e.Err(); err != nil {
		return DiamResult{}, err
	}
	res.QuotientNodes = q.NumNodes()
	res.QuotientEdges = q.NumEdges()
	res.QuotientDiameter = quotient.Diameter(q, e, quotient.DiameterOptions{})
	if err := e.Err(); err != nil {
		return DiamResult{}, err
	}
	// The quotient diameter is computed inside one reducer's local memory
	// in O(1) rounds (paper, Section 4.1); charge one round for it.
	e.Metrics().AddRounds(1)

	res.Estimate = res.QuotientDiameter + 2*cl.Radius
	res.Metrics = diff(before, e.Metrics().Snapshot())
	res.WallTime = time.Since(start)
	o.Progress.emit("done", cl.Stages, cl.DeltaEnd, n, n, res.Metrics)
	return res, nil
}

// TauForQuotientTarget returns a τ that keeps the expected quotient size
// near target for an n-node graph: the decomposition creates roughly τ
// clusters per stage over a handful of stages in practical mode, so τ is
// set to target divided by a small stage estimate, clamped to [1, n].
func TauForQuotientTarget(n, target int) int {
	if target < 1 {
		target = 1
	}
	// Practical-mode stages until coverage are ~log₂(n/τ) but the bulk of
	// clusters appear in the first few stages; 4 is a robust divisor at
	// benchmark scales (validated in the experiments harness).
	tau := target / 4
	if tau < 1 {
		tau = 1
	}
	if tau > n {
		tau = n
	}
	return tau
}
