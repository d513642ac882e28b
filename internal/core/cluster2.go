package core

import (
	"context"
	"math"

	"graphdiam/internal/graph"
)

// Cluster2Result bundles the refined decomposition of Algorithm 2 with the
// radius of the preliminary CLUSTER run it calibrates against.
type Cluster2Result struct {
	*Clustering
	// RCL is the radius R_CL(τ) of the preliminary CLUSTER(G, τ) run; the
	// growth threshold of every iteration is 2·RCL.
	RCL float64
}

// Cluster2 runs Algorithm 2, CLUSTER2(G, τ): it first runs CLUSTER(G, τ) to
// obtain the radius estimate R_CL(τ), then executes ⌈log₂ n⌉ iterations in
// which uncovered nodes become new centers with probability 2^i/n and all
// clusters grow by 2·R_CL-growing steps until fixpoint. The weight
// rescaling of Contract2 is realized by lowering every covered node's stage
// potential by 2·R_CL per iteration, so a cluster reaches light distance d
// only after ⌈d/(2R_CL)⌉ iterations — the key property behind the paper's
// O(log³ n) approximation bound (Theorem 2).
//
// CLUSTER2 trades a larger cluster count and weaker radius for that
// provable approximation; the practical CL-DIAM (ApproxDiameter) uses
// CLUSTER directly, as in the paper's Section 5.
//
// Cancellation of ctx is observed at superstep barriers (including inside
// the preliminary CLUSTER run); a cancelled run returns ctx's error.
func Cluster2(ctx context.Context, g *graph.Graph, opts Options) (*Cluster2Result, error) {
	o := opts.withDefaults(g)
	e := o.Engine.Bind(ctx)
	n := g.NumNodes()
	if n == 0 {
		return &Cluster2Result{Clustering: &Clustering{Metrics: e.GlobalSnapshot()}}, nil
	}
	before := e.GlobalSnapshot()

	// The preliminary run only calibrates R_CL; suppress its progress so
	// observers see a single monotone coverage series for the main pass.
	preOpts := o
	preOpts.Progress = nil
	pre, err := Cluster(ctx, g, preOpts)
	if err != nil {
		return nil, err
	}
	rcl := pre.Radius
	if rcl <= 0 {
		// Degenerate decomposition (e.g. every node a singleton): fall
		// back to the average weight so growth is still possible.
		rcl = g.AvgEdgeWeight()
		if rcl <= 0 {
			rcl = 1
		}
	}
	threshold := 2 * rcl

	st := newGrowState(g, e)
	iterations := int(math.Ceil(log2n(n)))
	if iterations < 1 {
		iterations = 1
	}
	uncovered := n
	var growingSteps int64
	stage := 0
	for ; stage < iterations && uncovered > 0; stage++ {
		p := math.Pow(2, float64(stage+1)) / float64(n)
		if stage == iterations-1 {
			p = 1 // final iteration selects every uncovered node (paper)
		}
		newCenters := st.selectCenters(o.Seed+1, stage, p)
		st.beginStageProxies(stage, true, threshold)
		st.reseedFrontier(stage)
		reached := newCenters
		for {
			changed, newly := st.growStep(threshold, stage)
			if err := e.Err(); err != nil {
				return nil, err
			}
			growingSteps++
			reached += int(newly)
			if !changed {
				break
			}
		}
		covered := st.finishStage(stage)
		uncovered -= covered
		o.Progress.emit("cluster", stage+1, threshold, n-uncovered, n,
			diff(before, e.GlobalSnapshot()))
	}
	if uncovered > 0 {
		// Unreachable leftovers (disconnected inputs): singletons.
		st.coverSingletons(stage)
		stage++
	}
	st.syncResult()
	after := e.GlobalSnapshot()
	if err := e.Err(); err != nil {
		return nil, err
	}

	c := buildClustering(st, stage, threshold, growingSteps, diff(before, after))
	o.Progress.emit("cluster", stage, threshold, n, n, c.Metrics)
	return &Cluster2Result{Clustering: c, RCL: rcl}, nil
}
