package core

import (
	"context"
	"math"

	"graphdiam/internal/graph"
)

// ClusterUnweighted runs the weight-oblivious decomposition of [CPPU15]
// ("Space and time efficient parallel graph decomposition, clustering, and
// diameter approximation", SPAA 2015) on a weighted graph: clusters grow by
// BFS hops, ignoring edge weights, while the cumulative weighted distance
// to each node's center is still tracked so the quotient construction and
// radius remain well-defined.
//
// The paper this repository reproduces points out (Section 1) that "no
// analytical guarantees would be provided by the weight-oblivious execution
// of these algorithms on a weighted graph since, for a given topology, the
// system of shortest paths may radically change once weights are
// introduced". ClusterUnweighted exists precisely to measure that effect —
// the weight-obliviousness ablation of the experiments harness shows its
// radius (and hence the diameter estimate) degrade on weighted road
// networks where CLUSTER stays tight.
func ClusterUnweighted(ctx context.Context, g *graph.Graph, opts Options) (*Clustering, error) {
	o := opts.withDefaults(g)
	e := o.Engine.Bind(ctx)
	n := g.NumNodes()
	if n == 0 {
		return &Clustering{Metrics: e.GlobalSnapshot()}, nil
	}
	before := e.GlobalSnapshot()

	st := newGrowState(g, e)
	st.unitGrowth = true
	// Hop growth has no Δ threshold: any hop count is admissible; stages
	// stop on the half-coverage goal exactly as in [CPPU15].
	hopLimit := math.Inf(1)

	stopThresh := o.StopFactor * float64(o.Tau)
	if o.UseLogFactor {
		stopThresh *= log2n(n)
	}

	uncovered := n
	stage := 0
	var growingSteps int64
	maxPGSteps := 0
	for float64(uncovered) >= stopThresh && uncovered > 0 {
		p := o.Gamma * float64(o.Tau) / float64(uncovered)
		if o.UseLogFactor {
			p *= logn(n)
		}
		newCenters := st.selectCenters(o.Seed, stage, p)
		if newCenters == 0 {
			if st.forceCenter(o.Seed, stage) {
				newCenters = 1
			}
		}
		st.beginStageProxies(stage, false, 0)
		st.reseedFrontier(stage)

		reached := newCenters
		half := float64(uncovered) / 2
		steps := 0
		for {
			changed, newly := st.growStep(hopLimit, stage)
			if err := e.Err(); err != nil {
				return nil, err
			}
			growingSteps++
			steps++
			reached += int(newly)
			if float64(reached) >= half || !changed {
				break
			}
			if o.StepCap > 0 && steps >= o.StepCap {
				break
			}
		}
		if steps > maxPGSteps {
			maxPGSteps = steps
		}
		covered := st.finishStage(stage)
		uncovered -= covered
		stage++
		if err := e.Err(); err != nil {
			return nil, err
		}
		o.Progress.emit("cluster", stage, hopLimit, n-uncovered, n,
			diff(before, e.GlobalSnapshot()))
	}
	if uncovered > 0 {
		st.coverSingletons(stage)
		stage++
	}
	st.syncResult()
	after := e.GlobalSnapshot()
	if err := e.Err(); err != nil {
		return nil, err
	}

	c := buildClustering(st, stage, math.Inf(1), growingSteps, diff(before, after))
	c.MaxPartialGrowthSteps = maxPGSteps
	o.Progress.emit("cluster", stage, hopLimit, n, n, c.Metrics)
	return c, nil
}
