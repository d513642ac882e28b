package core

import (
	"context"
	"fmt"
	"math"

	"graphdiam/internal/bsp"
	"graphdiam/internal/graph"
)

// Clustering is the decomposition produced by Cluster or Cluster2: a
// partition of the nodes into clusters of bounded weighted radius.
type Clustering struct {
	// Center[u] is the node ID of u's cluster center.
	Center []int32
	// Dist[u] is the weight of a realized path from Center[u] to u, an
	// upper bound on dist(Center[u], u). This is the d_u used by the
	// quotient graph construction.
	Dist []float64
	// Centers lists the distinct cluster centers in increasing node order.
	Centers []graph.NodeID
	// Radius is max_u Dist[u] — the clustering radius R.
	Radius float64
	// Stages is the number of outer stages (iterations) executed.
	Stages int
	// DeltaEnd is the final value of the growth threshold Δ (the paper's
	// Δ_end, shown to be O(R_G(τ)) w.h.p. in Lemma 1).
	DeltaEnd float64
	// GrowingSteps counts the Δ-growing steps performed.
	GrowingSteps int64
	// MaxPartialGrowthSteps is the largest number of Δ-growing steps any
	// single PartialGrowth invocation used; with Options.StepCap set it
	// never exceeds the cap (the Section 4.1 bound).
	MaxPartialGrowthSteps int
	// Metrics is the cost snapshot accumulated during the run.
	Metrics bsp.Snapshot

	// edgeScans counts the adjacency entries the growing steps' send halves
	// walked on this process — physical work, not a paper metric, so it
	// stays out of Metrics.
	edgeScans int64
}

// NumClusters returns the number of clusters.
func (c *Clustering) NumClusters() int { return len(c.Centers) }

// ClusterIndex returns a dense renumbering: for each node, the index of its
// cluster in Centers. O(n), using a dense lookup array — centers are node
// IDs in [0, n), so no map is needed.
func (c *Clustering) ClusterIndex() []int32 {
	idx := make([]int32, len(c.Center))
	for i, ctr := range c.Centers {
		idx[ctr] = int32(i)
	}
	out := make([]int32, len(c.Center))
	for u, ctr := range c.Center {
		out[u] = idx[ctr]
	}
	return out
}

// Validate checks structural invariants of the clustering against g,
// returning a descriptive error on the first violation. Intended for tests
// and debugging; O(n + m).
func (c *Clustering) Validate(g *graph.Graph) error {
	n := g.NumNodes()
	if len(c.Center) != n || len(c.Dist) != n {
		return fmt.Errorf("core: clustering arrays sized %d/%d for n=%d",
			len(c.Center), len(c.Dist), n)
	}
	isCenter := make(map[int32]bool, len(c.Centers))
	for _, ctr := range c.Centers {
		isCenter[int32(ctr)] = true
	}
	for u := 0; u < n; u++ {
		ctr := c.Center[u]
		if ctr < 0 || int(ctr) >= n {
			return fmt.Errorf("core: node %d has invalid center %d", u, ctr)
		}
		if !isCenter[ctr] {
			return fmt.Errorf("core: node %d assigned to unlisted center %d", u, ctr)
		}
		if c.Center[ctr] != ctr {
			return fmt.Errorf("core: center %d not its own center", ctr)
		}
		if int32(u) == ctr && c.Dist[u] != 0 {
			return fmt.Errorf("core: center %d has nonzero dist %v", u, c.Dist[u])
		}
		if c.Dist[u] < 0 || math.IsInf(c.Dist[u], 1) || math.IsNaN(c.Dist[u]) {
			return fmt.Errorf("core: node %d has invalid dist %v", u, c.Dist[u])
		}
		if c.Dist[u] > c.Radius+1e-9 {
			return fmt.Errorf("core: node %d dist %v exceeds radius %v", u, c.Dist[u], c.Radius)
		}
	}
	return nil
}

// Cluster runs Algorithm 1, CLUSTER(G, τ): a progressive decomposition of g
// into clusters of bounded weighted radius. See the package documentation
// for the algorithm outline and Options for the theory/practice knobs.
//
// The returned clustering is deterministic in (g, opts) — including across
// engine worker counts, except for Metrics.Updates, which depends on the
// worker count (see Options.Seed). Cancellation of ctx is observed
// cooperatively at superstep barriers: the run stops within one Δ-growing
// step and returns ctx's error with a nil clustering. Progress snapshots,
// when requested via Options.Progress, are emitted at stage boundaries.
func Cluster(ctx context.Context, g *graph.Graph, opts Options) (*Clustering, error) {
	o := opts.withDefaults(g)
	e := o.Engine.Bind(ctx)
	n := g.NumNodes()
	if n == 0 {
		return &Clustering{Metrics: e.GlobalSnapshot()}, nil
	}
	before := e.GlobalSnapshot()

	st := newGrowState(g, e)
	delta := o.initialDelta(g)
	// Once Δ exceeds any possible path weight, further doubling cannot help
	// (only disconnection can stall growth then).
	deltaFutile := g.MaxEdgeWeight() * float64(n)
	if deltaFutile <= 0 {
		deltaFutile = 1
	}

	stopThresh := o.StopFactor * float64(o.Tau)
	if o.UseLogFactor {
		stopThresh *= log2n(n)
	}

	uncovered := n
	stage := 0
	var growingSteps int64
	maxPGSteps := 0
	for float64(uncovered) >= stopThresh && uncovered > 0 {
		// Center selection: p = γ·τ·(ln n)/|uncovered| in theory mode,
		// γ·τ/|uncovered| in practical mode.
		p := o.Gamma * float64(o.Tau) / float64(uncovered)
		if o.UseLogFactor {
			p *= logn(n)
		}
		newCenters := st.selectCenters(o.Seed, stage, p)
		if newCenters == 0 {
			// Extremely unlikely for τ ≥ 1 but possible; Algorithm 1 needs
			// at least one growth source to make progress on a graph with
			// no prior clusters.
			if st.forceCenter(o.Seed, stage) {
				newCenters = 1
			}
		}
		st.beginStageProxies(stage, false, 0)
		st.reseedFrontier(stage)

		reached := newCenters
		half := float64(uncovered) / 2
		capped := false
		for {
			// PartialGrowth(G_i, Δ): Δ-growing steps until fixpoint, half
			// coverage, or the Section 4.1 step cap.
			steps := 0
			fixpoint := false
			for {
				changed, newly := st.growStep(delta, stage)
				if err := e.Err(); err != nil {
					return nil, err
				}
				growingSteps++
				steps++
				reached += int(newly)
				if float64(reached) >= half {
					break
				}
				if !changed {
					fixpoint = true
					break
				}
				if o.StepCap > 0 && steps >= o.StepCap {
					capped = true
					break
				}
			}
			if steps > maxPGSteps {
				maxPGSteps = steps
			}
			if float64(reached) >= half || capped {
				break
			}
			if fixpoint && delta >= deltaFutile {
				break // remaining uncovered nodes unreachable at any Δ
			}
			delta *= 2
			st.reseedFrontier(stage)
		}
		covered := st.finishStage(stage)
		uncovered -= covered
		stage++
		if err := e.Err(); err != nil {
			return nil, err
		}
		o.Progress.emit("cluster", stage, delta, n-uncovered, n,
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

	c := buildClustering(st, stage, delta, growingSteps, diff(before, after))
	c.MaxPartialGrowthSteps = maxPGSteps
	o.Progress.emit("cluster", stage, delta, n, n, c.Metrics)
	return c, nil
}

// diff returns the metric delta between two snapshots.
func diff(before, after bsp.Snapshot) bsp.Snapshot {
	return bsp.Snapshot{
		Rounds:   after.Rounds - before.Rounds,
		Messages: after.Messages - before.Messages,
		Updates:  after.Updates - before.Updates,
	}
}

// buildClustering materializes the result from the grow state.
func buildClustering(st *growState, stages int, deltaEnd float64, steps int64, m bsp.Snapshot) *Clustering {
	n := st.n
	c := &Clustering{
		Center:       st.center,
		Dist:         st.totalD,
		Stages:       stages,
		DeltaEnd:     deltaEnd,
		GrowingSteps: steps,
		Metrics:      m,
		edgeScans:    st.edgeScans,
	}
	c.Radius = st.radius()
	seen := make([]bool, n)
	for u := 0; u < n; u++ {
		ctr := st.center[u]
		if !seen[ctr] {
			seen[ctr] = true
		}
	}
	for u := 0; u < n; u++ {
		if seen[u] {
			c.Centers = append(c.Centers, graph.NodeID(u))
		}
	}
	return c
}
