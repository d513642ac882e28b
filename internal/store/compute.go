package store

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"graphdiam/internal/bsp"
	"graphdiam/internal/core"
	"graphdiam/internal/graph"
)

// Params is the full algorithm parameter set of a decomposition or diameter
// query. It is the cache key (together with the graph's identity), so every
// field that can change the output — or the metered cost — participates in
// the canonical encoding. The zero value selects the library defaults.
type Params struct {
	// Tau is the decomposition granularity τ; 0 derives the core default.
	Tau int `json:"tau,omitempty"`
	// Seed drives all randomness; runs are deterministic in (graph, Params).
	Seed uint64 `json:"seed,omitempty"`
	// Workers is the simulated machine count; 0 selects all cores.
	Workers int `json:"workers,omitempty"`
	// StepCap bounds Δ-growing steps per PartialGrowth (0 = unlimited).
	StepCap int `json:"stepCap,omitempty"`
	// DeltaInit selects the initial Δ guess: "avg" (default), "min", or
	// "fixed" (requires FixedDelta > 0).
	DeltaInit  string  `json:"deltaInit,omitempty"`
	FixedDelta float64 `json:"fixedDelta,omitempty"`
	// Cluster2 selects the theoretically-grounded CLUSTER2 decomposition.
	Cluster2 bool `json:"cluster2,omitempty"`
	// WeightOblivious selects the [CPPU15] unweighted ablation. Mutually
	// exclusive with Cluster2.
	WeightOblivious bool `json:"weightOblivious,omitempty"`
}

// normalized folds equivalent parameter spellings together so they share a
// cache slot: DeltaInit is matched case-insensitively, "" means "avg", and
// FixedDelta, which only "fixed" reads, is zeroed under any other DeltaInit.
func (p Params) normalized() Params {
	p.DeltaInit = strings.ToLower(p.DeltaInit)
	if p.DeltaInit == "" {
		p.DeltaInit = "avg"
	}
	if p.DeltaInit != "fixed" {
		p.FixedDelta = 0
	}
	return p
}

// canonical renders the parameters as a stable cache-key fragment. op
// distinguishes the query kind so a decompose and a diameter run with the
// same knobs occupy distinct slots. Call on a normalized() value.
func (p Params) canonical(op string) string {
	return fmt.Sprintf("%s|tau=%d|seed=%d|w=%d|cap=%d|init=%s|fd=%g|c2=%t|wo=%t",
		op, p.Tau, p.Seed, p.Workers, p.StepCap, p.DeltaInit, p.FixedDelta,
		p.Cluster2, p.WeightOblivious)
}

// options translates Params into core options, or an error for
// inconsistent combinations. The options carry a fresh in-process engine
// of Workers workers; whoever runs them owns closing it.
func (p Params) options() (core.Options, error) {
	if p.Cluster2 && p.WeightOblivious {
		return core.Options{}, fmt.Errorf("store: cluster2 and weightOblivious are mutually exclusive")
	}
	o := core.Options{
		Tau:     p.Tau,
		Seed:    p.Seed,
		StepCap: p.StepCap,
	}
	switch strings.ToLower(p.DeltaInit) {
	case "", "avg":
		o.InitialDelta = core.DeltaAvgWeight
	case "min":
		o.InitialDelta = core.DeltaMinWeight
	case "fixed":
		if p.FixedDelta <= 0 {
			return core.Options{}, fmt.Errorf("store: deltaInit=fixed requires positive fixedDelta")
		}
		o.InitialDelta = core.DeltaFixed
		o.FixedDelta = p.FixedDelta
	default:
		return core.Options{}, fmt.Errorf("store: unknown deltaInit %q (want avg, min, or fixed)", p.DeltaInit)
	}
	o.Engine = bsp.New(p.Workers)
	return o, nil
}

// DecomposeResult is the JSON-friendly summary of a clustering run. The
// per-node assignment is summarized (cluster count, radius, size extremes)
// rather than shipped wholesale; clients that need the full assignment run
// the CLI tools.
type DecomposeResult struct {
	Graph        string       `json:"graph"`
	NumNodes     int          `json:"numNodes"`
	NumEdges     int          `json:"numEdges"`
	NumClusters  int          `json:"numClusters"`
	Radius       float64      `json:"radius"`
	Stages       int          `json:"stages"`
	DeltaEnd     float64      `json:"deltaEnd"`
	GrowingSteps int64        `json:"growingSteps"`
	MinCluster   int          `json:"minClusterSize"`
	MaxCluster   int          `json:"maxClusterSize"`
	Metrics      bsp.Snapshot `json:"metrics"`
	WallMillis   float64      `json:"wallMillis"`
}

// DiameterResult is the JSON-friendly outcome of a CL-DIAM run.
type DiameterResult struct {
	Graph            string       `json:"graph"`
	Estimate         float64      `json:"estimate"`
	QuotientDiameter float64      `json:"quotientDiameter"`
	Radius           float64      `json:"radius"`
	QuotientNodes    int          `json:"quotientNodes"`
	QuotientEdges    int          `json:"quotientEdges"`
	NumClusters      int          `json:"numClusters"`
	Stages           int          `json:"stages"`
	Metrics          bsp.Snapshot `json:"metrics"`
	WallMillis       float64      `json:"wallMillis"`
}

// Decompose runs (or serves from cache) a CLUSTER/CLUSTER2 decomposition of
// the named graph. cached reports whether an identical earlier or
// concurrent request supplied the result.
func (s *Store) Decompose(ctx context.Context, graphName string, p Params) (DecomposeResult, bool, error) {
	return s.DecomposeObserved(ctx, graphName, p, nil)
}

// DecomposeObserved is Decompose with a progress observer. The observer is
// not part of the cache identity; it fires only when this request is the
// one actually running the computation — cache hits and joined flights
// deliver the result without intermediate snapshots.
func (s *Store) DecomposeObserved(ctx context.Context, graphName string, p Params, progress core.ProgressFunc) (DecomposeResult, bool, error) {
	p = p.normalized()
	if _, err := p.options(); err != nil { // validate before touching the cache
		return DecomposeResult{}, false, err
	}
	val, cached, err := s.do(ctx, graphName, p.canonical("decompose"),
		func(b []byte) (any, error) {
			var r DecomposeResult
			err := json.Unmarshal(b, &r)
			return r, err
		},
		func(ctx context.Context, g *graph.Graph) (any, error) {
			return s.runDecompose(ctx, graphName, g, p, progress)
		})
	if err != nil {
		return DecomposeResult{}, false, err
	}
	res := val.(DecomposeResult)
	res.Graph = graphName // results are shared by content; the name is the asker's
	return res, cached, nil
}

func (s *Store) runDecompose(ctx context.Context, name string, g *graph.Graph, p Params, progress core.ProgressFunc) (DecomposeResult, error) {
	o, err := p.options()
	if err != nil {
		return DecomposeResult{}, err
	}
	defer o.Engine.Close() // release the persistent worker pool with the run
	o.Engine.SetTracer(s.cfg.Metrics.Tracer())
	o.Progress = progress
	start := time.Now()
	var cl *core.Clustering
	switch {
	case p.Cluster2:
		var c2 *core.Cluster2Result
		if c2, err = core.Cluster2(ctx, g, o); err == nil {
			cl = c2.Clustering
		}
	case p.WeightOblivious:
		cl, err = core.ClusterUnweighted(ctx, g, o)
	default:
		cl, err = core.Cluster(ctx, g, o)
	}
	if err != nil {
		return DecomposeResult{}, err
	}
	res := DecomposeResult{
		Graph:        name,
		NumNodes:     g.NumNodes(),
		NumEdges:     g.NumEdges(),
		NumClusters:  cl.NumClusters(),
		Radius:       cl.Radius,
		Stages:       cl.Stages,
		DeltaEnd:     cl.DeltaEnd,
		GrowingSteps: cl.GrowingSteps,
		Metrics:      cl.Metrics,
		WallMillis:   float64(time.Since(start)) / float64(time.Millisecond),
	}
	res.MinCluster, res.MaxCluster = clusterSizeExtremes(cl)
	s.addCost(cl.Metrics)
	return res, nil
}

// Diameter runs (or serves from cache) the CL-DIAM diameter approximation
// of the named graph.
func (s *Store) Diameter(ctx context.Context, graphName string, p Params) (DiameterResult, bool, error) {
	return s.DiameterObserved(ctx, graphName, p, nil)
}

// DiameterObserved is Diameter with a progress observer; see
// DecomposeObserved for the observer's semantics.
func (s *Store) DiameterObserved(ctx context.Context, graphName string, p Params, progress core.ProgressFunc) (DiameterResult, bool, error) {
	p = p.normalized()
	if _, err := p.options(); err != nil {
		return DiameterResult{}, false, err
	}
	val, cached, err := s.do(ctx, graphName, p.canonical("diameter"),
		func(b []byte) (any, error) {
			var r DiameterResult
			err := json.Unmarshal(b, &r)
			return r, err
		},
		func(ctx context.Context, g *graph.Graph) (any, error) {
			return s.runDiameter(ctx, graphName, g, p, progress)
		})
	if err != nil {
		return DiameterResult{}, false, err
	}
	res := val.(DiameterResult)
	res.Graph = graphName // results are shared by content; the name is the asker's
	return res, cached, nil
}

func (s *Store) runDiameter(ctx context.Context, name string, g *graph.Graph, p Params, progress core.ProgressFunc) (DiameterResult, error) {
	o, err := p.options()
	if err != nil {
		return DiameterResult{}, err
	}
	defer o.Engine.Close() // release the persistent worker pool with the run
	o.Engine.SetTracer(s.cfg.Metrics.Tracer())
	o.Progress = progress
	d, err := core.ApproxDiameter(ctx, g, core.DiamOptions{
		Options:         o,
		UseCluster2:     p.Cluster2,
		WeightOblivious: p.WeightOblivious,
	})
	if err != nil {
		return DiameterResult{}, err
	}
	res := DiameterResult{
		Graph:            name,
		Estimate:         d.Estimate,
		QuotientDiameter: d.QuotientDiameter,
		Radius:           d.Radius,
		QuotientNodes:    d.QuotientNodes,
		QuotientEdges:    d.QuotientEdges,
		Metrics:          d.Metrics,
		WallMillis:       float64(d.WallTime) / float64(time.Millisecond),
	}
	if d.Clustering != nil {
		res.NumClusters = d.Clustering.NumClusters()
		res.Stages = d.Clustering.Stages
	}
	s.addCost(d.Metrics)
	return res, nil
}

// clusterSizeExtremes returns the smallest and largest cluster sizes.
func clusterSizeExtremes(cl *core.Clustering) (minSize, maxSize int) {
	if cl.NumClusters() == 0 {
		return 0, 0
	}
	counts := make(map[int32]int, cl.NumClusters())
	for _, c := range cl.Center {
		counts[c]++
	}
	first := true
	for _, c := range counts {
		if first || c < minSize {
			minSize = c
		}
		if first || c > maxSize {
			maxSize = c
		}
		first = false
	}
	return minSize, maxSize
}
