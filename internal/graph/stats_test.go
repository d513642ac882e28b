package graph_test

import (
	"math"
	"testing"

	"graphdiam/internal/gen"
	"graphdiam/internal/graph"
	"graphdiam/internal/rng"
)

// naiveStats recomputes Stats node by node through the public adjacency
// API, independently of ComputeStats's flat scan over the weight array.
func naiveStats(g *graph.Graph) graph.Stats {
	s := graph.Stats{NumNodes: g.NumNodes(), NumEdges: g.NumEdges()}
	lo, hi, sum, slots := math.Inf(1), math.Inf(-1), 0.0, 0
	for u := 0; u < g.NumNodes(); u++ {
		_, ws := g.Neighbors(graph.NodeID(u))
		s.MaxDegree = max(s.MaxDegree, len(ws))
		for _, w := range ws {
			lo, hi = min(lo, w), max(hi, w)
			sum += w
			slots++
		}
	}
	if slots > 0 {
		s.MinWeight, s.MaxWeight, s.AvgWeight = lo, hi, sum/float64(slots)
	}
	return s
}

// TestComputeStatsMatchesBuild: the statistics a Builder caches, the ones
// ComputeStats derives from the raw arrays, and a node-by-node
// recomputation agree exactly on generated graphs of every shape,
// including the empty and the edgeless graph.
func TestComputeStatsMatchesBuild(t *testing.T) {
	r := rng.New(11)
	graphs := map[string]*graph.Graph{
		"empty":    graph.NewBuilder(0, 0).Build(),
		"edgeless": graph.NewBuilder(7, 0).Build(),
		"path":     gen.WeightedPath([]float64{0.5, 2, 0.25}),
		"mesh":     gen.Mesh(9),
		"gnm":      gen.UniformWeights(gen.GNM(300, 1200, r), r),
		"rmat":     gen.UniformWeights(gen.RMatDefault(9, r), r),
		"road":     gen.RoadNetwork(gen.DefaultRoadNetworkOptions(24), r),
	}
	for name, g := range graphs {
		got := graph.ComputeStats(g.RawCSR())
		if got != g.Stats() {
			t.Errorf("%s: ComputeStats %+v != Stats %+v", name, got, g.Stats())
		}
		if want := naiveStats(g); got != want {
			t.Errorf("%s: ComputeStats %+v != recomputation %+v", name, got, want)
		}
	}
}
