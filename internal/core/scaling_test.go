package core

import (
	"math"
	"slices"
	"testing"

	"graphdiam/internal/bsp"
	"graphdiam/internal/cc"
	"graphdiam/internal/gen"
	"graphdiam/internal/graph"
	"graphdiam/internal/rng"
)

// scaleWeights returns a copy of g with every edge weight multiplied by c.
func scaleWeights(t *testing.T, g *graph.Graph, c float64) *graph.Graph {
	t.Helper()
	offsets, targets, weights := g.RawCSR()
	scaled := make([]float64, len(weights))
	for i, w := range weights {
		scaled[i] = c * w
	}
	h, err := graph.FromCSR(offsets, targets, scaled, graph.ComputeStats(offsets, targets, scaled))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestWeightScalingMetamorphic: multiplying every edge weight by a power
// of two c scales every float CL-DIAM computes by exactly c and so changes
// no comparison. The clustering and its metered cost must be identical,
// and the estimate must scale bit for bit: Estimate(c·G) == c·Estimate(G).
func TestWeightScalingMetamorphic(t *testing.T) {
	road, err := gen.FromSpec("road:160", 7)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	lcc, _ := cc.LargestComponent(gen.RMatDefault(12, r.Split()))
	graphs := []struct {
		name string
		g    *graph.Graph
	}{{"road:160", road}, {"rmat:12-lcc", gen.UniformWeights(lcc, r.Split())}}
	run := func(g *graph.Graph) DiamResult {
		e := bsp.New(2)
		defer e.Close()
		return mustDiam(t, g, DiamOptions{Options: Options{Seed: 1, Engine: e}})
	}
	for _, tc := range graphs {
		base := run(tc.g)
		for _, c := range []float64{0.25, 2, 1024} {
			got := run(scaleWeights(t, tc.g, c))
			if !slices.Equal(got.Clustering.Center, base.Clustering.Center) {
				t.Errorf("%s ×%g: cluster centers differ", tc.name, c)
			}
			if got.Metrics != base.Metrics {
				t.Errorf("%s ×%g: metrics %v, want %v", tc.name, c, got.Metrics, base.Metrics)
			}
			if math.Float64bits(got.Estimate) != math.Float64bits(c*base.Estimate) {
				t.Errorf("%s ×%g: estimate %v, want %v", tc.name, c, got.Estimate, c*base.Estimate)
			}
		}
	}
}
