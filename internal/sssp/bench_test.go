package sssp

import (
	"context"
	"testing"

	"graphdiam/internal/bsp"
	"graphdiam/internal/cc"
	"graphdiam/internal/gen"
	"graphdiam/internal/graph"
	"graphdiam/internal/rng"
)

// BenchmarkDeltaStepping times one parallel Δ-stepping call as the
// benchmark's kernel phase does: a fresh 2-worker engine per call, the
// middle node as source, and Δ tuned over {avg/4, avg, 4·avg}. The inputs
// are a 320×320 road network and the R-MAT(12) largest component with
// uniform weights.
func BenchmarkDeltaStepping(b *testing.B) {
	road, err := gen.FromSpec("road:320", 7)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(7)
	rmat, _ := cc.LargestComponent(gen.RMatDefault(12, r.Split()))
	rmat = gen.UniformWeights(rmat, r.Split())
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{{"road:320", road}, {"rmat:12", rmat}} {
		b.Run(tc.name, func(b *testing.B) {
			src := graph.NodeID(tc.g.NumNodes() / 2)
			avg := tc.g.AvgEdgeWeight()
			delta := TuneDelta(tc.g, src, []float64{avg / 4, avg, 4 * avg})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := bsp.New(2)
				_, err := DeltaStepping(context.Background(), tc.g, src, delta, e)
				e.Close()
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
