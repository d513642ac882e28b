package core

import (
	"context"
	"testing"

	"graphdiam/internal/bsp"
	"graphdiam/internal/cc"
	"graphdiam/internal/gen"
	"graphdiam/internal/graph"
	"graphdiam/internal/rng"
)

// BenchmarkApproxDiameter times one CL-DIAM call as the benchmark's kernel
// phase does: a fresh 2-worker engine per call and τ sized for a 2000-node
// quotient. The inputs are a 320×320 road network and the R-MAT(12)
// largest component with uniform weights.
func BenchmarkApproxDiameter(b *testing.B) {
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
			tau := TauForQuotientTarget(tc.g.NumNodes(), 2000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := bsp.New(2)
				_, err := ApproxDiameter(context.Background(), tc.g, DiamOptions{Options: Options{Tau: tau, Seed: 7, Engine: e}})
				e.Close()
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
