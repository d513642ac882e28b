package quotient_test

import (
	"context"
	"testing"

	"graphdiam/internal/bsp"
	"graphdiam/internal/cc"
	"graphdiam/internal/core"
	"graphdiam/internal/gen"
	"graphdiam/internal/graph"
	"graphdiam/internal/quotient"
	"graphdiam/internal/rng"
)

// BenchmarkBuild times quotient.Build alone on the clusterings CL-DIAM
// builds it from: the R-MAT(15) largest component with uniform weights and
// a 320×320 road network, each clustered for a 2000-node quotient, on a
// 2-worker engine.
func BenchmarkBuild(b *testing.B) {
	r := rng.New(7)
	rmat, _ := cc.LargestComponent(gen.RMatDefault(15, r.Split()))
	rmat = gen.UniformWeights(rmat, r.Split())
	road, err := gen.FromSpec("road:320", 7)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{{"rmat:15", rmat}, {"road:320", road}} {
		b.Run(tc.name, func(b *testing.B) {
			e := bsp.New(2)
			defer e.Close()
			tau := core.TauForQuotientTarget(tc.g.NumNodes(), 2000)
			cl, err := core.Cluster(context.Background(), tc.g, core.Options{Tau: tau, Seed: 7, Engine: e})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink, _ = quotient.Build(tc.g, cl.Center, cl.Dist, e)
			}
		})
	}
}

// benchSink keeps the benchmarked call from being optimized away.
var benchSink *graph.Graph
