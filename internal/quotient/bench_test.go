package quotient_test

import (
	"context"
	"fmt"
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

// BenchmarkDiameter times quotient.Diameter alone on the quotients of a
// 640×640 road network clustered for 2000 and 8000 quotient nodes (about
// 3.6k and 12k), on a 2-worker engine: one below and one above the 4096
// nodes up to which the Dijkstra budget covers every node.
func BenchmarkDiameter(b *testing.B) {
	g, err := gen.FromSpec("road:640", 7)
	if err != nil {
		b.Fatal(err)
	}
	for _, target := range []int{2000, 8000} {
		e := bsp.New(2)
		tau := core.TauForQuotientTarget(g.NumNodes(), target)
		cl, err := core.Cluster(context.Background(), g, core.Options{Tau: tau, Seed: 1, Engine: e})
		if err != nil {
			b.Fatal(err)
		}
		q, _ := quotient.Build(g, cl.Center, cl.Dist, e)
		b.Run(fmt.Sprintf("target=%d", target), func(b *testing.B) {
			b.ReportMetric(float64(q.NumNodes()), "nodes")
			for i := 0; i < b.N; i++ {
				diamSink = quotient.Diameter(q, e, quotient.DiameterOptions{})
			}
		})
		e.Close()
	}
}

// benchSink and diamSink keep the benchmarked calls from being optimized
// away.
var (
	benchSink *graph.Graph
	diamSink  float64
)
