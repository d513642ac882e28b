package validate

import (
	"testing"
	"testing/quick"

	"graphdiam/internal/bsp"
	"graphdiam/internal/gen"
	"graphdiam/internal/graph"
	"graphdiam/internal/rng"
)

func TestExactDiameterPath(t *testing.T) {
	g := gen.WeightedPath([]float64{1, 2, 3})
	if d := ExactDiameter(g, bsp.New(2)); d != 6 {
		t.Fatalf("diameter = %v, want 6", d)
	}
}

func TestExactDiameterMesh(t *testing.T) {
	// Unit-weight S×S mesh has diameter 2(S-1).
	const s = 6
	if d := ExactDiameter(gen.Mesh(s), bsp.New(4)); d != 2*(s-1) {
		t.Fatalf("mesh diameter = %v, want %d", d, 2*(s-1))
	}
}

func TestExactDiameterDisconnected(t *testing.T) {
	// Two components: a path of weight 5 and one of weight 9; the paper's
	// convention takes the max within components.
	b := graph.NewBuilder(5, 3)
	b.AddEdge(0, 1, 5)
	b.AddEdge(2, 3, 4)
	b.AddEdge(3, 4, 5)
	if d := ExactDiameter(b.Build(), bsp.New(2)); d != 9 {
		t.Fatalf("diameter = %v, want 9", d)
	}
}

func TestExactDiameterEmptyAndSingleton(t *testing.T) {
	if d := ExactDiameter(graph.NewBuilder(0, 0).Build(), bsp.New(2)); d != 0 {
		t.Fatalf("empty diameter = %v", d)
	}
	if d := ExactDiameter(graph.NewBuilder(1, 0).Build(), bsp.New(2)); d != 0 {
		t.Fatalf("singleton diameter = %v", d)
	}
}

func TestExactDiameterWorkerInvariance(t *testing.T) {
	r := rng.New(3)
	g := gen.UniformWeights(gen.GNM(100, 300, r), r)
	d1 := ExactDiameter(g, bsp.New(1))
	d8 := ExactDiameter(g, bsp.New(8))
	if d1 != d8 {
		t.Fatalf("diameter depends on workers: %v vs %v", d1, d8)
	}
}

func TestLowerBoundNeverExceedsDiameter(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		g := gen.UniformWeights(gen.GNM(60, 150, r), r)
		exact := ExactDiameter(g, bsp.New(4))
		lb, _ := LowerBound(g, 0, 4)
		return lb <= exact+1e-9 && lb >= 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLowerBoundExactOnPath(t *testing.T) {
	// Two sweeps from anywhere on a path land on the true diameter.
	g := gen.WeightedPath([]float64{3, 1, 4, 1, 5})
	lb, far := LowerBound(g, 2, 3)
	if lb != 14 {
		t.Fatalf("lb = %v, want 14", lb)
	}
	if far != 0 && far != 5 {
		t.Fatalf("farthest node = %d, want an endpoint", far)
	}
}

func TestLowerBoundTightOnMesh(t *testing.T) {
	r := rng.New(9)
	g := gen.UniformWeights(gen.Mesh(10), r)
	exact := ExactDiameter(g, bsp.New(4))
	lb, _ := LowerBound(g, 0, 6)
	if lb > exact+1e-9 {
		t.Fatalf("lb %v exceeds exact %v", lb, exact)
	}
	if lb < 0.8*exact {
		t.Fatalf("lb %v too loose vs exact %v", lb, exact)
	}
}

func TestUnweightedDiameter(t *testing.T) {
	if d := UnweightedDiameter(gen.Path(7), bsp.New(2)); d != 6 {
		t.Fatalf("path Ψ = %d, want 6", d)
	}
	if d := UnweightedDiameter(gen.Mesh(5), bsp.New(2)); d != 8 {
		t.Fatalf("mesh Ψ = %d, want 8", d)
	}
	if d := UnweightedDiameter(gen.Complete(9), bsp.New(2)); d != 1 {
		t.Fatalf("K9 Ψ = %d, want 1", d)
	}
	// Weighted diameter of a reweighted mesh differs from Ψ, but Ψ must
	// ignore weights entirely.
	r := rng.New(2)
	g := gen.UniformWeights(gen.Mesh(5), r)
	if d := UnweightedDiameter(g, bsp.New(2)); d != 8 {
		t.Fatalf("weighted mesh Ψ = %d, want 8", d)
	}
}

func TestWeightedVsUnweightedRelationship(t *testing.T) {
	// With weights in (0,1], the weighted diameter is at most Ψ(G) and at
	// least Ψ(G) * minWeight.
	r := rng.New(4)
	g := gen.UniformWeights(gen.Mesh(7), r)
	phi := ExactDiameter(g, bsp.New(2))
	psi := UnweightedDiameter(g, bsp.New(2))
	if phi > float64(psi)+1e-9 {
		t.Fatalf("Φ=%v > Ψ=%d with (0,1] weights", phi, psi)
	}
	if phi <= 0 {
		t.Fatalf("Φ=%v must be positive", phi)
	}
}

func BenchmarkExactDiameterMesh24(b *testing.B) {
	g := gen.UniformWeights(gen.Mesh(24), rng.New(1))
	e := bsp.New(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExactDiameter(g, e)
	}
}

func BenchmarkLowerBound4Sweeps(b *testing.B) {
	g := gen.UniformWeights(gen.Mesh(48), rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LowerBound(g, 0, 4)
	}
}
