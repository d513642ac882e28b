package mrcluster

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"graphdiam/internal/bsp"
	"graphdiam/internal/cc"
	"graphdiam/internal/core"
	"graphdiam/internal/gen"
	"graphdiam/internal/graph"
	"graphdiam/internal/rng"
	"graphdiam/internal/sssp"
)

// mustCoreCluster adapts the cancellable BSP API for comparison tests; a
// background context cannot produce an error.
func mustCoreCluster(t testing.TB, g *graph.Graph, o core.Options) *core.Clustering {
	t.Helper()
	cl, err := core.Cluster(context.Background(), g, o)
	if err != nil {
		t.Fatalf("core.Cluster: %v", err)
	}
	return cl
}

func TestMatchesBSPImplementation(t *testing.T) {
	// The heart of this package: the MR-model implementation and the BSP
	// implementation must produce the identical clustering for identical
	// (graph, τ, seed). The unit-weight mesh and torus make every candidate
	// tie, exercising the (distance, center) tie-break on both the BSP send
	// and apply sides; the R-MAT component's hubs keep uncovered neighbours,
	// so its proxies stay on the frontier instead of retiring.
	r := rng.New(61)
	rmat, _ := cc.LargestComponent(gen.UniformWeights(gen.RMatDefault(10, r), r))
	graphs := map[string]*graph.Graph{
		"mesh":       gen.UniformWeights(gen.Mesh(12), r),
		"gnm":        gen.UniformWeights(gen.GNM(200, 600, r), r),
		"road":       gen.RoadNetwork(gen.DefaultRoadNetworkOptions(14), r),
		"path":       gen.Path(100),
		"unit-mesh":  gen.Mesh(16),
		"unit-torus": gen.Torus(12),
		"rmat-lcc":   rmat,
	}
	for name, g := range graphs {
		for _, tau := range []int{2, 8, 32} {
			mrCl := Cluster(g, Options{Tau: tau, Seed: 5, Workers: 2})
			for _, workers := range []int{1, 4} {
				e := bsp.New(workers)
				bspCl := mustCoreCluster(t, g, core.Options{Tau: tau, Seed: 5, Engine: e})
				e.Close()
				if bspCl.Radius != mrCl.Radius {
					t.Fatalf("%s τ=%d P=%d: radius %v vs %v", name, tau, workers, bspCl.Radius, mrCl.Radius)
				}
				for u := range mrCl.Center {
					if bspCl.Center[u] != mrCl.Center[u] {
						t.Fatalf("%s τ=%d P=%d node %d: center %d vs %d",
							name, tau, workers, u, bspCl.Center[u], mrCl.Center[u])
					}
					if bspCl.Dist[u] != mrCl.Dist[u] {
						t.Fatalf("%s τ=%d P=%d node %d: dist %v vs %v",
							name, tau, workers, u, bspCl.Dist[u], mrCl.Dist[u])
					}
				}
				if bspCl.Stages != mrCl.Stages {
					t.Fatalf("%s τ=%d P=%d: stages %d vs %d", name, tau, workers, bspCl.Stages, mrCl.Stages)
				}
			}
		}
	}
}

func TestMatchesBSPProperty(t *testing.T) {
	check := func(seed uint64, tauRaw uint8) bool {
		r := rng.New(seed)
		g := gen.UniformWeights(gen.GNM(60, 180, r), r)
		tau := int(tauRaw)%12 + 1
		a := mustCoreCluster(t, g, core.Options{Tau: tau, Seed: seed})
		b := Cluster(g, Options{Tau: tau, Seed: seed})
		for u := range b.Center {
			if a.Center[u] != b.Center[u] || a.Dist[u] != b.Dist[u] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCoversEverythingWithValidDistances(t *testing.T) {
	r := rng.New(62)
	g := gen.UniformWeights(gen.Mesh(10), r)
	res := Cluster(g, Options{Tau: 4, Seed: 2})
	for u := range res.Center {
		if res.Center[u] < 0 {
			t.Fatalf("node %d uncovered", u)
		}
		if math.IsInf(res.Dist[u], 1) || res.Dist[u] < 0 {
			t.Fatalf("node %d dist %v", u, res.Dist[u])
		}
	}
	// Dist must upper-bound the true distance to the assigned center.
	centers := map[int32]bool{}
	for _, c := range res.Center {
		centers[c] = true
	}
	for c := range centers {
		dist := sssp.Dijkstra(g, graph.NodeID(c))
		for u := range res.Center {
			if res.Center[u] == c && res.Dist[u]+1e-9 < dist[u] {
				t.Fatalf("node %d: dist %v below true %v", u, res.Dist[u], dist[u])
			}
		}
	}
}

func TestMRRoundAccounting(t *testing.T) {
	r := rng.New(63)
	g := gen.UniformWeights(gen.Mesh(8), r)
	res := Cluster(g, Options{Tau: 4, Seed: 1, Workers: 2})
	if res.Engine.Rounds() < 1 {
		t.Fatal("no MR rounds recorded")
	}
	if res.Engine.MaxReducerLoad() < 1 {
		t.Fatal("no reducer load recorded")
	}
}

func TestEmptyGraph(t *testing.T) {
	res := Cluster(graph.NewBuilder(0, 0).Build(), Options{Tau: 1})
	if len(res.Center) != 0 || res.Radius != 0 {
		t.Fatal("empty graph clustering not empty")
	}
}

func TestSingletonRegime(t *testing.T) {
	g := gen.Path(5)
	res := Cluster(g, Options{Tau: 100, Seed: 1})
	for u := range res.Center {
		if res.Center[u] != int32(u) || res.Dist[u] != 0 {
			t.Fatalf("node %d not a singleton: center %d dist %v", u, res.Center[u], res.Dist[u])
		}
	}
}

func BenchmarkMRCluster(b *testing.B) {
	g := gen.UniformWeights(gen.Mesh(24), rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Cluster(g, Options{Tau: 16, Seed: uint64(i), Workers: 4})
	}
}
