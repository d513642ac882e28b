package core

import (
	"math"
	"testing"

	"graphdiam/internal/bsp"
	"graphdiam/internal/gen"
	"graphdiam/internal/graph"
	"graphdiam/internal/rng"
	"graphdiam/internal/sssp"
)

// checkDistUpperBounds verifies that every node's Dist is at least the true
// shortest-path distance from its assigned center (the clustering's d_u are
// upper bounds realized by actual paths).
func checkDistUpperBounds(t *testing.T, g *graph.Graph, c *Clustering) {
	t.Helper()
	for _, ctr := range c.Centers {
		dist := sssp.Dijkstra(g, ctr)
		for u := range c.Center {
			if c.Center[u] != int32(ctr) {
				continue
			}
			if c.Dist[u]+1e-9 < dist[u] {
				t.Fatalf("node %d: Dist %v below true distance %v from center %d",
					u, c.Dist[u], dist[u], ctr)
			}
		}
	}
}

func TestClusterCoversAllNodes(t *testing.T) {
	r := rng.New(1)
	graphs := map[string]*graph.Graph{
		"mesh":  gen.UniformWeights(gen.Mesh(12), r),
		"gnm":   gen.UniformWeights(gen.GNM(200, 500, r), r),
		"path":  gen.Path(100),
		"star":  gen.Star(50),
		"road":  gen.RoadNetwork(gen.DefaultRoadNetworkOptions(16), r),
		"cycle": gen.Cycle(64),
	}
	for name, g := range graphs {
		cl := mustCluster(t, g, Options{Tau: 8, Seed: 42})
		if err := cl.Validate(g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cl.NumClusters() < 1 {
			t.Fatalf("%s: no clusters", name)
		}
		checkDistUpperBounds(t, g, cl)
	}
}

func TestClusterDeterministicAcrossWorkers(t *testing.T) {
	r := rng.New(7)
	g := gen.UniformWeights(gen.Mesh(16), r)
	var ref *Clustering
	for _, workers := range []int{1, 2, 4, 8} {
		cl := mustCluster(t, g, Options{Tau: 10, Seed: 5, Engine: bsp.New(workers)})
		if ref == nil {
			ref = cl
			continue
		}
		if cl.NumClusters() != ref.NumClusters() || cl.Radius != ref.Radius {
			t.Fatalf("P=%d: clusters=%d radius=%v vs ref %d/%v",
				workers, cl.NumClusters(), cl.Radius, ref.NumClusters(), ref.Radius)
		}
		for u := range cl.Center {
			if cl.Center[u] != ref.Center[u] || cl.Dist[u] != ref.Dist[u] {
				t.Fatalf("P=%d: node %d state (%d,%v) vs ref (%d,%v)",
					workers, u, cl.Center[u], cl.Dist[u], ref.Center[u], ref.Dist[u])
			}
		}
	}
}

func TestClusterDeterministicAcrossRuns(t *testing.T) {
	r := rng.New(8)
	g := gen.UniformWeights(gen.GNM(150, 400, r), r)
	a := mustCluster(t, g, Options{Tau: 6, Seed: 99})
	b := mustCluster(t, g, Options{Tau: 6, Seed: 99})
	for u := range a.Center {
		if a.Center[u] != b.Center[u] {
			t.Fatalf("same seed diverged at node %d", u)
		}
	}
	c := mustCluster(t, g, Options{Tau: 6, Seed: 100})
	same := true
	for u := range a.Center {
		if a.Center[u] != c.Center[u] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical clusterings (suspicious)")
	}
}

func TestClusterSingletonRegime(t *testing.T) {
	// τ ≥ n stops immediately: every node becomes a singleton cluster.
	g := gen.Path(10)
	cl := mustCluster(t, g, Options{Tau: 100, Seed: 1})
	if cl.NumClusters() != 10 {
		t.Fatalf("clusters = %d, want 10 singletons", cl.NumClusters())
	}
	if cl.Radius != 0 {
		t.Fatalf("singleton radius = %v, want 0", cl.Radius)
	}
	if err := cl.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestClusterRadiusShrinksWithMoreClusters(t *testing.T) {
	r := rng.New(11)
	g := gen.UniformWeights(gen.Mesh(20), r)
	coarse := mustCluster(t, g, Options{Tau: 2, Seed: 3})
	fine := mustCluster(t, g, Options{Tau: 64, Seed: 3})
	if fine.NumClusters() <= coarse.NumClusters() {
		t.Fatalf("cluster counts not ordered: fine %d <= coarse %d",
			fine.NumClusters(), coarse.NumClusters())
	}
	if fine.Radius > coarse.Radius*1.5 {
		t.Fatalf("radius did not shrink: fine %v vs coarse %v", fine.Radius, coarse.Radius)
	}
}

func TestClusterEmptyAndTinyGraphs(t *testing.T) {
	empty := mustCluster(t, graph.NewBuilder(0, 0).Build(), Options{Tau: 1})
	if empty.NumClusters() != 0 {
		t.Fatal("empty graph should have no clusters")
	}
	single := mustCluster(t, graph.NewBuilder(1, 0).Build(), Options{Tau: 1, Seed: 2})
	if single.NumClusters() != 1 || single.Center[0] != 0 {
		t.Fatalf("singleton graph: %+v", single)
	}
}

func TestClusterDisconnectedGraph(t *testing.T) {
	// Two far-apart components must still be fully covered.
	b := graph.NewBuilder(8, 6)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	b.AddEdge(4, 5, 1)
	b.AddEdge(5, 6, 1)
	b.AddEdge(6, 7, 1)
	g := b.Build()
	cl := mustCluster(t, g, Options{Tau: 1, Seed: 4})
	if err := cl.Validate(g); err != nil {
		t.Fatal(err)
	}
	// No cluster may span components.
	for u, ctr := range cl.Center {
		if (u < 4) != (ctr < 4) {
			t.Fatalf("cluster spans components: node %d center %d", u, ctr)
		}
	}
}

func TestClusterTheoryModeBounds(t *testing.T) {
	// Theory mode on a mesh: the number of clusters stays within the
	// O(τ log² n) bound (with explicit constants) and Δ_end within
	// O(R_G(τ)): we check the weaker sanity versions on a small mesh.
	// Theory-mode constants (8τ log n stop threshold) need n comfortably
	// above 8τ log₂ n; mesh(40) has n = 1600.
	r := rng.New(13)
	g := gen.UniformWeights(gen.Mesh(40), r)
	n := g.NumNodes()
	tau := 2
	cl := mustCluster(t, g, Options{Tau: tau, Seed: 6, UseLogFactor: true})
	if err := cl.Validate(g); err != nil {
		t.Fatal(err)
	}
	log2 := math.Log2(float64(n))
	maxClusters := float64(8*tau)*log2*log2 + float64(n) // slack: singleton tail
	if float64(cl.NumClusters()) > maxClusters {
		t.Fatalf("clusters = %d exceeds bound %v", cl.NumClusters(), maxClusters)
	}
	if cl.GrowingSteps < 1 {
		t.Fatal("no growing steps recorded")
	}
}

func TestClusterStepCapReducesRounds(t *testing.T) {
	// Section 4.1 remark: capping growing steps bounds rounds at an
	// approximation cost. The capped run must use no more growing steps
	// per stage and still produce a valid clustering.
	g := gen.Path(400) // worst case for ℓ: long unit path
	uncapped := mustCluster(t, g, Options{Tau: 2, Seed: 9})
	capped := mustCluster(t, g, Options{Tau: 2, Seed: 9, StepCap: 5})
	if err := capped.Validate(g); err != nil {
		t.Fatal(err)
	}
	if capped.GrowingSteps >= uncapped.GrowingSteps {
		t.Fatalf("step cap did not reduce growing steps: %d vs %d",
			capped.GrowingSteps, uncapped.GrowingSteps)
	}
}

func TestClusterMetricsAccounted(t *testing.T) {
	r := rng.New(17)
	g := gen.UniformWeights(gen.Mesh(10), r)
	e := bsp.New(4)
	cl := mustCluster(t, g, Options{Tau: 8, Seed: 2, Engine: e})
	if cl.Metrics.Rounds < int64(cl.Stages) {
		t.Fatalf("rounds %d below stage count %d", cl.Metrics.Rounds, cl.Stages)
	}
	if cl.Metrics.Updates == 0 || cl.Metrics.Messages == 0 {
		t.Fatalf("work not accounted: %+v", cl.Metrics)
	}
	if cl.GrowingSteps > cl.Metrics.Rounds {
		t.Fatalf("growing steps %d exceed rounds %d", cl.GrowingSteps, cl.Metrics.Rounds)
	}
}

// TestInteriorProxiesRetire bounds the physical work of the growing steps:
// once interior proxies retire, the send halves scan at most two adjacency
// entries per logical message, and the scan count — like every metric — is
// the same at any worker count.
func TestInteriorProxiesRetire(t *testing.T) {
	g, err := gen.FromSpec("road:160", 1)
	if err != nil {
		t.Fatal(err)
	}
	tau := TauForQuotientTarget(g.NumNodes(), 2000)
	var scans []int64
	for _, workers := range []int{1, 4} {
		e := bsp.New(workers)
		cl := mustCluster(t, g, Options{Tau: tau, Seed: 1, Engine: e})
		e.Close()
		ratio := float64(cl.edgeScans) / float64(cl.Metrics.Messages)
		t.Logf("workers=%d: %d edge scans, %d messages (%.2f×)",
			workers, cl.edgeScans, cl.Metrics.Messages, ratio)
		if ratio > 2 {
			t.Fatalf("workers=%d: %.2f edge scans per message, want ≤ 2", workers, ratio)
		}
		scans = append(scans, cl.edgeScans)
	}
	if scans[0] != scans[1] {
		t.Fatalf("edge scans differ across worker counts: %d vs %d", scans[0], scans[1])
	}
}

func TestClusterIndexDense(t *testing.T) {
	r := rng.New(19)
	g := gen.UniformWeights(gen.GNM(80, 200, r), r)
	cl := mustCluster(t, g, Options{Tau: 4, Seed: 3})
	idx := cl.ClusterIndex()
	k := cl.NumClusters()
	seen := make([]bool, k)
	for u, i := range idx {
		if i < 0 || int(i) >= k {
			t.Fatalf("node %d has cluster index %d out of [0,%d)", u, i, k)
		}
		seen[i] = true
		if cl.Centers[i] != graph.NodeID(cl.Center[u]) {
			t.Fatalf("index %d inconsistent with center %d", i, cl.Center[u])
		}
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("cluster index %d unused", i)
		}
	}
}

func TestInitialDeltaModes(t *testing.T) {
	g := gen.WeightedPath([]float64{1, 2, 3, 10})
	if d := (Options{InitialDelta: DeltaMinWeight}).initialDelta(g); d != 1 {
		t.Fatalf("min delta = %v", d)
	}
	if d := (Options{InitialDelta: DeltaAvgWeight}).initialDelta(g); d != 4 {
		t.Fatalf("avg delta = %v", d)
	}
	if d := (Options{InitialDelta: DeltaFixed, FixedDelta: 7}).initialDelta(g); d != 7 {
		t.Fatalf("fixed delta = %v", d)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("DeltaFixed without value must panic")
		}
	}()
	(Options{InitialDelta: DeltaFixed}).initialDelta(g)
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := gen.Path(6)
	cl := mustCluster(t, g, Options{Tau: 2, Seed: 1})
	if err := cl.Validate(g); err != nil {
		t.Fatal(err)
	}
	bad := *cl
	bad.Dist = append([]float64(nil), cl.Dist...)
	bad.Dist[3] = cl.Radius + 100
	if bad.Validate(g) == nil {
		t.Fatal("Validate missed a dist above radius")
	}
	bad2 := *cl
	bad2.Center = append([]int32(nil), cl.Center...)
	bad2.Center[0] = -1
	if bad2.Validate(g) == nil {
		t.Fatal("Validate missed an invalid center")
	}
}
