package validate

import (
	"context"
	"errors"
	"math"
	"testing"

	"graphdiam/internal/bsp"
	"graphdiam/internal/gen"
	"graphdiam/internal/graph"
	"graphdiam/internal/rng"
)

// TestExactDiameterMatchesAllPairs cross-validates the bounding diameter
// computation against the quadratic all-pairs reference on a spread of
// topologies and weight distributions large enough to exercise the pruning
// path (n > 2·exactBatch).
func TestExactDiameterMatchesAllPairs(t *testing.T) {
	r := rng.New(99)
	graphs := map[string]*graph.Graph{
		"mesh-uniform": gen.UniformWeights(gen.Mesh(12), r.Split()),
		"mesh-bimodal": gen.BimodalWeights(gen.Mesh(12), 1e-6, 1, 0.3, r.Split()),
		"road":         gen.RoadNetwork(gen.DefaultRoadNetworkOptions(12), r.Split()),
		"rmat":         gen.UniformWeights(gen.RMatDefault(7, r.Split()), r.Split()),
		"path":         gen.UniformWeights(gen.Path(150), r.Split()),
		"exp-weights":  gen.ExponentialWeights(gen.Mesh(10), 1, r.Split()),
		"star":         gen.UniformWeights(gen.Star(80), r.Split()),
		"cycle":        gen.UniformWeights(gen.Cycle(123), r.Split()),
		"small-world":  smallWorld(24, 600, r.Split()),
		"two-comps":    twoComponents(r.Split()),
		"leaf-start":   leafStart(r.Split()),
	}
	for name, g := range graphs {
		e := bsp.New(4)
		got := ExactDiameter(g, e)
		want := exactDiameterAllPairs(g, e)
		e.Close()
		if math.Abs(got-want) > 1e-9*math.Max(1, want) {
			t.Errorf("%s: bounding diameter %v != all-pairs %v", name, got, want)
		}
	}
}

// smallWorld is a road network of the given side plus shortcut random
// edges weighing 1–4 times its average edge: the shape of a CL-DIAM
// quotient after appends of random edges, where most nodes are about as
// far from the center as the diameter endpoints are.
func smallWorld(side, shortcuts int, r *rng.RNG) *graph.Graph {
	road := gen.RoadNetwork(gen.DefaultRoadNetworkOptions(side), r.Split())
	n := road.NumNodes()
	b := graph.NewBuilder(n, road.NumEdges()+shortcuts)
	road.ForEachEdge(func(u, v graph.NodeID, w float64) { b.AddEdge(u, v, w) })
	avg := road.AvgEdgeWeight()
	for i := 0; i < shortcuts; i++ {
		b.AddEdge(graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n)), avg*(1+3*r.Float64()))
	}
	return b.Build()
}

// twoComponents is a weighted 6×6 mesh on nodes 0–35, four isolated
// nodes, and a weighted path on the higher IDs 40–119: the component
// visited last holds the diameter.
func twoComponents(r *rng.RNG) *graph.Graph {
	b := graph.NewBuilder(120, 0)
	gen.UniformWeights(gen.Mesh(6), r.Split()).ForEachEdge(func(u, v graph.NodeID, w float64) { b.AddEdge(u, v, w) })
	for i := 40; i < 119; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), r.Float64Open())
	}
	return b.Build()
}

// leafStart is a weighted 80-node path whose end node 0 also carries ten
// pendant leaves, so the loop's start, the max-degree node, is a leaf of
// the long path rather than a central node.
func leafStart(r *rng.RNG) *graph.Graph {
	b := graph.NewBuilder(90, 0)
	for i := 0; i < 79; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), r.Float64Open())
	}
	for i := 80; i < 90; i++ {
		b.AddEdge(0, graph.NodeID(i), r.Float64Open())
	}
	return b.Build()
}

// TestExactDiameterBoundsDisconnected: the convention is the largest
// within-component distance; the bounding computation (large-n path) must
// visit every component.
func TestExactDiameterBoundsDisconnected(t *testing.T) {
	// Two paths of very different lengths plus an isolated node.
	b := graph.NewBuilder(100, 0)
	for i := 0; i < 60; i++ { // path 0..60, diameter 60
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	for i := 62; i < 98; i++ { // path 62..98, diameter 36
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	g := b.Build()
	e := bsp.New(3)
	defer e.Close()
	if d := ExactDiameter(g, e); d != 60 {
		t.Fatalf("disconnected diameter = %v, want 60", d)
	}
}

// TestExactDiameterBoundsWorkerInvariance: the fixed batch schedule makes
// the result bit-identical across engine worker counts on the bounding
// (large-n) path.
func TestExactDiameterBoundsWorkerInvariance(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"bimodal":     gen.BimodalWeights(gen.Mesh(16), 1e-6, 1, 0.25, rng.New(7)),
		"small-world": smallWorld(24, 600, rng.New(7)),
	}
	for name, g := range graphs {
		var first float64
		for i, w := range []int{1, 3, 8} {
			e := bsp.New(w)
			d := ExactDiameter(g, e)
			e.Close()
			if i == 0 {
				first = d
			} else if math.Float64bits(d) != math.Float64bits(first) {
				t.Fatalf("%s, workers=%d: diameter %v != %v at workers=1", name, w, d, first)
			}
		}
	}
}

// TestDiameterUpperBoundForcedBudget: with a one-source budget the loop
// stops long before it converges, and what it returns must still be a
// finite bound no smaller than the exact diameter. The disconnected case
// has its longest component last, so the loop must give every component a
// source before the bound is finite. The small-world graph and the
// weighted cycle need several batches of sources to converge.
func TestDiameterUpperBoundForcedBudget(t *testing.T) {
	r := rng.New(36)
	b := graph.NewBuilder(120, 0)
	for _, p := range [][2]int{{0, 30}, {30, 50}, {50, 120}} {
		for i := p[0]; i < p[1]-1; i++ {
			b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1+float64(i%3))
		}
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"road", gen.RoadNetwork(gen.DefaultRoadNetworkOptions(16), r.Split())},
		{"small-world", smallWorld(24, 600, r.Split())},
		{"cycle", gen.UniformWeights(gen.Cycle(200), r.Split())},
		{"disconnected", b.Build()},
	}
	e := bsp.New(4)
	defer e.Close()
	for _, tc := range graphs {
		exact, need := boundDiameter(tc.g, e, tc.g.NumNodes())
		got, used := boundDiameter(tc.g, e, 1)
		if used >= need {
			t.Errorf("%s: budgeted run picked %d sources, the exact run %d: the budget did not bind", tc.name, used, need)
		}
		if math.IsInf(got, 0) || math.IsNaN(got) || got < exact-1e-9*exact {
			t.Errorf("%s: budgeted bound %v is not a finite upper bound on %v", tc.name, got, exact)
		}
		if d := DiameterUpperBound(tc.g, e, 1); d != got {
			t.Errorf("%s: DiameterUpperBound %v != loop result %v", tc.name, d, got)
		}
	}
}

// TestExactDiameterStopsWhenCancelled: on a cancelled engine the bounding
// loop ends at the first batch instead of picking batch after batch of
// sources whose Dijkstras the engine skips.
func TestExactDiameterStopsWhenCancelled(t *testing.T) {
	g := smallWorld(24, 600, rng.New(7))
	e := bsp.New(2)
	defer e.Close()
	if _, need := boundDiameter(g, e, g.NumNodes()); need <= 2*exactBatch {
		t.Fatalf("graph converges in %d sources; want several batches", need)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e.Bind(ctx)
	if _, used := boundDiameter(g, e, g.NumNodes()); used > exactBatch {
		t.Fatalf("cancelled engine: loop picked %d sources, want at most one batch of %d", used, exactBatch)
	}
	if !errors.Is(e.Err(), context.Canceled) {
		t.Fatalf("engine error = %v, want context.Canceled", e.Err())
	}
}
