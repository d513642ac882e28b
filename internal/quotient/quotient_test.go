package quotient

import (
	"math"
	"slices"
	"testing"

	"graphdiam/internal/bsp"
	"graphdiam/internal/gen"
	"graphdiam/internal/graph"
	"graphdiam/internal/rng"
)

func TestBuildTwoClusterPath(t *testing.T) {
	// Path 0-1-2-3 (unit weights), clusters {0,1} centered at 0 and
	// {2,3} centered at 3. d = [0,1,1,0]. The single cut edge (1,2) maps
	// to a quotient edge of weight 1 + d1 + d2 = 3.
	g := gen.Path(4)
	center := []int32{0, 0, 3, 3}
	dist := []float64{0, 1, 1, 0}
	q, centers := Build(g, center, dist, bsp.New(2))
	if q.NumNodes() != 2 || q.NumEdges() != 1 {
		t.Fatalf("quotient shape: n=%d m=%d", q.NumNodes(), q.NumEdges())
	}
	if len(centers) != 2 || centers[0] != 0 || centers[1] != 3 {
		t.Fatalf("centers = %v", centers)
	}
	if w, ok := q.EdgeWeight(0, 1); !ok || w != 3 {
		t.Fatalf("quotient edge weight = %v, %v", w, ok)
	}
}

func TestBuildKeepsMinimumParallelEdge(t *testing.T) {
	// Two clusters joined by two cut edges of different projected weight.
	b := graph.NewBuilder(4, 4)
	b.AddEdge(0, 1, 1) // intra
	b.AddEdge(2, 3, 1) // intra
	b.AddEdge(0, 2, 5) // cut: 5 + 0 + 0 = 5
	b.AddEdge(1, 3, 1) // cut: 1 + 1 + 1 = 3
	g := b.Build()
	center := []int32{0, 0, 2, 2}
	dist := []float64{0, 1, 0, 1}
	q, _ := Build(g, center, dist, bsp.New(2))
	if w, _ := q.EdgeWeight(0, 1); w != 3 {
		t.Fatalf("quotient kept weight %v, want min 3", w)
	}
}

func TestBuildSingletonClustering(t *testing.T) {
	// Every node its own cluster: the quotient is the graph itself.
	r := rng.New(1)
	g := gen.UniformWeights(gen.Mesh(5), r)
	n := g.NumNodes()
	center := make([]int32, n)
	dist := make([]float64, n)
	for i := range center {
		center[i] = int32(i)
	}
	q, centers := Build(g, center, dist, bsp.New(4))
	if q.NumNodes() != n || q.NumEdges() != g.NumEdges() {
		t.Fatalf("quotient of singletons: n=%d m=%d, want %d/%d",
			q.NumNodes(), q.NumEdges(), n, g.NumEdges())
	}
	if len(centers) != n {
		t.Fatal("centers incomplete")
	}
	g.ForEachEdge(func(u, v graph.NodeID, w float64) {
		if w2, ok := q.EdgeWeight(u, v); !ok || w2 != w {
			t.Fatalf("edge (%d,%d) weight %v vs %v", u, v, w, w2)
		}
	})
}

func TestBuildOneCluster(t *testing.T) {
	g := gen.Path(5)
	center := []int32{2, 2, 2, 2, 2}
	dist := []float64{2, 1, 0, 1, 2}
	q, centers := Build(g, center, dist, bsp.New(2))
	if q.NumNodes() != 1 || q.NumEdges() != 0 {
		t.Fatalf("one-cluster quotient: n=%d m=%d", q.NumNodes(), q.NumEdges())
	}
	if len(centers) != 1 || centers[0] != 2 {
		t.Fatalf("centers = %v", centers)
	}
}

func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	r := rng.New(3)
	g := gen.UniformWeights(gen.GNM(120, 400, r), r)
	n := g.NumNodes()
	center := make([]int32, n)
	dist := make([]float64, n)
	for i := range center {
		center[i] = int32(i % 7 * (n / 7)) // 7 arbitrary clusters
		dist[i] = float64(i%5) * 0.1
	}
	// Make the designated centers self-centered with zero dist.
	for i := 0; i < 7; i++ {
		c := i * (n / 7)
		center[c] = int32(c)
		dist[c] = 0
	}
	q1, _ := Build(g, center, dist, bsp.New(1))
	off1, ts1, ws1 := q1.RawCSR()
	for _, p := range []int{2, 3, 8} {
		qp, _ := Build(g, center, dist, bsp.New(p))
		off, ts, ws := qp.RawCSR()
		if !slices.Equal(off, off1) || !slices.Equal(ts, ts1) || len(ws) != len(ws1) {
			t.Fatalf("P=%d: quotient structure depends on worker count", p)
		}
		for i := range ws {
			if math.Float64bits(ws[i]) != math.Float64bits(ws1[i]) {
				t.Fatalf("P=%d: weight slot %d: %v vs %v", p, i, ws[i], ws1[i])
			}
		}
		if qp.Stats() != q1.Stats() {
			t.Fatalf("P=%d: stats %+v vs %+v", p, qp.Stats(), q1.Stats())
		}
	}
}

func TestDiameterExactSmall(t *testing.T) {
	g := gen.WeightedPath([]float64{1, 2, 3})
	d := Diameter(g, bsp.New(2), DiameterOptions{})
	if d != 6 {
		t.Fatalf("diameter = %v, want 6", d)
	}
}

func TestDiameterEmpty(t *testing.T) {
	if d := Diameter(graph.NewBuilder(0, 0).Build(), bsp.New(1), DiameterOptions{}); d != 0 {
		t.Fatalf("empty diameter = %v", d)
	}
}
