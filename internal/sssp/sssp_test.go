package sssp

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"graphdiam/internal/bsp"
	"graphdiam/internal/gen"
	"graphdiam/internal/graph"
	"graphdiam/internal/rng"
)

func TestDijkstraPath(t *testing.T) {
	g := gen.WeightedPath([]float64{2, 3, 4})
	dist := Dijkstra(g, 0)
	want := []float64{0, 2, 5, 9}
	for i := range want {
		if dist[i] != want[i] {
			t.Fatalf("dist = %v, want %v", dist, want)
		}
	}
}

func TestDijkstraPrefersLightPath(t *testing.T) {
	// 0-1 weight 10, 0-2 weight 1, 2-1 weight 2: shortest 0→1 is 3.
	b := graph.NewBuilder(3, 3)
	b.AddEdge(0, 1, 10)
	b.AddEdge(0, 2, 1)
	b.AddEdge(2, 1, 2)
	dist := Dijkstra(b.Build(), 0)
	if dist[1] != 3 {
		t.Fatalf("dist[1] = %v, want 3", dist[1])
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	b := graph.NewBuilder(4, 1)
	b.AddEdge(0, 1, 1)
	dist := Dijkstra(b.Build(), 0)
	if !math.IsInf(dist[2], 1) || !math.IsInf(dist[3], 1) {
		t.Fatalf("unreachable nodes not Inf: %v", dist)
	}
}

func TestBellmanFordMatchesDijkstra(t *testing.T) {
	r := rng.New(21)
	g := gen.UniformWeights(gen.GNM(60, 150, r), r)
	d1 := Dijkstra(g, 0)
	d2, rounds := BellmanFord(g, 0)
	for i := range d1 {
		if math.Abs(d1[i]-d2[i]) > 1e-9 && !(math.IsInf(d1[i], 1) && math.IsInf(d2[i], 1)) {
			t.Fatalf("node %d: dijkstra %v, bellman-ford %v", i, d1[i], d2[i])
		}
	}
	if rounds < 1 {
		t.Fatalf("rounds = %d", rounds)
	}
}

func TestBellmanFordRoundsOnPath(t *testing.T) {
	// On a path of k edges from one end, Bellman–Ford needs exactly k
	// productive sweeps plus a final no-change sweep.
	g := gen.Path(6)
	_, rounds := BellmanFord(g, 0)
	if rounds != 6 {
		t.Fatalf("rounds = %d, want 6 (5 productive + 1 fixpoint)", rounds)
	}
}

func TestEccentricity(t *testing.T) {
	g := gen.WeightedPath([]float64{1, 5, 1})
	ecc, arg := Eccentricity(Dijkstra(g, 1))
	if ecc != 6 || arg != 3 {
		t.Fatalf("ecc=%v arg=%d, want 6, 3", ecc, arg)
	}
	// All-Inf (isolated source in empty graph component).
	b := graph.NewBuilder(2, 0)
	ecc, _ = Eccentricity(Dijkstra(b.Build(), 0))
	if ecc != 0 {
		t.Fatalf("ecc of isolated source = %v", ecc)
	}
}

func TestDeltaSteppingSeqMatchesDijkstra(t *testing.T) {
	r := rng.New(33)
	graphs := map[string]*graph.Graph{
		"mesh":    gen.UniformWeights(gen.Mesh(12), r),
		"gnm":     gen.UniformWeights(gen.GNM(200, 600, r), r),
		"path":    gen.WeightedPath([]float64{5, 1, 1, 9, 2, 2, 7}),
		"bimodal": gen.BimodalWeights(gen.Mesh(10), 1e-6, 1, 0.1, r),
	}
	for name, g := range graphs {
		for _, delta := range []float64{0.05, 0.3, 1.0, 10} {
			want := Dijkstra(g, 0)
			got := DeltaSteppingSeq(g, 0, delta)
			for i := range want {
				if math.Abs(want[i]-got.Dist[i]) > 1e-9 &&
					!(math.IsInf(want[i], 1) && math.IsInf(got.Dist[i], 1)) {
					t.Fatalf("%s Δ=%v node %d: want %v, got %v", name, delta, i, want[i], got.Dist[i])
				}
			}
			if got.Rounds < 1 || got.Relaxations < 1 {
				t.Fatalf("%s Δ=%v: empty accounting %+v", name, delta, got)
			}
		}
	}
}

func TestDeltaSteppingParallelMatchesDijkstra(t *testing.T) {
	r := rng.New(44)
	graphs := map[string]*graph.Graph{
		"mesh": gen.UniformWeights(gen.Mesh(16), r),
		"gnm":  gen.UniformWeights(gen.GNM(300, 900, r), r),
		"road": gen.RoadNetwork(gen.DefaultRoadNetworkOptions(20), r),
	}
	for name, g := range graphs {
		want := Dijkstra(g, 0)
		for _, workers := range []int{1, 2, 4, 8} {
			e := bsp.New(workers)
			delta := SuggestDelta(g)
			got := mustDeltaStepping(t, g, 0, delta, e)
			for i := range want {
				if math.Abs(want[i]-got.Dist[i]) > 1e-9 &&
					!(math.IsInf(want[i], 1) && math.IsInf(got.Dist[i], 1)) {
					t.Fatalf("%s P=%d node %d: want %v, got %v", name, workers, i, want[i], got.Dist[i])
				}
			}
		}
	}
}

func TestDeltaSteppingRoundsDecreaseWithDelta(t *testing.T) {
	// Larger Δ means fewer buckets and fewer rounds (approaching
	// Bellman-Ford), smaller Δ more rounds (approaching Dijkstra): the
	// tradeoff the paper describes in Section 1.
	r := rng.New(55)
	g := gen.UniformWeights(gen.Mesh(24), r)
	small := DeltaSteppingSeq(g, 0, 0.01)
	large := DeltaSteppingSeq(g, 0, 100)
	if small.Rounds <= large.Rounds {
		t.Fatalf("rounds: Δ=0.01 gives %d, Δ=100 gives %d; want more rounds for smaller Δ",
			small.Rounds, large.Rounds)
	}
	// And the reverse tradeoff on work: large Δ must not do less work.
	if large.Work() < small.Work() {
		t.Fatalf("work: Δ=100 gives %d < Δ=0.01 gives %d", large.Work(), small.Work())
	}
}

func TestDeltaSteppingPanicsOnBadDelta(t *testing.T) {
	g := gen.Path(3)
	for _, f := range []func(){
		func() { DeltaSteppingSeq(g, 0, 0) },
		func() { DeltaStepping(context.Background(), g, 0, -1, bsp.New(2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestParallelAccountingConsistency(t *testing.T) {
	// The parallel run's DeltaResult must agree with the engine's metrics
	// delta, and rounds must be positive.
	r := rng.New(66)
	g := gen.UniformWeights(gen.Mesh(12), r)
	e := bsp.New(4)
	res := mustDeltaStepping(t, g, 0, 0.3, e)
	snap := e.Metrics().Snapshot()
	if res.Rounds != snap.Rounds {
		t.Fatalf("rounds mismatch: result %d, engine %d", res.Rounds, snap.Rounds)
	}
	if res.Relaxations != snap.Messages {
		t.Fatalf("relaxations mismatch: %d vs %d", res.Relaxations, snap.Messages)
	}
	if res.Updates != snap.Updates+1 {
		t.Fatalf("updates mismatch: %d vs %d", res.Updates, snap.Updates+1)
	}
}

func TestTuneDeltaPicksFewestRounds(t *testing.T) {
	r := rng.New(77)
	g := gen.UniformWeights(gen.Mesh(12), r)
	cands := []float64{0.01, 0.1, 1, 10}
	best := TuneDelta(g, 0, cands)
	bestRounds := DeltaSteppingSeq(g, 0, best).Rounds
	for _, d := range cands {
		if r := DeltaSteppingSeq(g, 0, d).Rounds; r < bestRounds {
			t.Fatalf("TuneDelta picked Δ=%v (%d rounds) but Δ=%v has %d", best, bestRounds, d, r)
		}
	}
}

func TestDiameterUpperBound(t *testing.T) {
	// On a path from an end node, ecc = Φ so the bound is 2Φ; the bound
	// must always be in [Φ, 2Φ].
	g := gen.Path(50)
	e := bsp.New(2)
	ub, _ := mustUpperBound(t, g, 0, 1, e)
	if ub != 2*49 {
		t.Fatalf("ub from end = %v, want 98", ub)
	}
	ubMid, _ := mustUpperBound(t, g, 25, 1, bsp.New(2))
	if ubMid < 49 || ubMid > 98 {
		t.Fatalf("ub from middle = %v, want within [49, 98]", ubMid)
	}
}

// Property: Δ-stepping (seq and parallel) agrees with Dijkstra on random
// weighted graphs for random Δ.
func TestDeltaSteppingProperty(t *testing.T) {
	check := func(seed uint64, deltaRaw uint8, workersRaw uint8) bool {
		r := rng.New(seed)
		g := gen.UniformWeights(gen.GNM(80, 200, r), r)
		delta := float64(deltaRaw%50+1) / 25.0
		workers := int(workersRaw)%4 + 1
		want := Dijkstra(g, 0)
		seq := DeltaSteppingSeq(g, 0, delta)
		par := mustDeltaStepping(t, g, 0, delta, bsp.New(workers))
		for i := range want {
			wInf := math.IsInf(want[i], 1)
			if wInf != math.IsInf(seq.Dist[i], 1) || wInf != math.IsInf(par.Dist[i], 1) {
				return false
			}
			if wInf {
				continue
			}
			if math.Abs(want[i]-seq.Dist[i]) > 1e-9 || math.Abs(want[i]-par.Dist[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: all four exact SSSP implementations — Dijkstra, sequential
// Bellman–Ford, and sequential and parallel Δ-stepping — agree exactly on
// integral weights, where every path sum is exact in float64.
func TestAllSSSPImplementationsAgree(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		g := gen.IntegralUniformWeights(gen.GNM(60, 180, r), 50, r)
		delta := SuggestDelta(g)
		a := Dijkstra(g, 0)
		b, _ := BellmanFord(g, 0)
		c := DeltaSteppingSeq(g, 0, delta).Dist
		d := mustDeltaStepping(t, g, 0, delta, bsp.New(2)).Dist
		for i := range a {
			if a[i] != b[i] || a[i] != c[i] || a[i] != d[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDijkstraMesh64(b *testing.B) {
	g := gen.UniformWeights(gen.Mesh(64), rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dijkstra(g, 0)
	}
}

func BenchmarkDeltaSteppingSeqMesh64(b *testing.B) {
	g := gen.UniformWeights(gen.Mesh(64), rng.New(1))
	delta := SuggestDelta(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DeltaSteppingSeq(g, 0, delta)
	}
}

func BenchmarkDeltaSteppingParallelMesh64(b *testing.B) {
	g := gen.UniformWeights(gen.Mesh(64), rng.New(1))
	delta := SuggestDelta(g)
	e := bsp.New(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustDeltaStepping(b, g, 0, delta, e)
	}
}
