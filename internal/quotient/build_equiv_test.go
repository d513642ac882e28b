package quotient_test

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"graphdiam/internal/bsp"
	"graphdiam/internal/cc"
	"graphdiam/internal/core"
	"graphdiam/internal/gen"
	"graphdiam/internal/graph"
	"graphdiam/internal/quotient"
	"graphdiam/internal/rng"
)

// buildReference is the map-based quotient construction Build replaced,
// kept verbatim as the oracle: per-worker hash maps keyed by the cluster
// pair, a sequential merge, a key sort and a graph.Builder.
func buildReference(g *graph.Graph, center []int32, dist []float64, e *bsp.Engine) (*graph.Graph, []graph.NodeID) {
	n := g.NumNodes()
	// Dense renumbering of centers.
	seen := make([]bool, n)
	for _, c := range center {
		seen[c] = true
	}
	var centers []graph.NodeID
	for u := 0; u < n; u++ {
		if seen[u] {
			centers = append(centers, graph.NodeID(u))
		}
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = -1
	}
	for i, c := range centers {
		idx[c] = int32(i)
	}

	// Parallel edge projection: each worker dedups its share locally.
	P := e.Workers()
	locals := make([]map[uint64]float64, P)
	e.Superstep(n, func(w, start, end int) {
		m := make(map[uint64]float64)
		for u := start; u < end; u++ {
			cu := idx[center[u]]
			du := dist[u]
			ts, ws := g.Neighbors(graph.NodeID(u))
			for i, v := range ts {
				cv := idx[center[v]]
				if cu == cv {
					continue
				}
				a, b := cu, cv
				if a > b {
					a, b = b, a
				}
				key := uint64(a)<<32 | uint64(b)
				wq := ws[i] + du + dist[v]
				if old, ok := m[key]; !ok || wq < old {
					m[key] = wq
				}
			}
		}
		locals[w] = m
	})
	// Merge (the shuffle+reduce of the dedup round).
	merged := make(map[uint64]float64)
	for _, m := range locals {
		for k, v := range m {
			if old, ok := merged[k]; !ok || v < old {
				merged[k] = v
			}
		}
	}
	e.Metrics().AddRounds(1)
	e.Metrics().AddMessages(int64(len(merged)))

	b := graph.NewBuilder(len(centers), len(merged))
	keys := make([]uint64, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		b.AddEdge(graph.NodeID(k>>32), graph.NodeID(k&0xffffffff), merged[k])
	}
	return b.Build(), centers
}

// assertSameQuotient builds the quotient of (center, dist) with Build and
// with buildReference on fresh P-worker engines and requires the CSR
// arrays, the cached Stats, the centers and the metered snapshot to be
// identical, weights bit for bit.
func assertSameQuotient(t *testing.T, g *graph.Graph, center []int32, dist []float64, P int) {
	t.Helper()
	eGot, eWant := bsp.New(P), bsp.New(P)
	defer eGot.Close()
	defer eWant.Close()
	got, gotCenters := quotient.Build(g, center, dist, eGot)
	want, wantCenters := buildReference(g, center, dist, eWant)

	gOff, gTs, gWs := got.RawCSR()
	wOff, wTs, wWs := want.RawCSR()
	if !slices.Equal(gOff, wOff) {
		t.Fatalf("P=%d: offsets differ (n=%d vs %d)", P, len(gOff)-1, len(wOff)-1)
	}
	if !slices.Equal(gTs, wTs) {
		t.Fatalf("P=%d: targets differ", P)
	}
	if !slices.EqualFunc(gWs, wWs, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		t.Fatalf("P=%d: weights differ", P)
	}
	if got.Stats() != want.Stats() {
		t.Fatalf("P=%d: stats %+v, want %+v", P, got.Stats(), want.Stats())
	}
	if !slices.Equal(gotCenters, wantCenters) {
		t.Fatalf("P=%d: centers differ", P)
	}
	if gs, ws := eGot.Metrics().Snapshot(), eWant.Metrics().Snapshot(); gs != ws {
		t.Fatalf("P=%d: snapshot %v, want %v", P, gs, ws)
	}
}

var workerCounts = []int{1, 2, 3, 4, 8}

// TestBuildMatchesReference: on road, R-MAT, G(n,m) and mesh graphs
// clustered at three quotient sizes, Build's quotient and accounting are
// those of the map-based construction for every worker count.
func TestBuildMatchesReference(t *testing.T) {
	road, err := gen.FromSpec("road:160", 3)
	if err != nil {
		t.Fatal(err)
	}
	gnm, err := gen.FromSpec("gnm:3000:12000", 5)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	rmat, _ := cc.LargestComponent(gen.RMatDefault(12, r.Split()))
	rmat = gen.UniformWeights(rmat, r.Split())
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"road:160", road},
		{"rmat:12", rmat},
		{"gnm:3000:12000", gnm},
		{"mesh:30", gen.Mesh(30)},
	}
	for _, tc := range graphs {
		n := tc.g.NumNodes()
		for _, target := range []int{200, 2000, n} {
			tau := core.TauForQuotientTarget(n, target)
			t.Run(fmt.Sprintf("%s/tau=%d", tc.name, tau), func(t *testing.T) {
				e := bsp.New(2)
				defer e.Close()
				cl, err := core.Cluster(context.Background(), tc.g, core.Options{Tau: tau, Seed: 11, Engine: e})
				if err != nil {
					t.Fatal(err)
				}
				for _, P := range workerCounts {
					assertSameQuotient(t, tc.g, cl.Center, cl.Dist, P)
				}
			})
		}
	}
}

// TestBuildMatchesReferenceEdgeCases: the empty graph, a single cluster,
// all singletons, and more workers than clusters.
func TestBuildMatchesReferenceEdgeCases(t *testing.T) {
	r := rng.New(9)
	g := gen.UniformWeights(gen.GNM(40, 120, r), r)
	n := g.NumNodes()
	one, singletons, three := make([]int32, n), make([]int32, n), make([]int32, n)
	dist := make([]float64, n)
	for u := range dist {
		one[u] = 5
		singletons[u] = int32(u)
		three[u] = []int32{0, 17, 33}[u%3]
		dist[u] = float64(u%4) * 0.25
	}
	cases := []struct {
		name   string
		g      *graph.Graph
		center []int32
		dist   []float64
	}{
		{"empty", graph.NewBuilder(0, 0).Build(), nil, nil},
		{"one cluster", g, one, dist},
		{"singletons", g, singletons, make([]float64, n)},
		{"P>k", g, three, dist},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, P := range workerCounts {
				assertSameQuotient(t, tc.g, tc.center, tc.dist, P)
			}
		})
	}
}
