package dataset

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"graphdiam/internal/gen"
	"graphdiam/internal/graph"
	"graphdiam/internal/rng"
)

// The lineage identity property, the heart of the dynamic-graph design:
// for any base graph and any delta, materializing (base snapshot +
// delta frame) must be BYTE-identical — same CSR payload, same content
// address — to a one-shot ingest of the merged edge list. The merge
// below is written independently of ApplyEdgeDelta (a plain edge-map
// fold) so the test cannot share a bug with the code under test.

// mergeEdges folds a delta into an edge list the naive way: drop removed
// pairs, then overlay insertions keeping the minimum weight per pair
// (the builder's parallel-edge rule), growing n to cover new endpoints.
func mergeEdges(g *graph.Graph, d *EdgeDelta) *graph.Graph {
	type pair struct{ u, v graph.NodeID }
	norm := func(u, v graph.NodeID) pair {
		if u > v {
			u, v = v, u
		}
		return pair{u, v}
	}
	edges := map[pair]float64{}
	g.ForEachEdge(func(u, v graph.NodeID, w float64) {
		edges[norm(u, v)] = w
	})
	for _, rm := range d.Rem {
		delete(edges, norm(rm.U, rm.V))
	}
	n := g.NumNodes()
	for _, in := range d.Ins {
		p := norm(in.U, in.V)
		if w, ok := edges[p]; !ok || in.W < w {
			edges[p] = in.W
		}
		if int(in.V)+1 > n {
			n = int(in.V) + 1
		}
		if int(in.U)+1 > n {
			n = int(in.U) + 1
		}
	}
	b := graph.NewBuilder(n, len(edges))
	for p, w := range edges {
		b.AddEdge(p.u, p.v, w)
	}
	return b.Build()
}

// replayReference is the Builder-based one-frame replay that lineages
// used before materialization became one merge: every edge of g that
// the delta does not remove, then every insertion, through a fresh
// graph.Builder. The chain tests fold it frame by frame as the oracle.
func replayReference(g *graph.Graph, d *EdgeDelta) (*graph.Graph, error) {
	if err := validateDelta(d); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	for _, in := range d.Ins {
		if int(in.U)+1 > n {
			n = int(in.U) + 1
		}
		if int(in.V)+1 > n {
			n = int(in.V) + 1
		}
	}
	removed := make(map[uint64]bool, len(d.Rem))
	for _, rm := range d.Rem {
		removed[pairKey(rm.U, rm.V)] = true
	}
	b := graph.NewBuilder(n, g.NumEdges()+len(d.Ins))
	g.ForEachEdge(func(u, v graph.NodeID, w float64) {
		if !removed[pairKey(u, v)] {
			b.AddEdge(u, v, w)
		}
	})
	for _, in := range d.Ins {
		b.AddEdge(in.U, in.V, in.W)
	}
	return b.Build(), nil
}

// requireSameCSR compares two graphs array for array, weights bitwise,
// plus their Stats.
func requireSameCSR(t testing.TB, want, got *graph.Graph) {
	t.Helper()
	wo, wt, ww := want.RawCSR()
	gotO, gotT, gotW := got.RawCSR()
	if !slices.Equal(wo, gotO) || !slices.Equal(wt, gotT) {
		t.Fatalf("CSR structure differs: want n=%d m=%d, got n=%d m=%d",
			want.NumNodes(), want.NumEdges(), got.NumNodes(), got.NumEdges())
	}
	for i := range ww {
		if math.Float64bits(ww[i]) != math.Float64bits(gotW[i]) {
			t.Fatalf("weight slot %d: want %v, got %v", i, ww[i], gotW[i])
		}
	}
	if want.Stats() != got.Stats() {
		t.Fatalf("stats: want %+v, got %+v", want.Stats(), got.Stats())
	}
}

// chainFor scripts a delta chain against base that crosses frames in
// every way the fold has to compose:
//
//   - the first frame grows the vertex set, and later frames remove the
//     grown edge and absent pairs among (and beyond) the new nodes;
//   - edges removed in one frame are re-inserted in the next;
//   - pairs inserted in one frame are removed in the next;
//   - edges reweighted up (remove + insert) in one frame are reweighted
//     down (a bare insertion, the min rule) in the next;
//   - every fresh insertion is duplicated within its frame, reversed and
//     at another weight, and every frame removes an absent edge.
//
// Picks come from the graph the chain has reached so far, so the
// carried-over cases hit live edges.
func chainFor(base *graph.Graph, frames int, r *rng.RNG) []*EdgeDelta {
	n := base.NumNodes()
	grownU, grownV := graph.NodeID(0), graph.NodeID(n+2)
	cur := base
	var removed []DeltaRem
	var inserted []DeltaRem
	var raised []DeltaIns
	chain := make([]*EdgeDelta, 0, frames)
	for k := 0; k < frames; k++ {
		d := &EdgeDelta{}
		// Carry-overs from the previous frame.
		for _, rm := range removed {
			d.Ins = append(d.Ins, DeltaIns{U: rm.V, V: rm.U, W: 0.75})
		}
		d.Rem = append(d.Rem, inserted...)
		for _, in := range raised {
			d.Ins = append(d.Ins, DeltaIns{U: in.U, V: in.V, W: in.W / 4})
		}
		if k == 0 {
			d.Ins = append(d.Ins, DeltaIns{U: grownU, V: grownV, W: 3.25})
		} else {
			d.Rem = append(d.Rem,
				DeltaRem{U: grownV, V: grownU},
				DeltaRem{U: grownV, V: grownV + 1},
				DeltaRem{U: 1, V: grownV + 40})
		}

		// Fresh changes against the graph reached so far.
		var edges []DeltaIns
		cur.ForEachEdge(func(u, v graph.NodeID, w float64) {
			edges = append(edges, DeltaIns{U: u, V: v, W: w})
		})
		removed, inserted, raised = nil, nil, nil
		for j := 0; j < 3 && len(edges) > 0; j++ {
			e := edges[r.Intn(len(edges))]
			removed = append(removed, DeltaRem{U: e.U, V: e.V})
		}
		for j := 0; j < 2 && len(edges) > 0; j++ {
			e := edges[r.Intn(len(edges))]
			raised = append(raised, DeltaIns{U: e.U, V: e.V, W: e.W + 0.5})
		}
		d.Rem = append(d.Rem, removed...)
		for _, in := range raised {
			d.Rem = append(d.Rem, DeltaRem{U: in.U, V: in.V})
			d.Ins = append(d.Ins, in)
		}
		for j := 0; j < 3; j++ {
			u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
			if u == v || cur.HasEdge(u, v) {
				continue
			}
			w := 1 + float64(r.Intn(8))/2
			d.Ins = append(d.Ins, DeltaIns{U: u, V: v, W: w}, DeltaIns{U: v, V: u, W: w + 0.25})
			inserted = append(inserted, DeltaRem{U: u, V: v})
		}
		for {
			u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
			if u != v && !cur.HasEdge(u, v) {
				d.Rem = append(d.Rem, DeltaRem{U: u, V: v})
				break
			}
		}
		chain = append(chain, d)
		cur = mergeEdges(cur, d)
	}
	return chain
}

// TestLineageChainMatchesFrameByFrameFold pins the chain merge against
// two independent frame-by-frame folds — the edge-map mergeEdges and the
// Builder replay the lineage path used to run — on road, R-MAT and
// bimodal bases, for chains of 1, 3 and 8 frames. The chain goes through
// the catalog (append, restart, load) and through the in-memory merge;
// both must agree with the oracles on the CSR arrays (weights bitwise),
// the Stats and the head address.
func TestLineageChainMatchesFrameByFrameFold(t *testing.T) {
	bases := []struct {
		name string
		base func(t *testing.T) *graph.Graph
	}{
		{"road", func(t *testing.T) *graph.Graph { return mustGen(t, "road:8", 7) }},
		{"rmat", func(t *testing.T) *graph.Graph { return mustGen(t, "rmat:8", 7) }},
		{"bimodal", func(t *testing.T) *graph.Graph {
			g, err := gen.FromSpec("gnm:200:600", 7)
			if err != nil {
				t.Fatal(err)
			}
			return gen.BimodalWeights(g, 1, 100, 0.2, rng.New(7))
		}},
	}
	for _, fam := range bases {
		for _, frames := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("%s/%d", fam.name, frames), func(t *testing.T) {
				base := fam.base(t)
				chain := chainFor(base, frames, rng.New(uint64(31*frames)))

				viaMap, viaReplay := base, base
				for _, d := range chain {
					viaMap = mergeEdges(viaMap, d)
					var err error
					if viaReplay, err = replayReference(viaReplay, d); err != nil {
						t.Fatal(err)
					}
				}
				requireSameCSR(t, viaMap, viaReplay)
				head := materializedHeader(viaMap).SHAHex()

				var p edgePatch
				for _, d := range chain {
					p.fold(d)
				}
				merged, err := p.apply(base)
				if err != nil {
					t.Fatal(err)
				}
				requireSameCSR(t, viaMap, merged)

				dir := t.TempDir()
				c := lineageCatalog(t, dir, Options{})
				if _, err := c.IngestGraph("g", base, FormatBinary, ""); err != nil {
					t.Fatal(err)
				}
				var res AppendResult
				for i, d := range chain {
					if res, err = c.AppendDelta("g", d, ""); err != nil {
						t.Fatalf("append %d: %v", i, err)
					}
				}
				if res.Info.ChainLen() != frames {
					t.Fatalf("chain length %d, want %d", res.Info.ChainLen(), frames)
				}
				if res.Info.SHA256 != head {
					t.Fatalf("append head %s, frame-by-frame fold %s", ShortSHA(res.Info.SHA256), ShortSHA(head))
				}
				c.Close()

				// Reopened, nothing is mapped: Load merges the whole chain.
				re := lineageCatalog(t, dir, Options{})
				ld, err := re.Load("g")
				if err != nil {
					t.Fatal(err)
				}
				requireSameCSR(t, viaMap, ld.Graph)
				if got := materializedHeader(ld.Graph); got.SHAHex() != head || ld.Header != got {
					t.Fatalf("loaded header %+v, want head %s", ld.Header, ShortSHA(head))
				}
			})
		}
	}
}

// deltaFor derives a deterministic mixed delta from the graph itself:
// remove every 7th existing edge, reweight every 11th, and insert a few
// long-range edges between nodes that are not already adjacent.
func deltaFor(g *graph.Graph, r *rng.RNG) *EdgeDelta {
	d := &EdgeDelta{}
	i := 0
	g.ForEachEdge(func(u, v graph.NodeID, w float64) {
		switch {
		case i%7 == 0:
			d.Rem = append(d.Rem, DeltaRem{U: u, V: v})
		case i%11 == 0:
			d.Rem = append(d.Rem, DeltaRem{U: u, V: v})
			d.Ins = append(d.Ins, DeltaIns{U: u, V: v, W: w + 0.5})
		}
		i++
	})
	n := g.NumNodes()
	for k := 0; k < 5; k++ {
		u := graph.NodeID(r.Intn(n))
		v := graph.NodeID(r.Intn(n))
		if u == v || g.HasEdge(u, v) {
			continue
		}
		d.Ins = append(d.Ins, DeltaIns{U: u, V: v, W: 1 + float64(k)})
	}
	// And one endpoint beyond the current vertex set (growth).
	d.Ins = append(d.Ins, DeltaIns{U: 0, V: graph.NodeID(n + 2), W: 3.25})
	return d
}

func TestLineageMaterializationMatchesOneShotIngest(t *testing.T) {
	families := []struct {
		name string
		base func(t *testing.T) *graph.Graph
	}{
		{"road", func(t *testing.T) *graph.Graph { return mustGen(t, "road:8", 7) }},
		{"rmat", func(t *testing.T) *graph.Graph { return mustGen(t, "rmat:8", 7) }},
		{"bimodal", func(t *testing.T) *graph.Graph {
			g, err := gen.FromSpec("gnm:200:600", 7)
			if err != nil {
				t.Fatal(err)
			}
			return gen.BimodalWeights(g, 1, 100, 0.2, rng.New(7))
		}},
	}
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			base := fam.base(t)
			d := deltaFor(base, rng.New(99))
			if len(d.Ins) == 0 || len(d.Rem) == 0 {
				t.Fatalf("degenerate delta (+%d -%d) for family %s", len(d.Ins), len(d.Rem), fam.name)
			}

			// Path A: lineage — ingest the base, append the delta, load.
			lin := lineageCatalog(t, t.TempDir(), Options{})
			if _, err := lin.IngestGraph("g", base, FormatBinary, ""); err != nil {
				t.Fatal(err)
			}
			res, err := lin.AppendDelta("g", d, "")
			if err != nil {
				t.Fatal(err)
			}
			if !res.Applied {
				t.Fatal("delta with net changes reported no-op")
			}
			viaLineage, err := lin.Load("g")
			if err != nil {
				t.Fatal(err)
			}

			// Path B: one-shot — merge the edge lists independently and
			// ingest the result as a fresh snapshot.
			merged := mergeEdges(base, d)
			one := lineageCatalog(t, t.TempDir(), Options{})
			oneInfo, err := one.IngestGraph("g", merged, FormatBinary, "")
			if err != nil {
				t.Fatal(err)
			}

			// Identity: same content address, and therefore the same bytes
			// any snapshot of either would serialize to.
			if res.Info.SHA256 != oneInfo.SHA256 {
				t.Fatalf("lineage head %s != one-shot ingest %s",
					ShortSHA(res.Info.SHA256), ShortSHA(oneInfo.SHA256))
			}
			if res.Info.NumNodes != oneInfo.NumNodes || res.Info.NumEdges != oneInfo.NumEdges {
				t.Fatalf("shape (%d,%d) vs one-shot (%d,%d)",
					res.Info.NumNodes, res.Info.NumEdges, oneInfo.NumNodes, oneInfo.NumEdges)
			}
			requireIdentical(t, merged, viaLineage.Graph)

			// Survives a restart: the chain replayed from disk reaches the
			// same address (the manifest cross-check inside Load enforces
			// it; this exercises that path with nothing mapped).
			lin.Close()
			re, err := Open(lin.Dir(), Options{CompactAfter: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			reLd, err := re.Load("g")
			if err != nil {
				t.Fatalf("replay after restart: %v", err)
			}
			requireIdentical(t, merged, reLd.Graph)

			// And compaction writes a snapshot at exactly that address.
			cin, compacted, err := re.Compact("g")
			if err != nil || !compacted {
				t.Fatalf("compact: %v (compacted=%v)", err, compacted)
			}
			if cin.SHA256 != oneInfo.SHA256 {
				t.Fatalf("compacted snapshot %s != one-shot address %s",
					ShortSHA(cin.SHA256), ShortSHA(oneInfo.SHA256))
			}
		})
	}
}
