// Package graph provides the compact weighted undirected graph
// representation used throughout graphdiam.
//
// Graphs are stored in compressed sparse row (CSR) form: a node's incident
// edges occupy a contiguous slice of the target/weight arrays, indexed by a
// per-node offset table. Node IDs are dense uint32 values in [0, n). An
// undirected edge {u,v} is stored twice, once in each endpoint's adjacency
// list; NumEdges reports the number of undirected edges.
//
// The representation is immutable after construction. Use Builder to
// assemble a graph from an edge stream; the builder removes self-loops and
// collapses parallel edges keeping the minimum weight, matching the
// conventions of the paper (positive weights, simple graphs).
package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// NodeID identifies a node. IDs are dense in [0, NumNodes).
type NodeID = uint32

// Graph is an immutable weighted undirected graph in CSR form.
type Graph struct {
	offsets []int64   // len n+1; adjacency of u is [offsets[u], offsets[u+1])
	targets []NodeID  // len 2m
	weights []float64 // len 2m, parallel to targets
	stats   Stats     // summary statistics, computed once in Build
}

// NumNodes returns the number of nodes n.
func (g *Graph) NumNodes() int { return len(g.offsets) - 1 }

// NumEdges returns the number of undirected edges m.
func (g *Graph) NumEdges() int { return len(g.targets) / 2 }

// Degree returns the number of edges incident to u.
func (g *Graph) Degree(u NodeID) int {
	return int(g.offsets[u+1] - g.offsets[u])
}

// Neighbors returns the adjacency slices of u: parallel target and weight
// slices. The returned slices alias internal storage and must not be
// modified.
func (g *Graph) Neighbors(u NodeID) ([]NodeID, []float64) {
	lo, hi := g.offsets[u], g.offsets[u+1]
	return g.targets[lo:hi], g.weights[lo:hi]
}

// EdgeWeight returns the weight of edge {u,v} and whether it exists.
// Adjacency lists are sorted by target, so this is a binary search.
func (g *Graph) EdgeWeight(u, v NodeID) (float64, bool) {
	lo, hi := g.offsets[u], g.offsets[u+1]
	ts := g.targets[lo:hi]
	i := sort.Search(len(ts), func(i int) bool { return ts[i] >= v })
	if i < len(ts) && ts[i] == v {
		return g.weights[lo+int64(i)], true
	}
	return 0, false
}

// HasEdge reports whether edge {u,v} exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	_, ok := g.EdgeWeight(u, v)
	return ok
}

// ForEachEdge calls fn once per undirected edge {u,v} with u < v.
func (g *Graph) ForEachEdge(fn func(u, v NodeID, w float64)) {
	n := g.NumNodes()
	for u := 0; u < n; u++ {
		ts, ws := g.Neighbors(NodeID(u))
		for i, v := range ts {
			if NodeID(u) < v {
				fn(NodeID(u), v, ws[i])
			}
		}
	}
}

// Stats holds summary edge-weight statistics of a graph.
type Stats struct {
	NumNodes  int
	NumEdges  int
	MinWeight float64
	MaxWeight float64
	AvgWeight float64
	MaxDegree int
}

// Stats returns the summary statistics computed once during Build: callers
// on algorithm hot paths (Δ bucket sizing, Δ suggestion, futility bounds)
// read them in O(1) instead of rescanning all 2m edge slots.
func (g *Graph) Stats() Stats { return g.stats }

// ComputeStats computes the summary statistics of CSR arrays laid out as
// RawCSR returns them. Weights are summed in slot order, so two graphs with
// bit-identical arrays get bit-identical Stats. Builder.Build caches its
// result in the graph; callers that assemble CSR arrays themselves pass it
// to FromCSR, and snapshot verification compares it with a stored copy.
func ComputeStats(offsets []int64, targets []NodeID, weights []float64) Stats {
	s := Stats{NumNodes: len(offsets) - 1, NumEdges: len(targets) / 2}
	if len(weights) == 0 {
		return s
	}
	s.MinWeight, s.MaxWeight = math.Inf(1), math.Inf(-1)
	sum := 0.0
	for _, w := range weights {
		if w < s.MinWeight {
			s.MinWeight = w
		}
		if w > s.MaxWeight {
			s.MaxWeight = w
		}
		sum += w
	}
	s.AvgWeight = sum / float64(len(weights))
	for u := 0; u < s.NumNodes; u++ {
		if d := int(offsets[u+1] - offsets[u]); d > s.MaxDegree {
			s.MaxDegree = d
		}
	}
	return s
}

// MinEdgeWeight returns the minimum edge weight, or +Inf for edgeless
// graphs. O(1): served from the statistics cached at construction.
func (g *Graph) MinEdgeWeight() float64 {
	if len(g.weights) == 0 {
		return math.Inf(1)
	}
	return g.stats.MinWeight
}

// MaxEdgeWeight returns the maximum edge weight, or 0 for edgeless graphs.
// O(1): served from the statistics cached at construction.
func (g *Graph) MaxEdgeWeight() float64 { return g.stats.MaxWeight }

// AvgEdgeWeight returns the mean edge weight, or 0 for edgeless graphs.
// This is the paper's recommended initial guess for the Δ parameter.
// O(1): served from the statistics cached at construction.
func (g *Graph) AvgEdgeWeight() float64 { return g.stats.AvgWeight }

// MaxDegree returns the maximum node degree, 0 for edgeless graphs. O(1).
func (g *Graph) MaxDegree() int { return g.stats.MaxDegree }

// RawCSR exposes the graph's CSR arrays: the n+1 offset table and the
// parallel target/weight arrays of length 2m. The slices alias internal
// storage and must not be modified. This is the serialization hook of
// internal/dataset's snapshot writer; algorithm code should keep using
// Neighbors/ForEachEdge.
func (g *Graph) RawCSR() (offsets []int64, targets []NodeID, weights []float64) {
	return g.offsets, g.targets, g.weights
}

// FromCSR wraps already-assembled CSR arrays in a Graph without copying
// them — the zero-copy entry point for snapshot loads, where the slices
// alias a read-only mmap region. stats must describe the arrays exactly
// (snapshot headers persist the Stats computed by Build, so loads skip the
// O(n+m) rescan).
//
// Only O(1) structural invariants are checked here; deep validation
// (offset monotonicity, target range, weight positivity, adjacency order)
// is the caller's job via ValidateCSR when the arrays come from an
// untrusted file. The arrays must follow Build's conventions: adjacency
// sorted by target, both directions of every undirected edge present, no
// self-loops or duplicates.
func FromCSR(offsets []int64, targets []NodeID, weights []float64, stats Stats) (*Graph, error) {
	if len(offsets) == 0 {
		return nil, fmt.Errorf("graph: FromCSR: empty offset table")
	}
	if len(targets) != len(weights) {
		return nil, fmt.Errorf("graph: FromCSR: %d targets vs %d weights", len(targets), len(weights))
	}
	if offsets[0] != 0 {
		return nil, fmt.Errorf("graph: FromCSR: offsets[0] = %d, want 0", offsets[0])
	}
	if last := offsets[len(offsets)-1]; last != int64(len(targets)) {
		return nil, fmt.Errorf("graph: FromCSR: offsets end at %d, want %d", last, len(targets))
	}
	if stats.NumNodes != len(offsets)-1 || stats.NumEdges != len(targets)/2 {
		return nil, fmt.Errorf("graph: FromCSR: stats describe n=%d m=%d, arrays hold n=%d m=%d",
			stats.NumNodes, stats.NumEdges, len(offsets)-1, len(targets)/2)
	}
	return &Graph{offsets: offsets, targets: targets, weights: weights, stats: stats}, nil
}

// ValidateCSR deep-checks the CSR invariants FromCSR assumes: monotone
// offsets, targets in range and strictly increasing per adjacency list
// (sorted, no duplicates, no self-loops), positive finite weights, and
// symmetric edges (both directions present with equal weight). O(n + m log d).
func (g *Graph) ValidateCSR() error {
	n := g.NumNodes()
	for u := 0; u < n; u++ {
		if g.offsets[u] > g.offsets[u+1] {
			return fmt.Errorf("graph: offsets not monotone at node %d", u)
		}
	}
	for u := 0; u < n; u++ {
		ts, ws := g.Neighbors(NodeID(u))
		for i, v := range ts {
			if int(v) >= n {
				return fmt.Errorf("graph: node %d: target %d out of range n=%d", u, v, n)
			}
			if v == NodeID(u) {
				return fmt.Errorf("graph: node %d: self-loop", u)
			}
			if i > 0 && ts[i-1] >= v {
				return fmt.Errorf("graph: node %d: adjacency not strictly sorted at slot %d", u, i)
			}
			w := ws[i]
			if w <= 0 || math.IsInf(w, 0) || math.IsNaN(w) {
				return fmt.Errorf("graph: node %d: invalid weight %v on edge to %d", u, w, v)
			}
			if rw, ok := g.EdgeWeight(v, NodeID(u)); !ok || rw != w {
				return fmt.Errorf("graph: edge (%d,%d) not symmetric", u, v)
			}
		}
	}
	return nil
}

// ReweightUniform returns a copy of g whose edge weights are drawn i.i.d.
// from (0,1] using draw, which is called once per undirected edge. Both
// directions of an edge receive the same weight.
func (g *Graph) ReweightUniform(draw func() float64) *Graph {
	b := NewBuilder(g.NumNodes(), g.NumEdges())
	g.ForEachEdge(func(u, v NodeID, _ float64) {
		b.AddEdge(u, v, draw())
	})
	return b.Build()
}

// String implements fmt.Stringer with a short summary, not the full edge set.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.NumNodes(), g.NumEdges())
}

// edgeRec is a builder-side endpoint record: one per direction.
type edgeRec struct {
	u, v NodeID
	w    float64
}

// Builder accumulates edges and assembles an immutable CSR Graph.
// Builders are not safe for concurrent use.
type Builder struct {
	n     int
	edges []edgeRec
}

// NewBuilder returns a builder for a graph with n nodes, pre-sizing internal
// storage for edgeHint undirected edges (pass 0 if unknown).
func NewBuilder(n, edgeHint int) *Builder {
	return &Builder{n: n, edges: make([]edgeRec, 0, 2*edgeHint)}
}

// NumNodes returns the number of nodes the builder was created with.
func (b *Builder) NumNodes() int { return b.n }

// AddEdge records the undirected edge {u,v} with weight w. Self-loops are
// dropped. Non-positive and non-finite weights panic: the paper's model
// (and every algorithm here) requires positive finite weights.
func (b *Builder) AddEdge(u, v NodeID, w float64) {
	if int(u) >= b.n || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range n=%d", u, v, b.n))
	}
	if w <= 0 || math.IsInf(w, 0) || math.IsNaN(w) {
		panic(fmt.Sprintf("graph: invalid weight %v on edge (%d,%d)", w, u, v))
	}
	if u == v {
		return
	}
	b.edges = append(b.edges, edgeRec{u, v, w}, edgeRec{v, u, w})
}

// Build assembles the CSR graph. Parallel edges are collapsed to the one of
// minimum weight. The builder can be reused afterwards (it is reset).
func (b *Builder) Build() *Graph {
	recs := b.edges
	// slices.SortFunc over the concrete record type: pdqsort without the
	// interface boxing and reflection-based swaps of sort.Slice.
	slices.SortFunc(recs, func(a, b edgeRec) int {
		if a.u != b.u {
			if a.u < b.u {
				return -1
			}
			return 1
		}
		if a.v != b.v {
			if a.v < b.v {
				return -1
			}
			return 1
		}
		switch {
		case a.w < b.w:
			return -1
		case a.w > b.w:
			return 1
		}
		return 0
	})
	// Deduplicate, keeping the minimum-weight record (first after sort).
	dedup := recs[:0]
	for i := range recs {
		if i > 0 && recs[i].u == recs[i-1].u && recs[i].v == recs[i-1].v {
			continue
		}
		dedup = append(dedup, recs[i])
	}
	g := &Graph{
		offsets: make([]int64, b.n+1),
		targets: make([]NodeID, len(dedup)),
		weights: make([]float64, len(dedup)),
	}
	for _, e := range dedup {
		g.offsets[e.u+1]++
	}
	for i := 1; i <= b.n; i++ {
		g.offsets[i] += g.offsets[i-1]
	}
	cursor := make([]int64, b.n)
	copy(cursor, g.offsets[:b.n])
	for _, e := range dedup {
		p := cursor[e.u]
		g.targets[p] = e.v
		g.weights[p] = e.w
		cursor[e.u]++
	}
	b.edges = b.edges[:0]
	g.stats = ComputeStats(g.offsets, g.targets, g.weights)
	return g
}

// FromEdges builds a graph directly from parallel edge slices.
func FromEdges(n int, us, vs []NodeID, ws []float64) *Graph {
	if len(us) != len(vs) || len(us) != len(ws) {
		panic("graph: FromEdges slice lengths differ")
	}
	b := NewBuilder(n, len(us))
	for i := range us {
		b.AddEdge(us[i], vs[i], ws[i])
	}
	return b.Build()
}

// Subgraph returns the induced subgraph on keep (a set of node IDs), along
// with the mapping from new IDs to original IDs. Nodes are renumbered
// densely in increasing original-ID order.
//
// When the kept set is a substantial fraction of the graph (the common case:
// extracting the largest connected component) the renumbering uses a dense
// array instead of a map, turning the per-edge lookup on the projection hot
// loop into a single indexed load.
func (g *Graph) Subgraph(keep []NodeID) (*Graph, []NodeID) {
	uniq := slices.Clone(keep)
	slices.Sort(uniq)
	uniq = slices.Compact(uniq)
	n := g.NumNodes()
	b := NewBuilder(len(uniq), 0)
	if 8*len(uniq) >= n {
		// Dense renumbering: -1 marks dropped nodes.
		remap := make([]int64, n)
		for i := range remap {
			remap[i] = -1
		}
		for i, orig := range uniq {
			remap[orig] = int64(i)
		}
		for _, orig := range uniq {
			nu := NodeID(remap[orig])
			ts, ws := g.Neighbors(orig)
			for i, v := range ts {
				if nv := remap[v]; nv >= 0 && nu < NodeID(nv) {
					b.AddEdge(nu, NodeID(nv), ws[i])
				}
			}
		}
		return b.Build(), uniq
	}
	remap := make(map[NodeID]NodeID, len(uniq))
	for i, orig := range uniq {
		remap[orig] = NodeID(i)
	}
	for _, orig := range uniq {
		nu := remap[orig]
		ts, ws := g.Neighbors(orig)
		for i, v := range ts {
			nv, ok := remap[v]
			if ok && nu < nv {
				b.AddEdge(nu, nv, ws[i])
			}
		}
	}
	return b.Build(), uniq
}
