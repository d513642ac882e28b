package core

import (
	"math"

	"graphdiam/internal/bsp"
	"graphdiam/internal/graph"
	"graphdiam/internal/rng"
)

// growMsg is a relaxation request: "node can be reached by center with
// stage-distance sd and cumulative center distance td".
type growMsg struct {
	node   graph.NodeID
	center int32
	sd     float64
	td     float64
}

// growState holds the per-node state of a decomposition run — the (c_u, d_u)
// pairs of the paper, split into the per-stage threshold distance (stageD,
// the d_u the Δ-growing step compares against Δ) and the cumulative distance
// bound totalD ≥ the weight of an actual path from the assigned center.
// Contraction is virtual: nodes covered in earlier stages keep their center
// and totalD and act as zero-potential proxies (see DESIGN.md).
type growState struct {
	g *graph.Graph
	e *bsp.Engine
	n int

	// unitGrowth makes growing steps advance by hop count instead of edge
	// weight (the weight-oblivious decomposition of [CPPU15]); totalD still
	// accumulates true edge weights so radii and quotient weights remain
	// meaningful. Used by ClusterUnweighted for the weight-obliviousness
	// ablation.
	unitGrowth bool

	center       []int32   // assigned center, -1 if none yet
	stageD       []float64 // stage potential; +Inf if unreached this stage
	totalD       []float64 // weight of a realized path center→node
	coveredStage []int32   // stage of coverage, -1 if uncovered
	queued       []bool    // membership in the next frontier
	retired      []bool    // interior proxy: never queued again (see reseedFrontier)

	frontiers [][]int32 // per-worker current frontier (global IDs, owned)
	nextFront [][]int32
	mail      *bsp.Mailboxes[growMsg]
	route     bsp.Router // O(1) owner lookup, hoisted once per run

	// per-round accumulators (written via the engine, read after barriers)
	roundUpdates []int64
	roundNewly   []int64
	roundScans   []int64
	edgeScans    int64 // run total of roundScans; see Clustering.edgeScans
}

// improves reports whether candidate (sd, c) beats v's current (stageD,
// center) under the paper's tie-break: the owner's acceptance test, which
// the send half also applies to skip relaxations the owner would reject.
func (st *growState) improves(v int, sd float64, c int32) bool {
	dv, cv := st.stageD[v], st.center[v]
	return sd < dv || (sd == dv && (cv < 0 || c < cv))
}

func newGrowState(g *graph.Graph, e *bsp.Engine) *growState {
	n := g.NumNodes()
	P := e.Workers()
	st := &growState{
		g: g, e: e, n: n,
		center:       make([]int32, n),
		stageD:       make([]float64, n),
		totalD:       make([]float64, n),
		coveredStage: make([]int32, n),
		queued:       make([]bool, n),
		retired:      make([]bool, n),
		frontiers:    make([][]int32, P),
		nextFront:    make([][]int32, P),
		mail:         bsp.NewMailboxes[growMsg](P),
		route:        e.Router(n),
		roundUpdates: make([]int64, P),
		roundNewly:   make([]int64, P),
		roundScans:   make([]int64, P),
	}
	for i := 0; i < n; i++ {
		st.center[i] = -1
		st.stageD[i] = math.Inf(1)
		st.totalD[i] = math.Inf(1)
		st.coveredStage[i] = -1
	}
	return st
}

// hash01 maps (seed, stage, node) to a deterministic uniform value in [0,1),
// independent of worker count — the basis of reproducible center selection.
func hash01(seed uint64, stage int, node int) float64 {
	x := seed ^ (uint64(stage)+1)*0x9e3779b97f4a7c15 ^ (uint64(node)+1)*0xbf58476d1ce4e5b9
	sm := rng.NewSplitMix64(x)
	return float64(sm.Next()>>11) / (1 << 53)
}

// selectCenters marks every uncovered node u with hash01 < p as a new
// center of the given stage (c_u = u, d_u = 0), returning how many were
// selected. One metered round (the selection map phase).
func (st *growState) selectCenters(seed uint64, stage int, p float64) int {
	count := st.e.ReduceInt(st.n, func(_, start, end int) int {
		local := 0
		for u := start; u < end; u++ {
			if st.coveredStage[u] >= 0 {
				continue
			}
			if hash01(seed, stage, u) < p {
				st.center[u] = int32(u)
				st.stageD[u] = 0
				st.totalD[u] = 0
				st.coveredStage[u] = int32(stage)
				local++
			}
		}
		return local
	})
	st.e.Metrics().AddRounds(1)
	if st.e.Primary() {
		// count is already the fleet-wide total (ReduceInt sums across
		// peers); meter it once so the globally-summed snapshot matches the
		// single-process run.
		st.e.Metrics().AddUpdates(int64(count))
	}
	return count
}

// forceCenter deterministically selects the uncovered node with the
// smallest hash as a center when random selection came up empty. Returns
// false if no uncovered node exists.
func (st *growState) forceCenter(seed uint64, stage int) bool {
	type cand struct {
		h float64
		u int
	}
	P := st.e.Workers()
	cands := make([]cand, P)
	for i := range cands {
		cands[i] = cand{h: 2, u: -1} // non-executed workers must not win
	}
	st.e.ParallelFor(st.n, func(w, start, end int) {
		best := cand{h: 2, u: -1}
		for u := start; u < end; u++ {
			if st.coveredStage[u] >= 0 {
				continue
			}
			if h := hash01(seed, stage, u); h < best.h {
				best = cand{h, u}
			}
		}
		cands[w] = best
	})
	best := cand{h: 2, u: -1}
	lo, hi := st.e.OwnedWorkers()
	for _, c := range cands[lo:hi] {
		if c.u >= 0 && c.h < best.h {
			best = c
		}
	}
	if st.e.Distributed() {
		// Peer worker ranges are rank-ordered, so folding peer bests in rank
		// order with the same strict < reproduces the single-process fold.
		h, u := st.e.GlobalArgMin(best.h, int64(best.u))
		best = cand{h: h, u: int(u)}
	}
	if best.u < 0 {
		return false
	}
	u := best.u
	// Replicated write: every peer records the same center with the same
	// values, keeping the full state arrays consistent without a sync.
	st.center[u] = int32(u)
	st.stageD[u] = 0
	st.totalD[u] = 0
	st.coveredStage[u] = int32(stage)
	if st.e.Primary() {
		st.e.Metrics().AddUpdates(1)
	}
	return true
}

// beginStageProxies resets the stage potentials: nodes covered before the
// given stage become proxies with the supplied potential offset added to
// their current potential if carry is true (CLUSTER2's weight rescaling) or
// exactly zero otherwise (CLUSTER's Contract); uncovered nodes get +Inf.
// New centers selected for this stage keep their zero potential. One
// metered round (the contraction map phase).
func (st *growState) beginStageProxies(stage int, carry bool, rescale float64) {
	st.e.Superstep(st.n, func(_, start, end int) {
		for u := start; u < end; u++ {
			switch {
			case st.coveredStage[u] < 0:
				st.stageD[u] = math.Inf(1)
			case st.coveredStage[u] == int32(stage):
				// freshly selected center: keep stageD = 0
			case carry:
				st.stageD[u] -= rescale
			default:
				st.stageD[u] = 0
			}
		}
	})
}

// frozen reports whether u was covered before stage: a contracted proxy
// whose state no growing step of this stage may change.
func (st *growState) frozen(u int, stage int32) bool {
	cs := st.coveredStage[u]
	return cs >= 0 && cs < stage
}

// reseedFrontier loads every node with a finite stage potential into the
// frontier of its owner, so the next growing step relaxes from all cluster
// boundaries. A frozen proxy whose neighbours are all frozen too is retired
// instead: each of its edges joins two nodes covered in earlier stages —
// exactly the edges Procedure Contract deletes — so it can never send, and
// since coverage only grows it stays interior for the rest of the run. The
// walk stays ascending because frontier order fixes mailbox arrival order,
// which keeps the update counts bit-identical per worker count. coveredStage
// values below stage are synced at stage boundaries, so the cross-partition
// neighbour reads agree on every peer. One metered round.
func (st *growState) reseedFrontier(stage int) {
	s := int32(stage)
	st.e.Superstep(st.n, func(w, start, end int) {
		f := st.frontiers[w][:0]
		for u := start; u < end; u++ {
			if st.retired[u] || math.IsInf(st.stageD[u], 1) {
				continue
			}
			if st.frozen(u, s) && st.interior(u, s) {
				st.retired[u] = true
				continue
			}
			f = append(f, int32(u))
		}
		st.frontiers[w] = f
	})
}

// interior reports whether every neighbour of u is frozen at stage.
func (st *growState) interior(u int, stage int32) bool {
	ts, _ := st.g.Neighbors(graph.NodeID(u))
	for _, v := range ts {
		if !st.frozen(int(v), stage) {
			return false
		}
	}
	return true
}

// growStep performs one Δ-growing step (one metered round): every frontier
// node u with d_u < Δ relaxes its light edges (d_u + w ≤ Δ), and each
// target applies the lexicographically smallest (distance, center)
// candidate — the paper's tie-break rule. Nodes covered before the current
// stage are frozen (they exist only as contracted proxies). It returns
// whether any state changed and how many nodes were newly reached this
// stage (∞ → finite transitions), both deterministic in (graph, options)
// regardless of worker count.
func (st *growState) growStep(delta float64, stage int) (changed bool, newly int64) {
	e := st.e
	n := st.n
	s := int32(stage)
	// Send half: generate relaxation requests. Edges whose two endpoints
	// were both covered in earlier stages do not exist in the contracted
	// graph (Procedure Contract removes them), so they generate no
	// messages. A candidate that does not beat the target's current
	// (stageD, center) is metered as a logical message but never enqueued:
	// nothing writes coveredStage, stageD or center during the send half
	// (so these cross-partition reads are race-free), and the owner's state
	// only decreases lexicographically while it applies the step, so the
	// owner would reject the candidate on arrival. Dropping it leaves the
	// owner's final state, its update count and the frontier it builds
	// unchanged. On a distributed engine a remote target's local copy is
	// never below the owner's (its initial +Inf/-1, or forceCenter's
	// replicated value), so there the prune drops a subset.
	e.ParallelFor(n, func(w, _, _ int) {
		var sent, scans int64
		for _, ui := range st.frontiers[w] {
			u := int(ui)
			st.queued[u] = false
			du := st.stageD[u]
			if du >= delta {
				continue
			}
			cu := st.center[u]
			tu := st.totalD[u]
			ts, ws := st.g.Neighbors(graph.NodeID(u))
			scans += int64(len(ts))
			for i, v := range ts {
				step := ws[i]
				if st.unitGrowth {
					step = 1
				}
				cand := du + step
				if cand > delta {
					continue
				}
				if st.frozen(int(v), s) {
					continue // target contracted away (frozen)
				}
				sent++
				if st.improves(int(v), cand, cu) {
					st.mail.Send(w, st.route.Owner(v), growMsg{v, cu, cand, tu + ws[i]})
				}
			}
		}
		st.roundScans[w] = scans
		if sent > 0 {
			e.Metrics().AddMessages(sent) // logical relaxations, pruned ones included
		}
	})
	// Cross-process shipment of the boxes addressed to remote owners; a
	// no-op for single-process engines. Errors are sticky in the engine and
	// surface through the drivers' e.Err() checks.
	if err := bsp.ExchangeMailboxes(e, st.mail, growWire, st.route); err != nil {
		return false, 0
	}
	// Apply half: owners take the minimum candidate per node.
	e.ParallelFor(n, func(w, _, _ int) {
		var updates, reached int64
		nf := st.nextFront[w][:0]
		st.mail.Recv(w, func(m growMsg) {
			v := int(m.node)
			if st.frozen(v, s) {
				return // frozen: contracted into its center
			}
			if !st.improves(v, m.sd, m.center) {
				return
			}
			if math.IsInf(st.stageD[v], 1) {
				reached++
			}
			st.stageD[v] = m.sd
			st.totalD[v] = m.td
			st.center[v] = m.center
			updates++
			if !st.queued[v] {
				st.queued[v] = true
				nf = append(nf, int32(v))
			}
		})
		st.mail.ClearTo(w)
		st.nextFront[w] = nf
		st.roundUpdates[w] = updates
		st.roundNewly[w] = reached
		if updates > 0 {
			e.Metrics().AddUpdates(updates)
		}
	})
	e.Metrics().AddRounds(1)
	var updates int64
	lo, hi := e.OwnedWorkers()
	for w := lo; w < hi; w++ { // remote workers' slots are stale locally
		updates += st.roundUpdates[w]
		newly += st.roundNewly[w]
		st.edgeScans += st.roundScans[w]
	}
	updates, newly = e.GlobalSum2(updates, newly)
	st.frontiers, st.nextFront = st.nextFront, st.frontiers
	return updates > 0, newly
}

// finishStage covers every node reached during the stage (finite stage
// potential, not yet covered), returning how many nodes the stage covered
// in total including its fresh centers. One metered round (the reduce that
// materializes cluster assignment).
func (st *growState) finishStage(stage int) int {
	count := st.e.ReduceInt(st.n, func(_, start, end int) int {
		local := 0
		for u := start; u < end; u++ {
			if st.coveredStage[u] == int32(stage) {
				local++ // fresh center
				continue
			}
			if st.coveredStage[u] < 0 && !math.IsInf(st.stageD[u], 1) {
				st.coveredStage[u] = int32(stage)
				local++
			}
		}
		return local
	})
	st.e.Metrics().AddRounds(1)
	// coveredStage is the one array the growing step reads across
	// partitions (the frozen-proxy check), and the check only distinguishes
	// "covered before the current stage" from everything else — so syncing
	// at stage boundaries is exactly enough to keep every peer's reads
	// identical to the single-process run.
	st.e.SyncInt32s(st.coveredStage)
	return count
}

// coverSingletons turns every still-uncovered node into a singleton cluster
// (the final step of Algorithm 1). One metered round.
func (st *growState) coverSingletons(stage int) int {
	count := st.e.ReduceInt(st.n, func(_, start, end int) int {
		local := 0
		for u := start; u < end; u++ {
			if st.coveredStage[u] < 0 {
				st.center[u] = int32(u)
				st.stageD[u] = 0
				st.totalD[u] = 0
				st.coveredStage[u] = int32(stage)
				local++
			}
		}
		return local
	})
	st.e.Metrics().AddRounds(1)
	if st.e.Primary() {
		st.e.Metrics().AddUpdates(int64(count)) // fleet-wide total: meter once
	}
	return count
}

// syncResult makes the result arrays (center assignment and realized path
// weights) identical on every peer, so each one can materialize the full
// Clustering locally. Called once per run, before buildClustering; a no-op
// for single-process engines.
func (st *growState) syncResult() {
	st.e.SyncInt32s(st.center)
	st.e.SyncFloat64s(st.totalD)
}

// radius returns the maximum cumulative center distance over covered nodes.
func (st *growState) radius() float64 {
	return st.e.ReduceFloat64(st.n, func(_, start, end int) float64 {
		best := 0.0
		for u := start; u < end; u++ {
			if st.coveredStage[u] >= 0 && st.totalD[u] > best {
				best = st.totalD[u]
			}
		}
		return best
	}, math.Max)
}

// uncoveredCount returns the number of nodes not yet assigned to a cluster.
func (st *growState) uncoveredCount() int {
	return st.e.ReduceInt(st.n, func(_, start, end int) int {
		local := 0
		for u := start; u < end; u++ {
			if st.coveredStage[u] < 0 {
				local++
			}
		}
		return local
	})
}
