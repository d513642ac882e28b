package sssp

import (
	"context"
	"encoding/binary"
	"errors"
	"math"

	"graphdiam/internal/bsp"
	"graphdiam/internal/graph"
	"graphdiam/internal/pq"
)

// DeltaResult is the outcome of a Δ-stepping run together with the
// platform-independent costs the paper reports.
type DeltaResult struct {
	// Dist holds exact shortest-path distances (+Inf if unreachable).
	Dist []float64
	// Rounds counts parallel phases: one per light-edge relaxation
	// sub-phase plus one per heavy-edge phase, matching the MapReduce
	// round accounting of the paper's Δ-stepping baseline.
	Rounds int64
	// Relaxations counts edge relaxation requests generated (the
	// "messages" component of the work measure).
	Relaxations int64
	// Updates counts tentative-distance improvements (the "node updates"
	// component).
	Updates int64
	// Delta is the bucket width used.
	Delta float64
}

// Work returns the paper's work measure: node updates + messages.
func (r DeltaResult) Work() int64 { return r.Updates + r.Relaxations }

// numBucketsFor sizes the cyclic bucket array: an edge can advance an item
// at most ceil(maxW/Δ) buckets past the current one.
func numBucketsFor(g *graph.Graph, delta float64) int {
	maxW := g.MaxEdgeWeight()
	nb := int(math.Ceil(maxW/delta)) + 2
	if nb < 2 {
		nb = 2
	}
	return nb
}

// DeltaSteppingSeq runs sequential Δ-stepping from src with bucket width
// delta. It produces exact distances; the round/work accounting mirrors
// what the parallel version would incur, which makes it convenient for
// Δ-tuning sweeps without burning wall-clock time.
func DeltaSteppingSeq(g *graph.Graph, src graph.NodeID, delta float64) DeltaResult {
	if delta <= 0 {
		panic("sssp: delta must be positive")
	}
	n := g.NumNodes()
	res := DeltaResult{Dist: make([]float64, n), Delta: delta}
	dist := res.Dist
	for i := range dist {
		dist[i] = Inf
	}
	q := pq.NewBucketQueue(n, delta, numBucketsFor(g, delta))
	dist[src] = 0
	q.Update(int(src), 0)
	res.Updates++

	var frontier []int32
	settled := make([]int32, 0, 1024) // unique nodes settled in current bucket
	inSettled := make([]bool, n)

	for q.Len() > 0 {
		b := q.NextBucket()
		settled = settled[:0]
		// Light-edge phases: repeat until bucket b stays empty.
		for {
			frontier = q.DrainBucket(b, frontier[:0])
			if len(frontier) == 0 {
				break
			}
			res.Rounds++ // one parallel light phase
			for _, u := range frontier {
				if !inSettled[u] {
					inSettled[u] = true
					settled = append(settled, u)
				}
				du := dist[u]
				ts, ws := g.Neighbors(graph.NodeID(u))
				for i, v := range ts {
					w := ws[i]
					if w > delta {
						continue
					}
					res.Relaxations++
					if nd := du + w; nd < dist[v] {
						dist[v] = nd
						res.Updates++
						q.Update(int(v), nd)
					}
				}
			}
		}
		// Heavy-edge phase over the settled set.
		if len(settled) > 0 {
			res.Rounds++
			for _, u := range settled {
				inSettled[u] = false
				du := dist[u]
				ts, ws := g.Neighbors(graph.NodeID(u))
				for i, v := range ts {
					w := ws[i]
					if w <= delta {
						continue
					}
					res.Relaxations++
					if nd := du + w; nd < dist[v] {
						dist[v] = nd
						res.Updates++
						q.Update(int(v), nd)
					}
				}
			}
		}
	}
	return res
}

// relaxReq is a relaxation request routed between workers.
type relaxReq struct {
	node graph.NodeID
	dist float64
}

// relaxWire serializes relaxReq for cross-process shipping: uvarint node,
// then the distance as raw little-endian float64 bits (bit-exact).
var relaxWire = bsp.WireCodec[relaxReq]{
	MinSize: 1 + 8,
	Append: func(buf []byte, r relaxReq) []byte {
		buf = binary.AppendUvarint(buf, uint64(r.node))
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.dist))
	},
	Read: func(data []byte) (relaxReq, int, error) {
		var r relaxReq
		node, n := binary.Uvarint(data)
		if n <= 0 || node > math.MaxUint32 {
			return r, 0, errors.New("bad node field")
		}
		if len(data)-n < 8 {
			return r, 0, errors.New("truncated distance")
		}
		r.node = graph.NodeID(node)
		r.dist = math.Float64frombits(binary.LittleEndian.Uint64(data[n:]))
		return r, n + 8, nil
	},
	Node: func(r relaxReq) uint32 { return r.node },
}

// DeltaStepping runs parallel Δ-stepping from src on the BSP engine. Each
// worker owns a contiguous node partition with a local bucket structure.
// A light phase has two halves separated by a barrier: drained nodes relax
// their light edges, generating relaxation requests routed to the owners
// of the target nodes; owners then apply the requests to their local state.
// Heavy edges of the bucket's settled set are relaxed once per bucket.
//
// Costs are accumulated both in the returned DeltaResult and in the
// engine's Metrics. Cancellation of ctx is observed between bucket phases
// (superstep barriers); a cancelled run returns ctx's error.
func DeltaStepping(ctx context.Context, g *graph.Graph, src graph.NodeID, delta float64, e *bsp.Engine) (DeltaResult, error) {
	if delta <= 0 {
		panic("sssp: delta must be positive")
	}
	e.Bind(ctx)
	n := g.NumNodes()
	res := DeltaResult{Dist: make([]float64, n), Delta: delta}
	dist := res.Dist
	for i := range dist {
		dist[i] = Inf
	}
	P := e.Workers()
	numBuckets := numBucketsFor(g, delta)
	before := e.GlobalSnapshot()

	// Per-worker local state over its partition.
	queues := make([]*pq.BucketQueue, P)
	starts := make([]int, P)
	settled := make([][]int32, P)
	inSettled := make([][]bool, P)
	frontiers := make([][]int32, P)
	e.ParallelFor(n, func(w, start, end int) {
		queues[w] = pq.NewBucketQueue(end-start, delta, numBuckets)
		starts[w] = start
		inSettled[w] = make([]bool, end-start)
	})

	mail := bsp.NewMailboxes[relaxReq](P)
	route := e.Router(n) // O(1) owner lookup, hoisted out of the hot loop
	srcOwner := route.Owner(src)
	dist[src] = 0 // replicated: every peer records the same source state
	if e.OwnsWorker(srcOwner) {
		queues[srcOwner].Update(int(src)-starts[srcOwner], 0)
	}

	// relaxPhase relaxes the light (light=true) or heavy edges of the
	// per-worker node lists (global IDs), routing requests to owners which
	// apply them. One metered round.
	//
	// A request that does not beat dist[v] is metered as a logical message
	// but never enqueued: nothing writes dist during the send half, so the
	// cross-partition read is race-free, and dist only decreases while the
	// owner applies, so the owner would reject it on arrival anyway. On a
	// distributed engine a remote node's local copy stays at +Inf (or the
	// replicated source 0), never below the owner's, so the prune there
	// only drops fewer messages.
	relaxPhase := func(lists [][]int32, light bool) {
		e.ParallelFor(n, func(w, _, _ int) {
			var sent int64
			for _, u := range lists[w] {
				du := dist[u] // owned by w: safe
				ts, ws := g.Neighbors(graph.NodeID(u))
				for i, v := range ts {
					wt := ws[i]
					if (wt <= delta) != light {
						continue
					}
					sent++
					if nd := du + wt; nd < dist[v] {
						mail.Send(w, route.Owner(v), relaxReq{v, nd})
					}
				}
			}
			if sent > 0 {
				e.Metrics().AddMessages(sent) // logical relaxations, pruned ones included
			}
		})
		// Ship boxes addressed to remote owners (no-op single-process). On
		// error the inbound boxes are unspecified, so the apply half is
		// skipped; the error is sticky and surfaces through the e.Err()
		// checks.
		if err := bsp.ExchangeMailboxes(e, mail, relaxWire, route); err != nil {
			return
		}
		e.ParallelFor(n, func(w, start, _ int) {
			var applied int64
			q := queues[w]
			mail.Recv(w, func(r relaxReq) {
				if r.dist < dist[r.node] {
					dist[r.node] = r.dist
					q.Update(int(r.node)-start, r.dist)
					applied++
				}
			})
			mail.ClearTo(w)
			if applied > 0 {
				e.Metrics().AddUpdates(applied)
			}
		})
		e.Metrics().AddRounds(1)
	}

	ownLo, ownHi := e.OwnedWorkers()
	for {
		if err := e.Err(); err != nil {
			return DeltaResult{}, err
		}
		// Globally lowest non-empty bucket: fold the owned queues, then
		// min-combine across peers (-1 means no pending bucket anywhere).
		b := -1
		for w := ownLo; w < ownHi; w++ {
			if nb := queues[w].NextBucket(); nb >= 0 && (b < 0 || nb < b) {
				b = nb
			}
		}
		b = e.GlobalMinNonNeg(b)
		if b < 0 {
			break
		}
		for w := ownLo; w < ownHi; w++ {
			settled[w] = settled[w][:0]
		}
		// Light phases on bucket b until it stays empty everywhere.
		for {
			e.ParallelFor(n, func(w, start, _ int) {
				f := frontiers[w][:0]
				q := queues[w]
				if nb := q.NextBucket(); nb == b {
					f = q.DrainBucket(b, f)
				}
				for i, lu := range f {
					if !inSettled[w][lu] {
						inSettled[w][lu] = true
						settled[w] = append(settled[w], lu+int32(start))
					}
					f[i] = lu + int32(start)
				}
				frontiers[w] = f
			})
			any := false
			for w := ownLo; w < ownHi; w++ {
				if len(frontiers[w]) > 0 {
					any = true
					break
				}
			}
			any = e.GlobalOr(any)
			if !any {
				break
			}
			relaxPhase(frontiers, true)
			if err := e.Err(); err != nil {
				return DeltaResult{}, err
			}
		}
		// Heavy phase over the settled sets.
		anySettled := false
		for w := ownLo; w < ownHi; w++ {
			if len(settled[w]) > 0 {
				anySettled = true
				break
			}
		}
		anySettled = e.GlobalOr(anySettled)
		if anySettled {
			relaxPhase(settled, false)
			e.ParallelFor(n, func(w, start, _ int) {
				for _, u := range settled[w] {
					inSettled[w][int(u)-start] = false
				}
			})
		}
	}
	// Every peer holds exact distances for its owned partition; make the
	// full array identical everywhere before reporting.
	e.SyncFloat64s(dist)
	after := e.GlobalSnapshot()
	if err := e.Err(); err != nil {
		return DeltaResult{}, err
	}
	res.Rounds = after.Rounds - before.Rounds
	res.Relaxations = after.Messages - before.Messages
	res.Updates = 1 + after.Updates - before.Updates // +1 for the source init
	return res, nil
}

// SuggestDelta returns a reasonable default bucket width: the average edge
// weight. Meyer & Sanders recommend Θ(1/d) for random weights in (0,1] and
// degree d; the experiments harness additionally sweeps candidates via
// TuneDelta, mirroring the paper's per-graph tuning.
func SuggestDelta(g *graph.Graph) float64 {
	avg := g.AvgEdgeWeight()
	if avg <= 0 {
		return 1
	}
	return avg
}

// TuneDelta runs sequential Δ-stepping from src for every candidate width
// and returns the one minimizing rounds (ties broken by work), replicating
// the paper's protocol of picking the best-performing Δ per graph.
func TuneDelta(g *graph.Graph, src graph.NodeID, candidates []float64) float64 {
	best := candidates[0]
	var bestRounds, bestWork int64 = math.MaxInt64, math.MaxInt64
	for _, d := range candidates {
		r := DeltaSteppingSeq(g, src, d)
		if r.Rounds < bestRounds || (r.Rounds == bestRounds && r.Work() < bestWork) {
			best, bestRounds, bestWork = d, r.Rounds, r.Work()
		}
	}
	return best
}

// DiameterUpperBound runs Δ-stepping from src and returns the paper's
// SSSP-based 2-approximation of the weighted diameter: twice the weight of
// the heaviest shortest path found, together with the run's costs. The
// true diameter Φ satisfies estimate/2 ≤ Φ ≤ estimate. Cancellation of ctx
// is observed between bucket phases.
func DiameterUpperBound(ctx context.Context, g *graph.Graph, src graph.NodeID, delta float64, e *bsp.Engine) (float64, DeltaResult, error) {
	res, err := DeltaStepping(ctx, g, src, delta, e)
	if err != nil {
		return 0, DeltaResult{}, err
	}
	ecc, _ := Eccentricity(res.Dist)
	return 2 * ecc, res, nil
}
