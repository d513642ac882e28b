package bsp

import (
	"encoding/binary"
	"fmt"
	"math"

	"graphdiam/internal/bsp/transport"
)

// distEngine is the state an Engine carries when its P workers are spread
// across multiple processes. The design is SPMD replication: every peer runs
// the same deterministic driver over the full graph and the full state
// arrays, but executes ParallelFor bodies only for its owned contiguous
// worker range — all control-flow values are combined through the collectives
// below, so every peer takes bit-identical branches in lockstep.
//
// Determinism contract: the total worker count P fixes the partition, the
// message routing, and the metric accounting; the peer count only decides
// which process executes which worker. Collectives fold contributions in
// global worker/rank order (float sums included), so results and the paper's
// rounds/messages/updates counters match the single-process run exactly.
type distEngine struct {
	tr    transport.Transport
	rank  int
	peers int
	// ownLo, ownHi is this peer's owned worker range [ownLo, ownHi).
	ownLo, ownHi int
	// ranges[p] is peer p's owned worker range.
	ranges [][2]int
	// step is the next transport step number; every collective and mailbox
	// exchange consumes exactly one, so replicated drivers stay in lockstep.
	step uint64
	// err is the sticky first transport failure; once set, every subsequent
	// engine operation no-ops and Err() reports it.
	err error
}

// splitRange returns the contiguous slice [lo, hi) of workers owned by peer
// p out of peers — the same largest-remainder split Partition uses for
// items, so worker ownership is deterministic in (workers, peers) alone.
func splitRange(workers, peers, p int) (lo, hi int) {
	per := workers / peers
	rem := workers % peers
	lo = p*per + min(p, rem)
	hi = lo + per
	if p < rem {
		hi++
	}
	return lo, hi
}

// NewDistributed returns an engine whose P workers are spread across the
// transport's peers: this process executes only the contiguous worker range
// owned by tr.Rank(), and the collective operations combine per-peer values
// over the wire. workers must be >= tr.Peers() so every peer owns at least
// one worker. The caller retains ownership of tr.
func NewDistributed(workers int, tr transport.Transport) (*Engine, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("bsp: distributed engine needs an explicit worker count")
	}
	peers := tr.Peers()
	if workers < peers {
		return nil, fmt.Errorf("bsp: %d workers cannot span %d peers (each peer needs one)", workers, peers)
	}
	rank := tr.Rank()
	if rank < 0 || rank >= peers {
		return nil, fmt.Errorf("bsp: transport rank %d out of range for %d peers", rank, peers)
	}
	d := &distEngine{tr: tr, rank: rank, peers: peers, ranges: make([][2]int, peers)}
	for p := 0; p < peers; p++ {
		lo, hi := splitRange(workers, peers, p)
		d.ranges[p] = [2]int{lo, hi}
	}
	d.ownLo, d.ownHi = d.ranges[rank][0], d.ranges[rank][1]
	e := New(workers)
	e.dist = d
	return e, nil
}

// Distributed reports whether the engine's workers span multiple processes.
func (e *Engine) Distributed() bool { return e.dist != nil }

// Primary reports whether this process meters fleet-level counters: true for
// single-process engines and for peer rank 0. Counts that are computed
// globally (e.g. "nodes selected this stage") would be multiplied by the
// peer count if every replica metered them; guarding with Primary keeps the
// globally-summed snapshot identical to the single-process run.
func (e *Engine) Primary() bool { return e.dist == nil || e.dist.rank == 0 }

// OwnedWorkers returns the contiguous worker range [lo, hi) this process
// executes: (0, Workers()) for a single-process engine.
func (e *Engine) OwnedWorkers() (lo, hi int) {
	if e.dist == nil {
		return 0, e.workers
	}
	return e.dist.ownLo, e.dist.ownHi
}

// OwnsWorker reports whether worker w executes in this process.
func (e *Engine) OwnsWorker(w int) bool {
	if e.dist == nil {
		return true
	}
	return w >= e.dist.ownLo && w < e.dist.ownHi
}

// nodeSpan returns the contiguous item range [s, t) of [0, n) owned by peer
// p — the union of the Partition ranges of p's workers.
func (d *distEngine) nodeSpan(e *Engine, n, p int) (s, t int) {
	wl, wh := d.ranges[p][0], d.ranges[p][1]
	s, _ = e.Partition(n, wl)
	_, t = e.Partition(n, wh-1)
	return s, t
}

// netStep runs one transport exchange, advancing the lockstep counter. The
// first failure is sticky: the run is over and Err() reports it.
func (d *distEngine) netStep(out [][]byte) ([][]byte, error) {
	if d.err != nil {
		return nil, d.err
	}
	in, err := d.tr.Step(d.step, out)
	d.step++
	if err != nil {
		d.err = err
		return nil, err
	}
	return in, nil
}

// fail records a protocol-level failure detected locally (bad peer payload),
// making it sticky exactly like a transport failure.
func (d *distEngine) fail(kind transport.ErrKind, peer int, format string, args ...any) error {
	err := transport.Errorf(kind, peer, d.step, format, args...)
	if d.err == nil {
		d.err = err
	}
	return err
}

// allgather broadcasts payload to every peer and returns all peers' payloads
// indexed by rank (own payload included verbatim).
func (d *distEngine) allgather(payload []byte) ([][]byte, error) {
	out := make([][]byte, d.peers)
	for q := range out {
		out[q] = payload
	}
	return d.netStep(out)
}

// allgatherFixed is allgather for fixed-size scalar payloads, validating
// every peer sent exactly size bytes.
func (d *distEngine) allgatherFixed(payload []byte, size int) ([][]byte, error) {
	in, err := d.allgather(payload)
	if err != nil {
		return nil, err
	}
	for p, blob := range in {
		if len(blob) != size {
			return nil, d.fail(transport.ErrProtocol, p,
				"collective payload is %d bytes, want %d", len(blob), size)
		}
	}
	return in, nil
}

// GlobalSumInt sums v across peers. Identity for single-process engines; on
// transport failure it returns 0 with the error sticky in Err().
func (e *Engine) GlobalSumInt(v int) int {
	d := e.dist
	if d == nil {
		return v
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
	in, err := d.allgatherFixed(buf[:], 8)
	if err != nil {
		return 0
	}
	var total int64
	for _, blob := range in {
		total += int64(binary.LittleEndian.Uint64(blob))
	}
	return int(total)
}

// GlobalSum2 sums the pair (a, b) across peers in one exchange.
func (e *Engine) GlobalSum2(a, b int64) (int64, int64) {
	d := e.dist
	if d == nil {
		return a, b
	}
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(a))
	binary.LittleEndian.PutUint64(buf[8:], uint64(b))
	in, err := d.allgatherFixed(buf[:], 16)
	if err != nil {
		return 0, 0
	}
	var sa, sb int64
	for _, blob := range in {
		sa += int64(binary.LittleEndian.Uint64(blob[0:]))
		sb += int64(binary.LittleEndian.Uint64(blob[8:]))
	}
	return sa, sb
}

// GlobalOr ORs v across peers ("does any peer have pending work?").
func (e *Engine) GlobalOr(v bool) bool {
	d := e.dist
	if d == nil {
		return v
	}
	buf := []byte{0}
	if v {
		buf[0] = 1
	}
	in, err := d.allgatherFixed(buf, 1)
	if err != nil {
		return false
	}
	for _, blob := range in {
		if blob[0] != 0 {
			return true
		}
	}
	return false
}

// GlobalMinNonNeg returns the minimum non-negative value across peers, or -1
// if every peer reported a negative sentinel ("no bucket here").
func (e *Engine) GlobalMinNonNeg(v int) int {
	d := e.dist
	if d == nil {
		return v
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
	in, err := d.allgatherFixed(buf[:], 8)
	if err != nil {
		return -1
	}
	best := -1
	for _, blob := range in {
		if x := int64(binary.LittleEndian.Uint64(blob)); x >= 0 && (best < 0 || int(x) < best) {
			best = int(x)
		}
	}
	return best
}

// GlobalArgMin combines per-peer (key, id) candidates: the smallest key wins,
// earlier rank winning ties; id < 0 marks "no candidate". Folding peer bests
// in rank order with a strict < reproduces exactly the single-process left
// fold over workers in order, because worker ranges are rank-ordered.
func (e *Engine) GlobalArgMin(key float64, id int64) (float64, int64) {
	d := e.dist
	if d == nil {
		return key, id
	}
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(key))
	binary.LittleEndian.PutUint64(buf[8:], uint64(id))
	in, err := d.allgatherFixed(buf[:], 16)
	if err != nil {
		return 0, -1
	}
	bestKey, bestID := math.Inf(1), int64(-1)
	for _, blob := range in {
		k := math.Float64frombits(binary.LittleEndian.Uint64(blob[0:]))
		u := int64(binary.LittleEndian.Uint64(blob[8:]))
		if u >= 0 && (bestID < 0 || k < bestKey) {
			bestKey, bestID = k, u
		}
	}
	if bestID < 0 {
		return key, -1
	}
	return bestKey, bestID
}

// SyncInt32s makes vals identical on every peer by shipping each peer's
// owned contiguous span (the union of its workers' Partition ranges of
// len(vals)) to everyone. No-op for single-process engines.
func (e *Engine) SyncInt32s(vals []int32) {
	d := e.dist
	if d == nil {
		return
	}
	n := len(vals)
	s, t := d.nodeSpan(e, n, d.rank)
	payload := make([]byte, 4*(t-s))
	for i, v := range vals[s:t] {
		binary.LittleEndian.PutUint32(payload[4*i:], uint32(v))
	}
	in, err := d.allgather(payload)
	if err != nil {
		return
	}
	for p, blob := range in {
		if p == d.rank {
			continue
		}
		ps, pt := d.nodeSpan(e, n, p)
		if len(blob) != 4*(pt-ps) {
			d.fail(transport.ErrProtocol, p, "sync span is %d bytes, want %d", len(blob), 4*(pt-ps))
			return
		}
		for i := ps; i < pt; i++ {
			vals[i] = int32(binary.LittleEndian.Uint32(blob[4*(i-ps):]))
		}
	}
}

// SyncFloat64s makes vals identical on every peer; see SyncInt32s.
func (e *Engine) SyncFloat64s(vals []float64) {
	d := e.dist
	if d == nil {
		return
	}
	n := len(vals)
	s, t := d.nodeSpan(e, n, d.rank)
	payload := make([]byte, 8*(t-s))
	for i, v := range vals[s:t] {
		binary.LittleEndian.PutUint64(payload[8*i:], math.Float64bits(v))
	}
	in, err := d.allgather(payload)
	if err != nil {
		return
	}
	for p, blob := range in {
		if p == d.rank {
			continue
		}
		ps, pt := d.nodeSpan(e, n, p)
		if len(blob) != 8*(pt-ps) {
			d.fail(transport.ErrProtocol, p, "sync span is %d bytes, want %d", len(blob), 8*(pt-ps))
			return
		}
		for i := ps; i < pt; i++ {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(blob[8*(i-ps):]))
		}
	}
}

// GlobalSnapshot returns the fleet-wide metric snapshot: messages and
// updates summed across peers (each peer meters only its owned workers'
// work), rounds taken from this peer after verifying every peer agrees — a
// divergence in the replicated round count means the lockstep discipline
// broke, which is reported as a sticky protocol error. For single-process
// engines this is exactly Metrics().Snapshot().
func (e *Engine) GlobalSnapshot() Snapshot {
	local := e.metrics.Snapshot()
	d := e.dist
	if d == nil {
		return local
	}
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(local.Rounds))
	binary.LittleEndian.PutUint64(buf[8:], uint64(local.Messages))
	binary.LittleEndian.PutUint64(buf[16:], uint64(local.Updates))
	in, err := d.allgatherFixed(buf[:], 24)
	if err != nil {
		return Snapshot{}
	}
	global := Snapshot{Rounds: local.Rounds}
	for p, blob := range in {
		rounds := int64(binary.LittleEndian.Uint64(blob[0:]))
		if rounds != local.Rounds {
			d.fail(transport.ErrProtocol, p,
				"replicated round counts diverged: peer has %d, local has %d", rounds, local.Rounds)
			return Snapshot{}
		}
		global.Messages += int64(binary.LittleEndian.Uint64(blob[8:]))
		global.Updates += int64(binary.LittleEndian.Uint64(blob[16:]))
	}
	return global
}

// gatherInts fills the entries of the per-worker partial array owned by
// remote peers, so a reduction can fold all P contributions in worker order.
func (d *distEngine) gatherInts(e *Engine, partial []int) error {
	payload := make([]byte, 8*(d.ownHi-d.ownLo))
	for i, v := range partial[d.ownLo:d.ownHi] {
		binary.LittleEndian.PutUint64(payload[8*i:], uint64(int64(v)))
	}
	in, err := d.allgather(payload)
	if err != nil {
		return err
	}
	for p, blob := range in {
		if p == d.rank {
			continue
		}
		pl, ph := d.ranges[p][0], d.ranges[p][1]
		if len(blob) != 8*(ph-pl) {
			return d.fail(transport.ErrProtocol, p, "partials span %d bytes, want %d", len(blob), 8*(ph-pl))
		}
		for w := pl; w < ph; w++ {
			partial[w] = int(int64(binary.LittleEndian.Uint64(blob[8*(w-pl):])))
		}
	}
	return nil
}

// gatherFloat64s is gatherInts for float64 partials. Filling the full array
// and folding sequentially in worker order keeps float combining bit-exact
// against the single-process run.
func (d *distEngine) gatherFloat64s(e *Engine, partial []float64) error {
	payload := make([]byte, 8*(d.ownHi-d.ownLo))
	for i, v := range partial[d.ownLo:d.ownHi] {
		binary.LittleEndian.PutUint64(payload[8*i:], math.Float64bits(v))
	}
	in, err := d.allgather(payload)
	if err != nil {
		return err
	}
	for p, blob := range in {
		if p == d.rank {
			continue
		}
		pl, ph := d.ranges[p][0], d.ranges[p][1]
		if len(blob) != 8*(ph-pl) {
			return d.fail(transport.ErrProtocol, p, "partials span %d bytes, want %d", len(blob), 8*(ph-pl))
		}
		for w := pl; w < ph; w++ {
			partial[w] = math.Float64frombits(binary.LittleEndian.Uint64(blob[8*(w-pl):]))
		}
	}
	return nil
}
