package transport

import (
	"sync"
	"time"

	"graphdiam/internal/rng"
)

// FaultPlan is a seeded, deterministic schedule of network misbehaviour for
// the simulated transport. The zero value is a perfect network. All
// decisions are pure functions of (Seed, step, sender, receiver, attempt) —
// no wall clock, no global RNG — so a failing schedule replays exactly.
type FaultPlan struct {
	// Seed drives every drop decision.
	Seed uint64
	// DropRate is the probability that one delivery attempt is lost (the
	// sender retries transparently; see MaxAttempts).
	DropRate float64
	// MaxAttempts bounds delivery attempts per (step, sender, receiver)
	// before the step fails with ErrUnreachable. 0 selects 8.
	MaxAttempts int
	// Reorder commits inbound blobs in a seeded shuffled order, modelling a
	// network that delivers peers' contributions in arbitrary interleaving.
	// Results must be unaffected: receivers index inbound data by sender
	// rank, never by arrival order.
	Reorder bool
	// Partitions lists windows during which a peer is cut off.
	Partitions []Partition
	// DieAtStep, per rank, crashes that peer when it reaches the given
	// step: its Step call fails with ErrPeerDown and every other peer's
	// barrier on that step fails likewise (deterministically — no timeout
	// needed to detect a simulated death).
	DieAtStep map[int]uint64
}

// Partition cuts one peer off from the rest for steps in [FromStep, ToStep):
// every delivery attempt to or from Peer fails while attempt < FailAttempts.
// With FailAttempts < MaxAttempts the partition "heals" under retry and the
// run completes (with identical results — retries are invisible); with
// FailAttempts >= MaxAttempts it is a hard partition and the run fails
// cleanly with ErrUnreachable.
type Partition struct {
	FromStep, ToStep uint64
	Peer             int
	FailAttempts     int
}

func (p FaultPlan) maxAttempts() int {
	if p.MaxAttempts <= 0 {
		return 8
	}
	return p.MaxAttempts
}

// SimNetwork is a deterministic in-memory exchange hub connecting the
// simulated peers of one BSP run. Create one per run, hand each participant
// goroutine its Peer(rank) transport, and let each drive its own distributed
// engine. Fault injection is configured up front through the FaultPlan.
type SimNetwork struct {
	peers   int
	plan    FaultPlan
	timeout time.Duration

	mu      sync.Mutex
	steps   map[uint64]*simStep
	dead    []bool
	netErr  error
	retries int64
}

type simStep struct {
	blobs   map[int][][]byte
	err     error
	closed  bool
	done    chan struct{}
	claimed int
}

// NewSimNetwork builds a hub for the given peer count. timeout bounds the
// wall-clock barrier wait (a safety net for peers that stop stepping without
// a declared death, e.g. context cancellation); 0 selects 10s.
func NewSimNetwork(peers int, plan FaultPlan, timeout time.Duration) *SimNetwork {
	if peers <= 0 {
		panic("transport: SimNetwork needs at least one peer")
	}
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	return &SimNetwork{
		peers:   peers,
		plan:    plan,
		timeout: timeout,
		steps:   make(map[uint64]*simStep),
		dead:    make([]bool, peers),
	}
}

// Peer returns rank's transport handle.
func (n *SimNetwork) Peer(rank int) Transport {
	if rank < 0 || rank >= n.peers {
		panic("transport: rank out of range")
	}
	return &simTransport{net: n, rank: rank}
}

// Retries reports how many delivery attempts were dropped and retried so
// far — the fault-injection tests assert it is positive under lossy plans.
func (n *SimNetwork) Retries() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.retries
}

// Kill marks rank dead: its next Step fails with ErrPeerDown, and every
// barrier missing its contribution — pending or future — fails immediately
// and deterministically.
func (n *SimNetwork) Kill(rank int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.killLocked(rank, 0)
}

func (n *SimNetwork) killLocked(rank int, step uint64) {
	if n.dead[rank] {
		return
	}
	n.dead[rank] = true
	for _, st := range n.steps {
		if _, contributed := st.blobs[rank]; !contributed {
			n.failStepLocked(st, Errorf(ErrPeerDown, rank, step, "peer died mid-run"))
		}
	}
}

func (n *SimNetwork) failStepLocked(st *simStep, err error) {
	if st.closed {
		return
	}
	st.err = err
	st.closed = true
	close(st.done)
}

// dropped decides one delivery attempt's fate, purely from the plan.
func (n *SimNetwork) dropped(step uint64, from, to, attempt int) bool {
	for _, p := range n.plan.Partitions {
		if step >= p.FromStep && step < p.ToStep &&
			(p.Peer == from || p.Peer == to) && attempt < p.FailAttempts {
			return true
		}
	}
	if n.plan.DropRate <= 0 {
		return false
	}
	x := n.plan.Seed ^ step*0x9e3779b97f4a7c15 ^
		uint64(from+1)*0xbf58476d1ce4e5b9 ^ uint64(to+1)*0x94d049bb133111eb ^
		uint64(attempt+1)*0xd6e8feb86659fd93
	sm := rng.NewSplitMix64(x)
	return float64(sm.Next()>>11)/(1<<53) < n.plan.DropRate
}

type simTransport struct {
	net  *SimNetwork
	rank int
}

func (t *simTransport) Rank() int  { return t.rank }
func (t *simTransport) Peers() int { return t.net.peers }

func (t *simTransport) Step(step uint64, out [][]byte) ([][]byte, error) {
	n := t.net
	n.mu.Lock()
	if n.dead[t.rank] {
		n.mu.Unlock()
		return nil, Errorf(ErrPeerDown, t.rank, step, "this peer is dead")
	}
	if die, ok := n.plan.DieAtStep[t.rank]; ok && step >= die {
		n.killLocked(t.rank, step)
		n.mu.Unlock()
		return nil, Errorf(ErrPeerDown, t.rank, step, "scheduled death")
	}
	if n.netErr != nil {
		err := n.netErr
		n.mu.Unlock()
		return nil, err
	}
	st := n.steps[step]
	if st == nil {
		st = &simStep{blobs: make(map[int][][]byte, n.peers), done: make(chan struct{})}
		n.steps[step] = st
	}
	// Simulate this peer's outbound deliveries: each may need retries; a
	// delivery that exhausts its attempts fails the whole step for everyone
	// (the barrier can never fill).
	if !st.closed {
		max := n.plan.maxAttempts()
		for q := 0; q < n.peers && !st.closed; q++ {
			if q == t.rank {
				continue
			}
			attempt := 0
			for n.dropped(step, t.rank, q, attempt) {
				attempt++
				n.retries++
				if attempt >= max {
					n.failStepLocked(st, Errorf(ErrUnreachable, q, step,
						"delivery from peer %d exhausted %d attempts", t.rank, max))
					break
				}
			}
		}
	}
	if !st.closed {
		st.blobs[t.rank] = out
		if len(st.blobs) == n.peers {
			st.closed = true
			close(st.done)
		} else {
			for q, dead := range n.dead {
				if _, contributed := st.blobs[q]; dead && !contributed {
					n.failStepLocked(st, Errorf(ErrPeerDown, q, step, "peer died mid-run"))
					break
				}
			}
		}
	}
	n.mu.Unlock()

	// A stopped timer, not time.After: under go 1.22 an unfired After
	// timer stays live until it fires, one per peer per superstep.
	timer := time.NewTimer(n.timeout)
	defer timer.Stop()
	select {
	case <-st.done:
	case <-timer.C:
		n.mu.Lock()
		n.failStepLocked(st, Errorf(ErrBarrierTimeout, -1, step,
			"barrier did not fill within %v (%d/%d peers arrived)",
			n.timeout, len(st.blobs), n.peers))
		n.mu.Unlock()
		<-st.done
	}

	n.mu.Lock()
	defer n.mu.Unlock()
	if st.err != nil {
		n.netErr = st.err // sticky: the run is over for everyone
		return nil, st.err
	}
	in := make([][]byte, n.peers)
	for _, q := range n.deliveryOrder(step) {
		if blobs := st.blobs[q]; t.rank < len(blobs) {
			in[q] = blobs[t.rank]
		}
	}
	st.claimed++
	if st.claimed == n.peers {
		delete(n.steps, step)
	}
	return in, nil
}

// deliveryOrder is the order inbound contributions are committed in —
// shuffled under FaultPlan.Reorder to model arbitrary network interleaving.
// Receivers index by rank, so the order must be (and is) immaterial.
func (n *SimNetwork) deliveryOrder(step uint64) []int {
	order := make([]int, n.peers)
	for i := range order {
		order[i] = i
	}
	if n.plan.Reorder {
		sm := rng.NewSplitMix64(n.plan.Seed ^ 0xabcd ^ step)
		for i := n.peers - 1; i > 0; i-- {
			j := int(sm.Next() % uint64(i+1))
			order[i], order[j] = order[j], order[i]
		}
	}
	return order
}
