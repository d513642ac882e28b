// Package transport provides the exchange fabric that lets a BSP
// computation's workers span peers: a small synchronous-exchange primitive
// (Step) that the bsp package layers mailbox shipping, reductions, and
// state synchronization on top of.
//
// The design keeps the paper's platform-independent accounting bit-identical
// whether workers share one engine or are split across peers: the transport
// moves opaque byte blobs between peers at superstep barriers and never
// reorders, duplicates, or drops data visibly — a delivery either arrives
// exactly once (possibly after internal retries) or the whole step fails
// with a classified *Error. Determinism of the computation is therefore
// entirely the algorithm layer's concern; the transport only has to be
// exactly-once per (step, sender) pair.
//
// The one implementation is SimNetwork, an in-memory hub whose peers are
// goroutines of one process, with deterministic, seeded fault injection
// (drops→retries, partitions, reordering, peer death) and no wall-clock
// dependence in the failure decisions. It is how this repository
// reproduces the paper's setting, where a round is expensive; no network
// transport exists (see DESIGN.md, "Distributed BSP").
package transport

import "fmt"

// Transport is one peer's handle on the exchange fabric of a distributed
// BSP run. A Transport is used by a single goroutine (the run's driver);
// implementations need not support concurrent Steps.
type Transport interface {
	// Rank is this peer's index in [0, Peers()).
	Rank() int
	// Peers is the number of participating peers.
	Peers() int
	// Step performs one synchronized exchange: out[q] is the blob addressed
	// to peer q (out[Rank()] is returned to self verbatim, never
	// transmitted; nil blobs are valid and arrive as empty). Step blocks
	// until every peer has contributed its blobs for the same step number,
	// then returns the blobs addressed to this peer, indexed by sender
	// rank. Every peer must call Step with the same strictly increasing
	// step sequence — the lockstep discipline the deterministic drivers
	// guarantee by construction. A non-nil error is always a *Error and is
	// terminal: the run cannot continue.
	Step(step uint64, out [][]byte) (in [][]byte, err error)
}

// ErrKind classifies terminal transport failures so callers can distinguish
// "the fleet is broken" from "the protocol is broken".
type ErrKind int

const (
	// ErrProtocol: peers diverged (mismatched steps, malformed frames,
	// duplicate conflicting deliveries). Indicates a bug, not an outage.
	ErrProtocol ErrKind = iota
	// ErrUnreachable: delivery retries to a peer were exhausted.
	ErrUnreachable
	// ErrBarrierTimeout: this peer's barrier never filled — some peer
	// stopped stepping (crash, hang, cancellation on its side).
	ErrBarrierTimeout
	// ErrPeerDown: a peer is known dead (crashed mid-run).
	ErrPeerDown
)

// String names the kind for logs and error text.
func (k ErrKind) String() string {
	switch k {
	case ErrProtocol:
		return "protocol"
	case ErrUnreachable:
		return "unreachable"
	case ErrBarrierTimeout:
		return "barrier-timeout"
	case ErrPeerDown:
		return "peer-down"
	}
	return "unknown"
}

// Error is the classified failure of a distributed exchange. Peer is the
// rank the failure is attributed to (-1 when not attributable).
type Error struct {
	Kind ErrKind
	Peer int
	Step uint64
	Msg  string
}

// Errorf builds a classified transport error.
func Errorf(kind ErrKind, peer int, step uint64, format string, args ...any) *Error {
	return &Error{Kind: kind, Peer: peer, Step: step, Msg: fmt.Sprintf(format, args...)}
}

func (e *Error) Error() string {
	if e.Peer >= 0 {
		return fmt.Sprintf("transport: %s (peer %d, step %d): %s", e.Kind, e.Peer, e.Step, e.Msg)
	}
	return fmt.Sprintf("transport: %s (step %d): %s", e.Kind, e.Step, e.Msg)
}
