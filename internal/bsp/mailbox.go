package bsp

// Mailboxes is the communication fabric of a BSP superstep: worker-to-worker
// message buffers modelling the shuffle of a MapReduce round. During the
// "send" half of a superstep each worker writes only to its own outboxes
// (Send is lock-free under that discipline); after the barrier each worker
// reads exactly the messages addressed to it (Recv).
type Mailboxes[T any] struct {
	// boxes[src][dst] is the buffer of messages from worker src to dst.
	boxes [][][]T
	// chk asserts the single-writer-per-src discipline when the bspcheck
	// build tag is on; a zero-cost no-op otherwise (see mailcheck_off.go).
	chk mailboxCheck
}

// NewMailboxes returns mailboxes for the given worker count.
func NewMailboxes[T any](workers int) *Mailboxes[T] {
	boxes := make([][][]T, workers)
	for i := range boxes {
		boxes[i] = make([][]T, workers)
	}
	m := &Mailboxes[T]{boxes: boxes}
	m.chk.init(workers)
	return m
}

// Workers returns the number of workers the mailboxes were built for.
func (m *Mailboxes[T]) Workers() int { return len(m.boxes) }

// Send appends msg to the src→dst buffer. It may be called concurrently by
// distinct src workers, but a single src must not be used from two
// goroutines at once.
func (m *Mailboxes[T]) Send(src, dst int, msg T) {
	m.chk.beginSrc(src)
	m.boxes[src][dst] = append(m.boxes[src][dst], msg)
	m.chk.endSrc(src)
}

// Recv invokes fn for every message addressed to dst, in sender order.
// It must only be called after all senders have passed the barrier.
func (m *Mailboxes[T]) Recv(dst int, fn func(T)) {
	for src := range m.boxes {
		for _, msg := range m.boxes[src][dst] {
			fn(msg)
		}
	}
}

// CountTo returns the number of pending messages addressed to dst. Like
// Recv, it must only be called after all senders have passed the barrier.
func (m *Mailboxes[T]) CountTo(dst int) int {
	m.chk.quiesced("CountTo")
	total := 0
	for src := range m.boxes {
		total += len(m.boxes[src][dst])
	}
	return total
}

// Count returns the total number of pending messages.
func (m *Mailboxes[T]) Count() int64 {
	var total int64
	for src := range m.boxes {
		for dst := range m.boxes[src] {
			total += int64(len(m.boxes[src][dst]))
		}
	}
	return total
}

// Clear empties every buffer, retaining capacity for reuse. Typically each
// worker clears its own inboxes via ClearTo after consuming them; Clear is
// the sequential fallback between supersteps.
func (m *Mailboxes[T]) Clear() {
	m.chk.quiesced("Clear")
	for src := range m.boxes {
		for dst := range m.boxes[src] {
			m.boxes[src][dst] = m.boxes[src][dst][:0]
		}
	}
}

// ClearTo empties every buffer addressed to dst; safe to call concurrently
// for distinct dst.
func (m *Mailboxes[T]) ClearTo(dst int) {
	for src := range m.boxes {
		m.boxes[src][dst] = m.boxes[src][dst][:0]
	}
}
