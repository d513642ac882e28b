package bsp

import (
	"encoding/binary"
	"fmt"

	"graphdiam/internal/bsp/transport"
)

// WireCodec serializes one mailbox message type for cross-process shipping.
// The frame layout around it is fixed (see encodeFrames); the codec only
// renders individual records.
type WireCodec[T any] struct {
	// MinSize is a lower bound on the encoded size of any record, in bytes.
	// The decoder uses it to reject length-prefix lies up front: a frame
	// claiming more records than the remaining bytes could possibly hold is
	// malformed, and is refused before any allocation proportional to the
	// claimed count (the header-bounds guard).
	MinSize int
	// Append renders msg at the end of buf.
	Append func(buf []byte, msg T) []byte
	// Read decodes one record from the front of data, returning the record
	// and the bytes consumed.
	Read func(data []byte) (msg T, n int, err error)
	// Node returns the target node of msg, which the decoder checks is in
	// range and owned by the frame's dst worker before the record reaches
	// the apply half.
	Node func(msg T) uint32
}

// Frame layout for one peer's shipment, repeated until the blob ends:
//
//	uvarint src | uvarint dst | uvarint count | count records
//
// Empty boxes are omitted; boxes appear in (src, dst) ascending order, so
// the receiver's Recv — which iterates sources in ascending order — applies
// messages in exactly the global sender order of the single-process run.
func encodeFrames[T any](c WireCodec[T], boxes [][][]T, srcLo, srcHi, dstLo, dstHi int) []byte {
	var buf []byte
	var tmp [binary.MaxVarintLen64]byte
	for src := srcLo; src < srcHi; src++ {
		for dst := dstLo; dst < dstHi; dst++ {
			msgs := boxes[src][dst]
			if len(msgs) == 0 {
				continue
			}
			n := binary.PutUvarint(tmp[:], uint64(src))
			buf = append(buf, tmp[:n]...)
			n = binary.PutUvarint(tmp[:], uint64(dst))
			buf = append(buf, tmp[:n]...)
			n = binary.PutUvarint(tmp[:], uint64(len(msgs)))
			buf = append(buf, tmp[:n]...)
			for _, m := range msgs {
				buf = c.Append(buf, m)
			}
		}
	}
	return buf
}

// decodeFrames appends the records of blob into boxes, validating that every
// frame's (src, dst) lies in the expected ranges, that no length prefix
// overruns the remaining bytes, and that every record's node lies in
// route's [0, n) and is owned by the frame's dst — so the apply half never
// indexes past its arrays or writes a slot another worker owns. Partially
// decoded frames leave boxes in an unspecified state; callers treat any
// error as terminal for the run.
func decodeFrames[T any](c WireCodec[T], route Router, blob []byte, boxes [][][]T, srcLo, srcHi, dstLo, dstHi int) error {
	minSize := c.MinSize
	if minSize < 1 {
		minSize = 1
	}
	pos := 0
	for pos < len(blob) {
		src, n := binary.Uvarint(blob[pos:])
		if n <= 0 {
			return fmt.Errorf("truncated src at byte %d", pos)
		}
		pos += n
		dst, n := binary.Uvarint(blob[pos:])
		if n <= 0 {
			return fmt.Errorf("truncated dst at byte %d", pos)
		}
		pos += n
		count, n := binary.Uvarint(blob[pos:])
		if n <= 0 {
			return fmt.Errorf("truncated count at byte %d", pos)
		}
		pos += n
		if src < uint64(srcLo) || src >= uint64(srcHi) {
			return fmt.Errorf("frame src %d outside sender's workers [%d, %d)", src, srcLo, srcHi)
		}
		if dst < uint64(dstLo) || dst >= uint64(dstHi) {
			return fmt.Errorf("frame dst %d outside receiver's workers [%d, %d)", dst, dstLo, dstHi)
		}
		if count > uint64(len(blob)-pos)/uint64(minSize) {
			return fmt.Errorf("frame claims %d records but only %d bytes remain", count, len(blob)-pos)
		}
		box := boxes[src][dst]
		for i := uint64(0); i < count; i++ {
			msg, n, err := c.Read(blob[pos:])
			if err != nil {
				return fmt.Errorf("record %d of frame %d→%d: %w", i, src, dst, err)
			}
			if v := c.Node(msg); v >= route.n || route.Owner(v) != int(dst) {
				return fmt.Errorf("record %d of frame %d→%d: node %d not owned by worker %d of %d nodes", i, src, dst, v, dst, route.n)
			}
			box = append(box, msg)
			pos += n
		}
		boxes[src][dst] = box
	}
	return nil
}

// ExchangeMailboxes ships the cross-peer boxes of m through the engine's
// transport: every box written by an owned worker to a remote peer's worker
// is encoded, exchanged at a barrier, and the inbound frames are decoded
// into the remote-sender rows of m — after which Recv on an owned worker
// sees exactly the messages (and the sender order) a single-process run
// would. A no-op returning nil for single-process engines; call it between
// the send and apply halves of a superstep. route is the engine's Router
// over the nodes the messages target: an inbound record whose node is out
// of range, or not owned by its frame's dst, fails the run with
// transport.ErrProtocol.
//
// On error the run is over: the error is also sticky in the engine (Err()),
// so drivers that only check Err() at superstep boundaries stay correct.
func ExchangeMailboxes[T any](e *Engine, m *Mailboxes[T], c WireCodec[T], route Router) error {
	d := e.dist
	if d == nil {
		return nil
	}
	if d.err != nil {
		return d.err
	}
	out := make([][]byte, d.peers)
	for q := 0; q < d.peers; q++ {
		if q == d.rank {
			continue
		}
		ql, qh := d.ranges[q][0], d.ranges[q][1]
		out[q] = encodeFrames(c, m.boxes, d.ownLo, d.ownHi, ql, qh)
		// Shipped boxes are the remote owner's to apply; truncate them so
		// they are neither re-shipped next superstep nor left to grow.
		for src := d.ownLo; src < d.ownHi; src++ {
			for dst := ql; dst < qh; dst++ {
				m.boxes[src][dst] = m.boxes[src][dst][:0]
			}
		}
	}
	in, err := d.netStep(out)
	if err != nil {
		return err
	}
	for q := 0; q < d.peers; q++ {
		if q == d.rank || len(in[q]) == 0 {
			continue
		}
		ql, qh := d.ranges[q][0], d.ranges[q][1]
		if err := decodeFrames(c, route, in[q], m.boxes, ql, qh, d.ownLo, d.ownHi); err != nil {
			return d.fail(transport.ErrProtocol, q, "decode inbound frames: %v", err)
		}
	}
	return nil
}
