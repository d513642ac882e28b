package bsp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

// fuzzMsg is a representative wire record: a varint-coded node id plus a
// fixed-width payload, the same shape as the production grow/relax codecs.
type fuzzMsg struct {
	node uint32
	bits uint64
}

var fuzzCodec = WireCodec[fuzzMsg]{
	MinSize: 9, // 1-byte uvarint node + 8-byte payload
	Append: func(buf []byte, m fuzzMsg) []byte {
		buf = binary.AppendUvarint(buf, uint64(m.node))
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], m.bits)
		return append(buf, b[:]...)
	},
	Read: func(data []byte) (fuzzMsg, int, error) {
		node, n := binary.Uvarint(data)
		if n <= 0 {
			return fuzzMsg{}, 0, errors.New("truncated node")
		}
		if node > 1<<32-1 {
			return fuzzMsg{}, 0, fmt.Errorf("node %d overflows uint32", node)
		}
		if len(data)-n < 8 {
			return fuzzMsg{}, 0, errors.New("truncated payload")
		}
		bits := binary.LittleEndian.Uint64(data[n:])
		return fuzzMsg{uint32(node), bits}, n + 8, nil
	},
	Node: func(m fuzzMsg) uint32 { return m.node },
}

func freshBoxes(workers int) [][][]fuzzMsg {
	boxes := make([][][]fuzzMsg, workers)
	for i := range boxes {
		boxes[i] = make([][]fuzzMsg, workers)
	}
	return boxes
}

// FuzzFrameRoundTrip drives record content from the fuzzer through
// encodeFrames → decodeFrames and demands bit-identical boxes back. The
// fuzz input seeds a splitmix-style generator so a few bytes expand into
// varied box shapes (empty boxes, single huge box, scatter).
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint16(3))
	f.Add(uint64(0xdeadbeef), uint16(64))
	f.Add(uint64(42), uint16(1))
	f.Fuzz(func(t *testing.T, seed uint64, size uint16) {
		const workers = 6
		const srcLo, srcHi, dstLo, dstHi = 0, 3, 3, 6
		// The widest node range, so records span every uvarint length.
		const nodes = 1<<32 - 1
		e := New(workers)
		route := e.Router(nodes)
		x := seed
		next := func() uint64 {
			x += 0x9e3779b97f4a7c15
			z := x
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			return z ^ (z >> 31)
		}
		boxes := freshBoxes(workers)
		n := int(size) % 257
		for i := 0; i < n; i++ {
			src := srcLo + int(next()%uint64(srcHi-srcLo))
			dst := dstLo + int(next()%uint64(dstHi-dstLo))
			lo, hi := e.Partition(nodes, dst) // records target dst's own nodes
			node := uint32(lo + int(next()%uint64(hi-lo)))
			boxes[src][dst] = append(boxes[src][dst], fuzzMsg{node, next()})
		}
		blob := encodeFrames(fuzzCodec, boxes, srcLo, srcHi, dstLo, dstHi)
		got := freshBoxes(workers)
		if err := decodeFrames(fuzzCodec, route, blob, got, srcLo, srcHi, dstLo, dstHi); err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		for src := 0; src < workers; src++ {
			for dst := 0; dst < workers; dst++ {
				a, b := boxes[src][dst], got[src][dst]
				if len(a) != len(b) {
					t.Fatalf("box %d→%d: %d records in, %d out", src, dst, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("box %d→%d record %d: %+v != %+v", src, dst, i, a[i], b[i])
					}
				}
			}
		}
		// Re-encoding the decoded boxes must reproduce the blob byte for
		// byte: the frame format has a unique canonical form.
		if blob2 := encodeFrames(fuzzCodec, got, srcLo, srcHi, dstLo, dstHi); !bytes.Equal(blob, blob2) {
			t.Fatalf("re-encode diverged: %d vs %d bytes", len(blob), len(blob2))
		}
	})
}

// decodeNodes is the node range of FuzzFrameDecode: over 4 workers, worker
// 2 owns [500, 750) and worker 3 owns [750, 1000).
const decodeNodes = 1000

// FuzzFrameDecode feeds adversarial blobs straight into the decoder. The
// contract: every input either decodes into in-range boxes holding only
// records for nodes their dst owns, or returns an error — no panics, and no
// allocation driven by a lying length prefix (the bounds guard caps records
// at len(blob)/MinSize, so the box slices the decoder builds stay
// proportional to the input size).
func FuzzFrameDecode(f *testing.F) {
	// A valid blob as a seed.
	valid := freshBoxes(4)
	valid[0][2] = []fuzzMsg{{507, 9}, {508, 10}}
	valid[1][3] = []fuzzMsg{{751, 2}}
	f.Add(encodeFrames(fuzzCodec, valid, 0, 2, 2, 4))
	// A frame whose count prefix claims ~1e18 records in 3 bytes.
	lie := binary.AppendUvarint(nil, 0)             // src
	lie = binary.AppendUvarint(lie, 2)              // dst
	lie = binary.AppendUvarint(lie, uint64(1)<<60)  // count lie
	f.Add(append(lie, 0xff))                        // one stray byte
	f.Add([]byte{})                                 // empty
	f.Add([]byte{0x80})                             // truncated uvarint
	f.Add(binary.AppendUvarint(nil, uint64(1)<<40)) // src out of range
	// Well-formed frames whose record targets a node past n, or a node
	// that worker 3 owns, in a frame addressed to worker 2.
	for _, node := range []uint32{decodeNodes, 1 << 31, 751} {
		forged := freshBoxes(4)
		forged[0][2] = []fuzzMsg{{node, 1}}
		f.Add(encodeFrames(fuzzCodec, forged, 0, 2, 2, 4))
	}
	route := New(4).Router(decodeNodes)
	f.Fuzz(func(t *testing.T, blob []byte) {
		boxes := freshBoxes(4)
		err := decodeFrames(fuzzCodec, route, blob, boxes, 0, 2, 2, 4)
		total := 0
		for src := range boxes {
			for dst := range boxes[src] {
				n := len(boxes[src][dst])
				total += n
				if n > 0 && (src >= 2 || dst < 2) {
					t.Fatalf("decoder wrote %d records into out-of-range box %d→%d", n, src, dst)
				}
				for _, m := range boxes[src][dst] {
					if m.node >= decodeNodes || route.Owner(m.node) != dst {
						t.Fatalf("decoder accepted node %d into box %d→%d", m.node, src, dst)
					}
				}
			}
		}
		// Whether or not decoding errored, the records materialized can
		// never exceed what the input bytes could physically encode.
		if max := len(blob) / fuzzCodec.MinSize; total > max {
			t.Fatalf("decoded %d records from %d bytes (max %d): length-prefix lie honored (err=%v)",
				total, len(blob), max, err)
		}
	})
}
