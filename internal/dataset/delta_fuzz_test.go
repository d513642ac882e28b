package dataset

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"graphdiam/internal/graph"
)

// FuzzDeltaFrameDecode hammers the binary frame decoder with mutated
// inputs. The properties under test:
//
//   - no panic, no count-proportional allocation from a length-prefix
//     lie (the harness's memory limit would kill us);
//   - any frame that decodes re-encodes to byte-identical input — the
//     codec admits exactly its own canonical serialization, so a decoded
//     frame's content address always matches its bytes.
func FuzzDeltaFrameDecode(f *testing.F) {
	valid, _, err := EncodeDeltaFrame(sampleDelta())
	if err != nil {
		f.Fatal(err)
	}
	empty, _, err := EncodeDeltaFrame(&EdgeDelta{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(empty)
	f.Add(valid[:deltaHeaderSize])
	f.Add([]byte{})
	// A header lying about its record counts, CRC fixed up so the lie —
	// not the checksum — is what the decoder must catch.
	lie := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(lie[dNumInsOff:], 1<<38)
	binary.LittleEndian.PutUint32(lie[dCRCOff:], crc32.ChecksumIEEE(lie[:dCRCOff]))
	f.Add(lie)

	f.Fuzz(func(t *testing.T, data []byte) {
		d, h, err := DecodeDeltaFrame(data)
		if err != nil {
			return
		}
		if len(d.Ins) != h.NumIns || len(d.Rem) != h.NumRem {
			t.Fatalf("decoded shape (+%d -%d) disagrees with header (+%d -%d)",
				len(d.Ins), len(d.Rem), h.NumIns, h.NumRem)
		}
		re, rh, err := EncodeDeltaFrame(d)
		if err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatal("accepted frame is not the canonical serialization of its records")
		}
		if rh.SHAHex() != h.SHAHex() {
			t.Fatalf("re-encoded address %s != decoded %s", rh.SHAHex(), h.SHAHex())
		}
	})
}

// FuzzApplyDeltaChain derives a small base graph and a delta chain from
// the fuzz bytes and checks the one-pass chain merge against the
// Builder replay folded frame by frame: same CSR arrays, weights
// bitwise, same Stats. Endpoints range past the base's vertex set, so
// growth and out-of-range removals are in play; weights come from a
// small set, so ties and reweights are common.
func FuzzApplyDeltaChain(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 4, 0, 1, 3, 1, 2, 3, 2, 3, 1, 3, 0, 2, 2, 1, 0, 1, 1, 4, 2, 0, 1, 1, 5})
	f.Add(bytes.Repeat([]byte{7, 3, 1, 250, 9}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		weight := func() float64 { return float64(1+next()%8) / 4 }

		n := next() % 24
		b := graph.NewBuilder(n, 0)
		for m := next() % 48; m > 0 && n > 0; m-- {
			b.AddEdge(graph.NodeID(next()%n), graph.NodeID(next()%n), weight())
		}
		base := b.Build()

		want := base
		var p edgePatch
		for frames := next() % 6; frames > 0; frames-- {
			d := &EdgeDelta{}
			for k := next() % 8; k > 0; k-- {
				u, v := graph.NodeID(next()%(n+4)), graph.NodeID(next()%(n+4))
				if u != v {
					d.Ins = append(d.Ins, DeltaIns{U: u, V: v, W: weight()})
				}
			}
			for k := next() % 8; k > 0; k-- {
				u, v := graph.NodeID(next()%(n+6)), graph.NodeID(next()%(n+6))
				if u != v {
					d.Rem = append(d.Rem, DeltaRem{U: u, V: v})
				}
			}
			var err error
			if want, err = replayReference(want, d); err != nil {
				t.Fatal(err)
			}
			p.fold(d)
		}
		got, err := p.apply(base)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.ValidateCSR(); err != nil {
			t.Fatal(err)
		}
		requireSameCSR(t, want, got)
	})
}

// FuzzDecodeDeltaStream does the same for the text/gzip ingestion face:
// arbitrary bytes must either parse into a valid delta or fail with an
// error, never panic.
func FuzzDecodeDeltaStream(f *testing.F) {
	f.Add("+ 0 7 2.5\n- 1 2\n")
	f.Add("# comment\n\n+ 1 2 0.5\n")
	f.Add("* garbage\n")
	f.Add("+ 1 1 3\n")
	f.Add("- 4294967295 0\n")
	f.Fuzz(func(t *testing.T, text string) {
		d, err := DecodeDeltaStream(strings.NewReader(text))
		if err != nil {
			return
		}
		// Whatever parsed must be encodable — the stream decoder's
		// validation is at least as strict as the frame encoder's.
		if _, _, err := EncodeDeltaFrame(d); err != nil {
			t.Fatalf("stream-accepted delta rejected by encoder: %v", err)
		}
	})
}
