package dataset

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"graphdiam/internal/graph"
)

// sampleDelta builds a non-trivial delta touching inserts, removals,
// and a reweight.
func sampleDelta() *EdgeDelta {
	return &EdgeDelta{
		Ins: []DeltaIns{
			{U: 0, V: 7, W: 2.5},
			{U: 3, V: 4, W: 1.0},
			{U: 10, V: 11, W: 0.125},
		},
		Rem: []DeltaRem{
			{U: 1, V: 2},
			{U: 5, V: 6},
		},
	}
}

func TestDeltaFrameRoundTrip(t *testing.T) {
	d := sampleDelta()
	buf, h, err := EncodeDeltaFrame(d)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumIns != 3 || h.NumRem != 2 {
		t.Fatalf("header counts (%d,%d), want (3,2)", h.NumIns, h.NumRem)
	}
	if h.FileBytes != int64(len(buf)) {
		t.Fatalf("header declares %d bytes, frame is %d", h.FileBytes, len(buf))
	}
	got, gh, err := DecodeDeltaFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if gh != h {
		t.Fatalf("decoded header %+v != encoded %+v", gh, h)
	}
	if len(got.Ins) != len(d.Ins) || len(got.Rem) != len(d.Rem) {
		t.Fatalf("decoded shape (+%d -%d)", len(got.Ins), len(got.Rem))
	}
	for i := range d.Ins {
		if got.Ins[i] != d.Ins[i] {
			t.Fatalf("insertion %d: %+v != %+v", i, got.Ins[i], d.Ins[i])
		}
	}
	for i := range d.Rem {
		if got.Rem[i] != d.Rem[i] {
			t.Fatalf("removal %d: %+v != %+v", i, got.Rem[i], d.Rem[i])
		}
	}
	// Content addressing: identical deltas encode to the same address,
	// different deltas to different ones.
	_, h2, err := EncodeDeltaFrame(sampleDelta())
	if err != nil {
		t.Fatal(err)
	}
	if h2.SHAHex() != h.SHAHex() {
		t.Fatal("identical delta got a different content address")
	}
	other := sampleDelta()
	other.Ins[0].W = 99
	_, h3, err := EncodeDeltaFrame(other)
	if err != nil {
		t.Fatal(err)
	}
	if h3.SHAHex() == h.SHAHex() {
		t.Fatal("distinct deltas share a content address")
	}
}

func TestDeltaFrameFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.gdd")
	wh, err := WriteDeltaFrame(path, sampleDelta())
	if err != nil {
		t.Fatal(err)
	}
	d, lh, err := LoadDeltaFrame(path)
	if err != nil {
		t.Fatal(err)
	}
	if lh != wh {
		t.Fatalf("loaded header %+v != written %+v", lh, wh)
	}
	if len(d.Ins) != 3 || len(d.Rem) != 2 {
		t.Fatalf("loaded shape (+%d -%d)", len(d.Ins), len(d.Rem))
	}
	if vh, err := verifyDeltaFile(path); err != nil || vh.SHAHex() != wh.SHAHex() {
		t.Fatalf("verifyDeltaFile: %v (sha %s, want %s)", err, vh.SHAHex(), wh.SHAHex())
	}
}

// TestDeltaFrameDecodeRejectsCorruption flips every class of field a
// hostile or bit-rotted frame could present.
func TestDeltaFrameDecodeRejectsCorruption(t *testing.T) {
	valid, _, err := EncodeDeltaFrame(sampleDelta())
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	// recrc fixes up the header CRC so the mutation under test — not the
	// checksum — is what the decoder trips on.
	recrc := func(b []byte) []byte {
		le.PutUint32(b[dCRCOff:], crc32.ChecksumIEEE(b[:dCRCOff]))
		return b
	}
	mutate := func(fn func(b []byte) []byte) []byte {
		b := append([]byte(nil), valid...)
		return fn(b)
	}
	cases := map[string][]byte{
		"short header": valid[:deltaHeaderSize-1],
		"bad magic": mutate(func(b []byte) []byte {
			le.PutUint32(b[dMagicOff:], 0xdeadbeef)
			return recrc(b)
		}),
		"bad version": mutate(func(b []byte) []byte {
			le.PutUint32(b[dVersionOff:], 42)
			return recrc(b)
		}),
		"bad crc": mutate(func(b []byte) []byte {
			b[dCRCOff] ^= 0xff
			return b
		}),
		// The length-prefix lie: counts claim terabytes of records while
		// handing over a few dozen bytes. Must be rejected before any
		// count-proportional allocation.
		"length-prefix lie": mutate(func(b []byte) []byte {
			le.PutUint64(b[dNumInsOff:], 1<<39)
			return recrc(b)
		}),
		"count/size mismatch": mutate(func(b []byte) []byte {
			le.PutUint64(b[dNumRemOff:], 3) // declares one more removal than present
			return recrc(b)
		}),
		"truncated records": valid[:len(valid)-4],
		"trailing garbage":  append(append([]byte(nil), valid...), 0x00),
		"payload corruption": mutate(func(b []byte) []byte {
			b[len(b)-1] ^= 0x01 // flips a record byte; header stays valid
			return b
		}),
		"declared-bytes lie": mutate(func(b []byte) []byte {
			le.PutUint64(b[dFileBytesOff:], uint64(len(b)+8))
			return recrc(b)
		}),
	}
	for name, buf := range cases {
		if _, _, err := DecodeDeltaFrame(buf); err == nil {
			t.Errorf("%s: decoded successfully", name)
		}
	}
	// And the pristine frame still decodes (the mutate helper copied).
	if _, _, err := DecodeDeltaFrame(valid); err != nil {
		t.Fatalf("valid frame rejected after mutation tests: %v", err)
	}
}

func TestEncodeDeltaFrameRejectsInvalidRecords(t *testing.T) {
	cases := map[string]*EdgeDelta{
		"zero weight":     {Ins: []DeltaIns{{U: 0, V: 1, W: 0}}},
		"negative weight": {Ins: []DeltaIns{{U: 0, V: 1, W: -1}}},
		"NaN weight":      {Ins: []DeltaIns{{U: 0, V: 1, W: math.NaN()}}},
		"Inf weight":      {Ins: []DeltaIns{{U: 0, V: 1, W: math.Inf(1)}}},
		"self-loop ins":   {Ins: []DeltaIns{{U: 2, V: 2, W: 1}}},
		"self-loop rem":   {Rem: []DeltaRem{{U: 2, V: 2}}},
	}
	for name, d := range cases {
		if _, _, err := EncodeDeltaFrame(d); err == nil {
			t.Errorf("%s: encoded successfully", name)
		}
	}
}

func TestDecodeDeltaStreamText(t *testing.T) {
	text := "# a comment\n\n+ 0 7 2.5\n- 1 2\n  + 3 4 1.0  \n# trailing comment\n- 5 6\n"
	d, err := DecodeDeltaStream(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Ins) != 2 || len(d.Rem) != 2 {
		t.Fatalf("decoded shape (+%d -%d), want (+2 -2)", len(d.Ins), len(d.Rem))
	}
	if d.Ins[0] != (DeltaIns{U: 0, V: 7, W: 2.5}) || d.Rem[1] != (DeltaRem{U: 5, V: 6}) {
		t.Fatalf("decoded records %+v / %+v", d.Ins, d.Rem)
	}

	// The same text gzip-wrapped decodes identically (sniffed).
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte(text))
	zw.Close()
	dz, err := DecodeDeltaStream(bytes.NewReader(gz.Bytes()))
	if err != nil {
		t.Fatalf("gzipped stream: %v", err)
	}
	if len(dz.Ins) != 2 || len(dz.Rem) != 2 || dz.Ins[1] != d.Ins[1] {
		t.Fatalf("gzip decode diverged: %+v", dz)
	}
}

func TestDecodeDeltaStreamRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"unknown verb":     "* 1 2 3\n",
		"short insert":     "+ 1 2\n",
		"long removal":     "- 1 2 3\n",
		"unparsable node":  "+ x 2 1.0\n",
		"unparsable wt":    "+ 1 2 heavy\n",
		"negative weight":  "+ 1 2 -3\n",
		"self-loop insert": "+ 4 4 1\n",
	}
	for name, text := range cases {
		_, err := DecodeDeltaStream(strings.NewReader(text))
		var bi *BadInputError
		if !errors.As(err, &bi) {
			t.Errorf("%s: err = %v, want BadInputError", name, err)
		}
	}
	// A gzip stream with a corrupted trailer is the client's fault too.
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte("+ 1 2 3\n"))
	zw.Close()
	corrupt := gz.Bytes()
	corrupt[len(corrupt)-5] ^= 0x01
	var bi *BadInputError
	if _, err := DecodeDeltaStream(bytes.NewReader(corrupt)); !errors.As(err, &bi) {
		t.Errorf("corrupt gzip trailer: err = %v, want BadInputError", err)
	}
}

func TestApplyEdgeDeltaSemantics(t *testing.T) {
	// Base: path 0-1-2-3 with distinct weights.
	b := graph.NewBuilder(4, 3)
	b.AddEdge(0, 1, 1.0)
	b.AddEdge(1, 2, 2.0)
	b.AddEdge(2, 3, 3.0)
	g := b.Build()

	// Remove an absent edge: graph unchanged bit for bit.
	same, err := ApplyEdgeDelta(g, &EdgeDelta{Rem: []DeltaRem{{U: 0, V: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if materializedHeader(same).SHAHex() != materializedHeader(g).SHAHex() {
		t.Fatal("removing an absent edge changed the graph's address")
	}

	// Reweight idiom: remove {1,2} and reinsert at a new weight in one
	// delta. Removals apply first, so the inserted weight wins even
	// though the builder's parallel-edge rule keeps the minimum.
	rw, err := ApplyEdgeDelta(g, &EdgeDelta{
		Ins: []DeltaIns{{U: 1, V: 2, W: 9.0}},
		Rem: []DeltaRem{{U: 1, V: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := rw.EdgeWeight(1, 2); !ok || w != 9.0 {
		t.Fatalf("reweighted edge weight %v (present=%v), want 9", w, ok)
	}
	if rw.NumEdges() != 3 {
		t.Fatalf("reweight changed edge count to %d", rw.NumEdges())
	}

	// Inserting an edge that already exists goes through the min-weight
	// parallel-edge rule, exactly like static ingest.
	min, err := ApplyEdgeDelta(g, &EdgeDelta{Ins: []DeltaIns{{U: 1, V: 2, W: 0.5}}})
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := min.EdgeWeight(1, 2); w != 0.5 {
		t.Fatalf("min-weight rule gave %v, want 0.5", w)
	}

	// Node growth: inserting an endpoint past n extends the vertex set;
	// removals never shrink it.
	grown, err := ApplyEdgeDelta(g, &EdgeDelta{Ins: []DeltaIns{{U: 3, V: 9, W: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if grown.NumNodes() != 10 || grown.NumEdges() != 4 {
		t.Fatalf("grown shape (%d,%d), want (10,4)", grown.NumNodes(), grown.NumEdges())
	}
	shrunk, err := ApplyEdgeDelta(g, &EdgeDelta{Rem: []DeltaRem{{U: 2, V: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if shrunk.NumNodes() != 4 || shrunk.NumEdges() != 2 {
		t.Fatalf("post-removal shape (%d,%d), want (4,2)", shrunk.NumNodes(), shrunk.NumEdges())
	}
}

// TestMaterializedHeaderMatchesWriteSnapshot pins the head-address
// definition: the in-memory header must agree byte for byte with what
// WriteSnapshot puts on disk — shape, stats, size, and payload SHA.
func TestMaterializedHeaderMatchesWriteSnapshot(t *testing.T) {
	for _, spec := range []string{"mesh:9", "rmat:7", "path:5"} {
		g := mustGen(t, spec, 11)
		want := materializedHeader(g)
		path := filepath.Join(t.TempDir(), "s.gds")
		got, err := WriteSnapshot(path, g)
		if err != nil {
			t.Fatal(err)
		}
		if got.SHAHex() != want.SHAHex() {
			t.Fatalf("%s: materializedHeader sha %s, WriteSnapshot sha %s", spec, want.SHAHex(), got.SHAHex())
		}
		if got.NumNodes != want.NumNodes || got.NumEdges != want.NumEdges || got.FileBytes != want.FileBytes {
			t.Fatalf("%s: header shape mismatch: mem %+v disk %+v", spec, want, got)
		}
	}
}
