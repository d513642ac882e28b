// Delta frames (".gdd" payloads stored in the same blob tier as ".gds"
// snapshots) are the dynamic half of the dataset layer: a versioned,
// checksummed, content-addressed record of edge insertions and removals
// against some predecessor graph. A dataset's identity becomes a
// lineage — one base snapshot plus an ordered chain of delta frames —
// and its head SHA is defined as the payload SHA-256 of the fully
// materialized CSR, i.e. exactly what WriteSnapshot of the materialized
// graph would produce. That definition is what keeps fleet cache keys
// content-addressed and node-independent across appends, and what lets
// compaction fold a chain into a fresh snapshot without changing the
// dataset's address.
//
// Frame layout (all little-endian, not page-padded — deltas are small):
//
//	header (72 bytes): magic "GDD1", version, numIns, numRem,
//	                   payload SHA-256, fileBytes, CRC-32 of the header
//	numIns insertion records: u uint32, v uint32, w float64 (16 bytes)
//	numRem removal records:   u uint32, v uint32 (8 bytes)
//
// The content address is the SHA-256 of numIns‖numRem plus the raw
// record bytes, mirroring the snapshot payload-hash convention. The
// decoder is hardened against length-prefix lies: declared counts must
// reconcile exactly with the input size before any count-proportional
// allocation happens, so a hostile header cannot make a node allocate
// more than a small multiple of the bytes it was actually handed.
package dataset

import (
	"bufio"
	"cmp"
	"compress/gzip"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"graphdiam/internal/graph"
)

const (
	deltaMagic   = 0x31444447 // "GDD1", little-endian
	deltaVersion = 1

	// Delta header field offsets; the CRC covers [0, dCRCOff).
	dMagicOff       = 0
	dVersionOff     = 4
	dNumInsOff      = 8
	dNumRemOff      = 16
	dSHAOff         = 24
	dFileBytesOff   = 56
	dCRCOff         = 64
	deltaHeaderSize = 72

	insRecBytes = 16 // u, v, w
	remRecBytes = 8  // u, v
)

// DeltaIns is one edge insertion. Inserting an edge that exists keeps the
// lower weight; removing it in the same frame replaces its weight — see
// ApplyEdgeDelta.
type DeltaIns struct {
	U, V graph.NodeID
	W    float64
}

// DeltaRem is one edge removal. Removing an absent edge is a no-op.
type DeltaRem struct {
	U, V graph.NodeID
}

// EdgeDelta is a decoded delta frame: the ordered insertion and removal
// records applied on top of a predecessor graph.
type EdgeDelta struct {
	Ins []DeltaIns
	Rem []DeltaRem
}

// DeltaHeader is the decoded frame header: record counts, the frame's
// size, and its content address.
type DeltaHeader struct {
	NumIns     int
	NumRem     int
	FileBytes  int64
	PayloadSHA [32]byte
}

// SHAHex returns the frame's content address as lowercase hex.
func (h DeltaHeader) SHAHex() string { return hex.EncodeToString(h.PayloadSHA[:]) }

// validateDelta rejects records the graph model cannot hold: non-positive
// or non-finite insertion weights (the paper's model requires positive
// finite weights) and self-loop insertions.
func validateDelta(d *EdgeDelta) error {
	for i, in := range d.Ins {
		if in.W <= 0 || math.IsInf(in.W, 0) || math.IsNaN(in.W) {
			return fmt.Errorf("dataset: delta insertion %d: invalid weight %v on edge (%d,%d)", i, in.W, in.U, in.V)
		}
		if in.U == in.V {
			return fmt.Errorf("dataset: delta insertion %d: self-loop on node %d", i, in.U)
		}
	}
	for i, rm := range d.Rem {
		if rm.U == rm.V {
			return fmt.Errorf("dataset: delta removal %d: self-loop on node %d", i, rm.U)
		}
	}
	return nil
}

// deltaRecordBytes renders the record region (the hashed payload after
// the count prefix).
func deltaRecordBytes(d *EdgeDelta) []byte {
	raw := make([]byte, insRecBytes*len(d.Ins)+remRecBytes*len(d.Rem))
	le := binary.LittleEndian
	o := 0
	for _, in := range d.Ins {
		le.PutUint32(raw[o:], uint32(in.U))
		le.PutUint32(raw[o+4:], uint32(in.V))
		le.PutUint64(raw[o+8:], math.Float64bits(in.W))
		o += insRecBytes
	}
	for _, rm := range d.Rem {
		le.PutUint32(raw[o:], uint32(rm.U))
		le.PutUint32(raw[o+4:], uint32(rm.V))
		o += remRecBytes
	}
	return raw
}

// EncodeDeltaFrame renders d as a GDD1 frame and returns the bytes and
// the decoded header (including the frame's content address).
func EncodeDeltaFrame(d *EdgeDelta) ([]byte, DeltaHeader, error) {
	if err := validateDelta(d); err != nil {
		return nil, DeltaHeader{}, err
	}
	recs := deltaRecordBytes(d)
	h := DeltaHeader{
		NumIns:    len(d.Ins),
		NumRem:    len(d.Rem),
		FileBytes: int64(deltaHeaderSize + len(recs)),
	}
	sum := payloadHash(h.NumIns, h.NumRem)
	sum.Write(recs)
	sum.Sum(h.PayloadSHA[:0])

	buf := make([]byte, deltaHeaderSize+len(recs))
	le := binary.LittleEndian
	le.PutUint32(buf[dMagicOff:], deltaMagic)
	le.PutUint32(buf[dVersionOff:], deltaVersion)
	le.PutUint64(buf[dNumInsOff:], uint64(h.NumIns))
	le.PutUint64(buf[dNumRemOff:], uint64(h.NumRem))
	copy(buf[dSHAOff:], h.PayloadSHA[:])
	le.PutUint64(buf[dFileBytesOff:], uint64(h.FileBytes))
	le.PutUint32(buf[dCRCOff:], crc32.ChecksumIEEE(buf[:dCRCOff]))
	copy(buf[deltaHeaderSize:], recs)
	return buf, h, nil
}

// decodeDeltaHeader parses a frame header and reconciles the declared
// counts with the actual input size before anything count-proportional
// is allocated — the length-prefix-lie guard.
func decodeDeltaHeader(buf []byte, actualSize int64) (DeltaHeader, error) {
	var h DeltaHeader
	if len(buf) < deltaHeaderSize {
		return h, fmt.Errorf("dataset: short delta header: %d bytes", len(buf))
	}
	le := binary.LittleEndian
	if m := le.Uint32(buf[dMagicOff:]); m != deltaMagic {
		return h, fmt.Errorf("dataset: bad magic %#x (not a delta frame)", m)
	}
	if v := le.Uint32(buf[dVersionOff:]); v != deltaVersion {
		return h, fmt.Errorf("dataset: unsupported delta frame version %d", v)
	}
	if got, want := crc32.ChecksumIEEE(buf[:dCRCOff]), le.Uint32(buf[dCRCOff:]); got != want {
		return h, fmt.Errorf("dataset: delta header CRC mismatch (got %#x, want %#x)", got, want)
	}
	// The tail of the header is reserved padding outside both the CRC and
	// the payload hash; requiring zeros keeps the encoding canonical — no
	// two byte-distinct frames decode to the same content address.
	for _, b := range buf[dCRCOff+4 : deltaHeaderSize] {
		if b != 0 {
			return h, fmt.Errorf("dataset: nonzero reserved bytes in delta header")
		}
	}
	ins := le.Uint64(buf[dNumInsOff:])
	rem := le.Uint64(buf[dNumRemOff:])
	if ins > 1<<40 || rem > 1<<40 {
		return h, fmt.Errorf("dataset: implausible delta shape ins=%d rem=%d", ins, rem)
	}
	h.NumIns, h.NumRem = int(ins), int(rem)
	h.FileBytes = int64(le.Uint64(buf[dFileBytesOff:]))
	want := int64(deltaHeaderSize) + insRecBytes*int64(ins) + remRecBytes*int64(rem)
	if h.FileBytes != want {
		return h, fmt.Errorf("dataset: delta header declares %d bytes, records need %d", h.FileBytes, want)
	}
	if actualSize >= 0 && actualSize != want {
		return h, fmt.Errorf("dataset: delta frame is %d bytes, header declares %d (truncated?)", actualSize, want)
	}
	copy(h.PayloadSHA[:], buf[dSHAOff:dSHAOff+32])
	return h, nil
}

// DecodeDeltaFrame parses and fully verifies a GDD1 frame: header CRC,
// count/size reconciliation, payload re-hash against the content
// address, and record validity. A frame that decodes is a frame whose
// bytes are exactly what its address claims.
func DecodeDeltaFrame(buf []byte) (*EdgeDelta, DeltaHeader, error) {
	h, err := decodeDeltaHeader(buf, int64(len(buf)))
	if err != nil {
		return nil, DeltaHeader{}, err
	}
	recs := buf[deltaHeaderSize:]
	sum := payloadHash(h.NumIns, h.NumRem)
	sum.Write(recs)
	var got [32]byte
	sum.Sum(got[:0])
	if got != h.PayloadSHA {
		return nil, DeltaHeader{}, fmt.Errorf("dataset: delta payload SHA-256 mismatch (corrupt frame)")
	}
	d := &EdgeDelta{
		Ins: make([]DeltaIns, h.NumIns),
		Rem: make([]DeltaRem, h.NumRem),
	}
	le := binary.LittleEndian
	o := 0
	for i := range d.Ins {
		d.Ins[i] = DeltaIns{
			U: graph.NodeID(le.Uint32(recs[o:])),
			V: graph.NodeID(le.Uint32(recs[o+4:])),
			W: math.Float64frombits(le.Uint64(recs[o+8:])),
		}
		o += insRecBytes
	}
	for i := range d.Rem {
		d.Rem[i] = DeltaRem{
			U: graph.NodeID(le.Uint32(recs[o:])),
			V: graph.NodeID(le.Uint32(recs[o+4:])),
		}
		o += remRecBytes
	}
	if err := validateDelta(d); err != nil {
		return nil, DeltaHeader{}, err
	}
	return d, h, nil
}

// maxDeltaFileBytes bounds how much of a delta blob a node will read
// into memory: far above any chain the compaction policy allows, far
// below anything that could hurt.
const maxDeltaFileBytes = 1 << 30

// WriteDeltaFrame writes d to path as a GDD1 frame, fsync'd, and
// returns the header. Like WriteSnapshot, crash-atomic naming is the
// caller's job.
func WriteDeltaFrame(path string, d *EdgeDelta) (DeltaHeader, error) {
	buf, h, err := EncodeDeltaFrame(d)
	if err != nil {
		return DeltaHeader{}, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return DeltaHeader{}, err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return DeltaHeader{}, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return DeltaHeader{}, err
	}
	return h, f.Close()
}

// LoadDeltaFrame reads and fully verifies the frame at path.
func LoadDeltaFrame(path string) (*EdgeDelta, DeltaHeader, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, DeltaHeader{}, err
	}
	if st.Size() > maxDeltaFileBytes {
		return nil, DeltaHeader{}, fmt.Errorf("dataset: delta frame %s is %d bytes (limit %d)", path, st.Size(), maxDeltaFileBytes)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, DeltaHeader{}, err
	}
	d, h, err := DecodeDeltaFrame(buf)
	if err != nil {
		return nil, DeltaHeader{}, fmt.Errorf("dataset: %s: %w", path, err)
	}
	return d, h, nil
}

// verifyDeltaFile is the delta-frame counterpart of verifyAddress: it
// fully decodes (and therefore re-hashes) the frame without applying it.
func verifyDeltaFile(path string) (DeltaHeader, error) {
	_, h, err := LoadDeltaFrame(path)
	return h, err
}

// DecodeDeltaStream parses the text delta format from r, transparently
// gunzipping (sniffed, trailer CRC honored via the reader). One record
// per line:
//
//	insert:  "+ u v w"  — insert (or reweight) undirected edge {u,v} with weight w
//	remove:  "- u v"    — remove undirected edge {u,v} (absent edges are ignored)
//
// '#' starts a comment; blank lines are skipped. Malformed input returns
// a BadInputError so the server can answer 400 rather than 500, exactly
// like the ingest decoders.
func DecodeDeltaStream(r io.Reader) (*EdgeDelta, error) {
	br := bufio.NewReaderSize(r, sniffLen)
	head, _ := br.Peek(2)
	var src io.Reader = br
	var zr *gzip.Reader
	if isGzipMagic(head) {
		var err error
		zr, err = gzip.NewReader(br)
		if err != nil {
			return nil, badInput(fmt.Errorf("gzip: %v", err))
		}
		src = zr
	}
	d := &EdgeDelta{}
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		switch f[0] {
		case "+":
			if len(f) != 4 {
				return nil, badInput(fmt.Errorf("delta line %d: want '+ u v w', got %q", lineNo, line))
			}
			u, err1 := strconv.ParseUint(f[1], 10, 32)
			v, err2 := strconv.ParseUint(f[2], 10, 32)
			w, err3 := strconv.ParseFloat(f[3], 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, badInput(fmt.Errorf("delta line %d: unparsable record %q", lineNo, line))
			}
			d.Ins = append(d.Ins, DeltaIns{U: graph.NodeID(u), V: graph.NodeID(v), W: w})
		case "-":
			if len(f) != 3 {
				return nil, badInput(fmt.Errorf("delta line %d: want '- u v', got %q", lineNo, line))
			}
			u, err1 := strconv.ParseUint(f[1], 10, 32)
			v, err2 := strconv.ParseUint(f[2], 10, 32)
			if err1 != nil || err2 != nil {
				return nil, badInput(fmt.Errorf("delta line %d: unparsable record %q", lineNo, line))
			}
			d.Rem = append(d.Rem, DeltaRem{U: graph.NodeID(u), V: graph.NodeID(v)})
		default:
			return nil, badInput(fmt.Errorf("delta line %d: want '+' or '-', got %q", lineNo, line))
		}
	}
	if err := sc.Err(); err != nil {
		// %w keeps typed reader errors (notably http.MaxBytesError)
		// visible through the BadInputError so the server classifies an
		// over-cap body as 413, not 400 — exactly like ingest.
		return nil, badInput(fmt.Errorf("read delta: %w", err))
	}
	if zr != nil {
		if err := zr.Close(); err != nil {
			return nil, badInput(fmt.Errorf("gzip: %v", err))
		}
	}
	if err := validateDelta(d); err != nil {
		return nil, &BadInputError{Err: err}
	}
	return d, nil
}

// ApplyEdgeDelta materializes one delta step: the result is exactly the
// graph a one-shot ingest of the merged edge list would build, where
// merged = (edges of g minus the removed pairs) followed by the
// insertion records. Removals apply before insertions, so a pair that is
// both removed and inserted ends up with the inserted weight — the
// reweight idiom. Insertions of an already-present pair keep the minimum
// weight, the Builder's parallel-edge rule, matching static ingest.
// Node count grows to cover the largest inserted endpoint; removals
// never shrink it.
//
// It is the one-frame case of the chain merge materializeLineage runs:
// the delta's p distinct pairs are sorted once and merged row by row
// into g's already sorted CSR, O(n + m + p log p). The result is
// heap-backed and never aliases g.
func ApplyEdgeDelta(g *graph.Graph, d *EdgeDelta) (*graph.Graph, error) {
	if err := validateDelta(d); err != nil {
		return nil, err
	}
	var p edgePatch
	p.fold(d)
	return p.apply(g)
}

// patchKind is the net effect of a folded delta chain on one node pair,
// relative to the graph the chain starts from.
type patchKind uint8

const (
	patchMin    patchKind = iota // the lower of the base weight (if any) and w
	patchSet                     // w, whatever the base holds
	patchDelete                  // absent
)

type patchOp struct {
	kind patchKind
	w    float64
}

// edgePatch is a delta chain folded into one net change per pair, so a
// whole chain applies to its base in a single merge. The zero value is
// the empty chain.
type edgePatch struct {
	ops map[uint64]patchOp // keyed by pairKey
	n   int                // 1 + the largest inserted endpoint
}

// fold appends one frame to the chain. Within the frame removals come
// first, then insertions: a removal makes the pair absent, and an
// insertion lowers the pair's weight — or sets it, when the chain so far
// has removed the pair. This is exactly ApplyEdgeDelta's per-frame rule,
// composed.
func (p *edgePatch) fold(d *EdgeDelta) {
	if p.ops == nil {
		p.ops = make(map[uint64]patchOp, len(d.Ins)+len(d.Rem))
	}
	for _, rm := range d.Rem {
		p.ops[pairKey(rm.U, rm.V)] = patchOp{kind: patchDelete}
	}
	for _, in := range d.Ins {
		k := pairKey(in.U, in.V)
		op, ok := p.ops[k]
		switch {
		case !ok:
			op = patchOp{kind: patchMin, w: in.W}
		case op.kind == patchDelete:
			op = patchOp{kind: patchSet, w: in.W}
		case in.W < op.w:
			op.w = in.W
		}
		p.ops[k] = op
		p.n = max(p.n, int(in.U)+1, int(in.V)+1)
	}
}

// apply merges the patch into g: it expands the patch to both directions,
// sorts those entries by (row, target), then walks the rows, copying
// unpatched runs of g's CSR in bulk and merging each patched row's base
// adjacency (already sorted by target) with its entries. The arrays are
// fresh heap memory, so the result outlives a mapped g.
func (p *edgePatch) apply(g *graph.Graph) (*graph.Graph, error) {
	bOff, bT, bW := g.RawCSR()
	baseN := g.NumNodes()
	n := max(baseN, p.n)

	type entry struct {
		key uint64 // row<<32 | target
		op  patchOp
	}
	ents := make([]entry, 0, 2*len(p.ops))
	inserted := 0
	for k, op := range p.ops {
		u, v := k>>32, k&math.MaxUint32 // u < v
		if op.kind == patchDelete && int(v) >= baseN {
			continue // g cannot hold the pair: nothing to remove
		}
		if op.kind != patchDelete {
			inserted += 2
		}
		ents = append(ents, entry{u<<32 | v, op}, entry{v<<32 | u, op})
	}
	slices.SortFunc(ents, func(a, b entry) int { return cmp.Compare(a.key, b.key) })

	baseOff := func(u int) int64 { return bOff[min(u, baseN)] }
	offsets := make([]int64, n+1)
	targets := make([]graph.NodeID, 0, len(bT)+inserted)
	weights := make([]float64, 0, len(bT)+inserted)
	for u, i := 0, 0; ; u++ {
		next := n
		if i < len(ents) {
			next = int(ents[i].key >> 32)
		}
		// Rows [u, next) carry no patch: copy their slots and shift offsets.
		lo, hi := baseOff(u), baseOff(next)
		shift := int64(len(targets)) - lo
		targets = append(targets, bT[lo:hi]...)
		weights = append(weights, bW[lo:hi]...)
		for ; u < next; u++ {
			offsets[u+1] = baseOff(u+1) + shift
		}
		if i == len(ents) {
			break
		}
		// Row u is patched: merge its base adjacency with its entries.
		bi, bEnd := baseOff(u), baseOff(u+1)
		for ; i < len(ents) && int(ents[i].key>>32) == u; i++ {
			t, op := graph.NodeID(ents[i].key), ents[i].op
			for bi < bEnd && bT[bi] < t {
				targets, weights = append(targets, bT[bi]), append(weights, bW[bi])
				bi++
			}
			w := op.w
			if bi < bEnd && bT[bi] == t {
				if op.kind == patchMin && bW[bi] < w {
					w = bW[bi]
				}
				bi++
			}
			if op.kind != patchDelete {
				targets, weights = append(targets, t), append(weights, w)
			}
		}
		targets = append(targets, bT[bi:bEnd]...)
		weights = append(weights, bW[bi:bEnd]...)
		offsets[u+1] = int64(len(targets))
	}
	return graph.FromCSR(offsets, targets, weights, graph.ComputeStats(offsets, targets, weights))
}

// pairKey packs an unordered node pair into one comparable key.
func pairKey(u, v graph.NodeID) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// materializedHeader computes the snapshot header a WriteSnapshot of g
// would produce — shape, stats, file size, and above all the payload
// SHA-256 — without writing any bytes. It is how a lineage's head
// address is defined: append computes it to name the new head, Load
// computes it to cross-check a materialization, and compaction's
// written snapshot must hash to exactly this address.
func materializedHeader(g *graph.Graph) Header {
	offsets, targets, weights := g.RawCSR()
	n, m := g.NumNodes(), g.NumEdges()
	sum := payloadHash(n, m)
	if hostLittleEndian {
		sum.Write(int64Bytes(offsets))
		sum.Write(nodeIDBytes(targets))
		sum.Write(float64Bytes(weights))
	} else {
		var b8 [8]byte
		for _, v := range offsets {
			binary.LittleEndian.PutUint64(b8[:], uint64(v))
			sum.Write(b8[:])
		}
		var b4 [4]byte
		for _, v := range targets {
			binary.LittleEndian.PutUint32(b4[:], uint32(v))
			sum.Write(b4[:])
		}
		for _, v := range weights {
			binary.LittleEndian.PutUint64(b8[:], math.Float64bits(v))
			sum.Write(b8[:])
		}
	}
	h := Header{NumNodes: n, NumEdges: m, Stats: g.Stats(), FileBytes: layoutFor(n, m).fileBytes}
	sum.Sum(h.PayloadSHA[:0])
	return h
}
