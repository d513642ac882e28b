// Package dataset is graphdiam's persistence layer: a content-addressed
// catalog of graph snapshots that survive process restarts and load in
// O(1) time via mmap.
//
// A snapshot (".gds") is the CSR representation of a graph.Graph written
// verbatim: a 4 KiB header page followed by the offset, target, and weight
// arrays, each page-aligned and little-endian. Because the on-disk layout
// is the in-memory layout, loading is a single mmap plus three slice
// casts and one branch-free structural sweep — no parsing, no allocation
// proportional to the graph, and the summary statistics cached at Build
// time ride along in the header so nothing is recomputed. On platforms
// without mmap (or big-endian hosts) the same API transparently falls
// back to io.ReadFull into heap slices.
//
// Snapshots are immutable and content-addressed: the SHA-256 of the
// logical payload (node/edge counts plus the three arrays) both names the
// file in a Catalog and detects corruption. The header carries a CRC-32 of
// itself for O(1) sanity checks at load time; VerifySnapshot re-hashes the
// payload and deep-checks the CSR invariants for offline auditing.
package dataset

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
	"unsafe"

	"graphdiam/internal/graph"
)

const (
	snapMagic   = 0x31534447 // "GDS1", little-endian
	snapVersion = 1
	pageSize    = 4096 // section alignment; also the header page size

	// Header field offsets. The header occupies the first page; bytes
	// beyond crcOff+4 are zero padding.
	magicOff      = 0
	versionOff    = 4
	numNodesOff   = 8
	numEdgesOff   = 16
	minWeightOff  = 24
	maxWeightOff  = 32
	avgWeightOff  = 40
	maxDegreeOff  = 48
	offsetsOffOff = 56
	targetsOffOff = 64
	weightsOffOff = 72
	fileBytesOff  = 80
	shaOff        = 88
	crcOff        = 120 // CRC-32 (IEEE) of header bytes [0, crcOff)
)

// hostLittleEndian reports whether the running CPU is little-endian; the
// zero-copy paths require it (the format itself is always little-endian).
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Header is the decoded snapshot header: the graph's shape, its cached
// statistics, and the content address.
type Header struct {
	NumNodes   int
	NumEdges   int
	Stats      graph.Stats
	FileBytes  int64
	PayloadSHA [32]byte
}

// SHAHex returns the content address as lowercase hex — the string form
// used in catalog manifests and snapshot file names.
func (h Header) SHAHex() string { return hex.EncodeToString(h.PayloadSHA[:]) }

// layout is the derived section placement for a graph of shape (n, m).
type layout struct {
	offsetsOff, offsetsLen int64 // 8*(n+1) bytes
	targetsOff, targetsLen int64 // 4*2m bytes
	weightsOff, weightsLen int64 // 8*2m bytes
	fileBytes              int64
}

// pageAlign rounds up to the next multiple of pageSize.
func pageAlign(v int64) int64 { return (v + pageSize - 1) &^ (pageSize - 1) }

func layoutFor(n, m int) layout {
	var l layout
	l.offsetsOff = pageSize
	l.offsetsLen = 8 * int64(n+1)
	l.targetsOff = pageAlign(l.offsetsOff + l.offsetsLen)
	l.targetsLen = 4 * 2 * int64(m)
	l.weightsOff = pageAlign(l.targetsOff + l.targetsLen)
	l.weightsLen = 8 * 2 * int64(m)
	l.fileBytes = l.weightsOff + l.weightsLen
	return l
}

// encodeHeader renders h into a header page. The section placement is
// always derived from (n, m), so it is encoded rather than trusted twice.
func encodeHeader(h Header) []byte {
	l := layoutFor(h.NumNodes, h.NumEdges)
	buf := make([]byte, pageSize)
	le := binary.LittleEndian
	le.PutUint32(buf[magicOff:], snapMagic)
	le.PutUint32(buf[versionOff:], snapVersion)
	le.PutUint64(buf[numNodesOff:], uint64(h.NumNodes))
	le.PutUint64(buf[numEdgesOff:], uint64(h.NumEdges))
	le.PutUint64(buf[minWeightOff:], math.Float64bits(h.Stats.MinWeight))
	le.PutUint64(buf[maxWeightOff:], math.Float64bits(h.Stats.MaxWeight))
	le.PutUint64(buf[avgWeightOff:], math.Float64bits(h.Stats.AvgWeight))
	le.PutUint64(buf[maxDegreeOff:], uint64(h.Stats.MaxDegree))
	le.PutUint64(buf[offsetsOffOff:], uint64(l.offsetsOff))
	le.PutUint64(buf[targetsOffOff:], uint64(l.targetsOff))
	le.PutUint64(buf[weightsOffOff:], uint64(l.weightsOff))
	le.PutUint64(buf[fileBytesOff:], uint64(l.fileBytes))
	copy(buf[shaOff:], h.PayloadSHA[:])
	le.PutUint32(buf[crcOff:], crc32.ChecksumIEEE(buf[:crcOff]))
	return buf
}

// decodeHeader parses and sanity-checks a header page against the actual
// file size. Every check here is O(1); a header that passes cannot make
// the loader index outside the file or allocate absurdly.
func decodeHeader(buf []byte, fileSize int64) (Header, layout, error) {
	var h Header
	if len(buf) < pageSize {
		return h, layout{}, fmt.Errorf("dataset: short header: %d bytes", len(buf))
	}
	le := binary.LittleEndian
	if m := le.Uint32(buf[magicOff:]); m != snapMagic {
		return h, layout{}, fmt.Errorf("dataset: bad magic %#x (not a .gds snapshot)", m)
	}
	if v := le.Uint32(buf[versionOff:]); v != snapVersion {
		return h, layout{}, fmt.Errorf("dataset: unsupported snapshot version %d", v)
	}
	if got, want := crc32.ChecksumIEEE(buf[:crcOff]), le.Uint32(buf[crcOff:]); got != want {
		return h, layout{}, fmt.Errorf("dataset: header CRC mismatch (got %#x, want %#x)", got, want)
	}
	n := le.Uint64(buf[numNodesOff:])
	m := le.Uint64(buf[numEdgesOff:])
	if n > 1<<32 || m > 1<<40 {
		return h, layout{}, fmt.Errorf("dataset: implausible shape n=%d m=%d", n, m)
	}
	h.NumNodes, h.NumEdges = int(n), int(m)
	h.Stats = graph.Stats{
		NumNodes:  h.NumNodes,
		NumEdges:  h.NumEdges,
		MinWeight: math.Float64frombits(le.Uint64(buf[minWeightOff:])),
		MaxWeight: math.Float64frombits(le.Uint64(buf[maxWeightOff:])),
		AvgWeight: math.Float64frombits(le.Uint64(buf[avgWeightOff:])),
		MaxDegree: int(le.Uint64(buf[maxDegreeOff:])),
	}
	copy(h.PayloadSHA[:], buf[shaOff:shaOff+32])
	h.FileBytes = int64(le.Uint64(buf[fileBytesOff:]))

	l := layoutFor(h.NumNodes, h.NumEdges)
	if int64(le.Uint64(buf[offsetsOffOff:])) != l.offsetsOff ||
		int64(le.Uint64(buf[targetsOffOff:])) != l.targetsOff ||
		int64(le.Uint64(buf[weightsOffOff:])) != l.weightsOff ||
		h.FileBytes != l.fileBytes {
		return h, layout{}, fmt.Errorf("dataset: header sections disagree with shape n=%d m=%d", n, m)
	}
	if fileSize >= 0 && fileSize != l.fileBytes {
		return h, layout{}, fmt.Errorf("dataset: file is %d bytes, header declares %d (truncated?)", fileSize, l.fileBytes)
	}
	return h, l, nil
}

// int64Bytes, nodeIDBytes, and float64Bytes view typed slices as raw bytes
// without copying. Valid only on little-endian hosts (the format's byte
// order); big-endian hosts take the per-element conversion paths.
func int64Bytes(s []int64) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 8*len(s))
}

func nodeIDBytes(s []graph.NodeID) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 4*len(s))
}

func float64Bytes(s []float64) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 8*len(s))
}

// bytesToInt64 and friends are the inverse views over an mmap region. b
// must be 8- (resp. 4-) byte aligned, which page-aligned sections of a
// page-aligned mapping guarantee.
func bytesToInt64(b []byte, n int) []int64 {
	if n == 0 {
		return []int64{}
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), n)
}

func bytesToNodeID(b []byte, n int) []graph.NodeID {
	if n == 0 {
		return []graph.NodeID{}
	}
	return unsafe.Slice((*graph.NodeID)(unsafe.Pointer(&b[0])), n)
}

func bytesToFloat64(b []byte, n int) []float64 {
	if n == 0 {
		return []float64{}
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
}

// payloadHash hashes the logical payload prefix (the shape); section bytes
// are streamed in by the writer/verifier.
func payloadHash(n, m int) hash.Hash {
	h := sha256.New()
	var pre [16]byte
	binary.LittleEndian.PutUint64(pre[0:], uint64(n))
	binary.LittleEndian.PutUint64(pre[8:], uint64(m))
	h.Write(pre[:])
	return h
}

// writeSection writes one typed array to w (also feeding sum) and pads to
// the next page boundary (padding is not hashed — it is not payload).
func writeSection(w *bufio.Writer, sum hash.Hash, raw []byte, end int64) error {
	if _, err := w.Write(raw); err != nil {
		return err
	}
	sum.Write(raw)
	pad := pageAlign(end) - end
	for i := int64(0); i < pad; i++ {
		if err := w.WriteByte(0); err != nil {
			return err
		}
	}
	return nil
}

// WriteSnapshot writes g to path in .gds form, fsyncs it, and returns the
// decoded header (including the content address). The file is written
// through a tmp-free single pass: payload first (hashing as it streams),
// then the header page via WriteAt. Callers that need crash-atomicity
// write to a temporary name and rename — that is the Catalog's job.
func WriteSnapshot(path string, g *graph.Graph) (Header, error) {
	offsets, targets, weights := g.RawCSR()
	n, m := g.NumNodes(), g.NumEdges()
	l := layoutFor(n, m)

	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return Header{}, err
	}
	defer f.Close()

	if _, err := f.Seek(pageSize, io.SeekStart); err != nil {
		return Header{}, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	sum := payloadHash(n, m)

	var offRaw, tgtRaw, wtRaw []byte
	if hostLittleEndian {
		offRaw, tgtRaw, wtRaw = int64Bytes(offsets), nodeIDBytes(targets), float64Bytes(weights)
	} else {
		offRaw = make([]byte, l.offsetsLen)
		for i, v := range offsets {
			binary.LittleEndian.PutUint64(offRaw[8*i:], uint64(v))
		}
		tgtRaw = make([]byte, l.targetsLen)
		for i, v := range targets {
			binary.LittleEndian.PutUint32(tgtRaw[4*i:], uint32(v))
		}
		wtRaw = make([]byte, l.weightsLen)
		for i, v := range weights {
			binary.LittleEndian.PutUint64(wtRaw[8*i:], math.Float64bits(v))
		}
	}
	if err := writeSection(bw, sum, offRaw, l.offsetsOff+l.offsetsLen); err != nil {
		return Header{}, err
	}
	if err := writeSection(bw, sum, tgtRaw, l.targetsOff+l.targetsLen); err != nil {
		return Header{}, err
	}
	if _, err := bw.Write(wtRaw); err != nil { // last section: no pad
		return Header{}, err
	}
	sum.Write(wtRaw)
	if err := bw.Flush(); err != nil {
		return Header{}, err
	}

	h := Header{NumNodes: n, NumEdges: m, Stats: g.Stats(), FileBytes: l.fileBytes}
	sum.Sum(h.PayloadSHA[:0])
	if _, err := f.WriteAt(encodeHeader(h), 0); err != nil {
		return Header{}, err
	}
	if err := f.Sync(); err != nil {
		return Header{}, err
	}
	return h, f.Close()
}

// Loaded is an open snapshot: the graph plus the resources backing it.
// When Mmapped, the graph's arrays alias the mapping — the graph must not
// be used after Close. Fallback loads own their memory and Close is a
// no-op for them.
type Loaded struct {
	Graph   *graph.Graph
	Header  Header
	Mmapped bool
	mapped  []byte
}

// Close releases the mapping (if any). The caller must guarantee the
// graph is no longer referenced.
func (l *Loaded) Close() error {
	b := l.mapped
	l.mapped = nil
	return munmapFile(b)
}

// LoadSnapshot opens path, preferring the zero-copy mmap path and falling
// back to io.ReadFull when the platform (or CPU byte order) rules mmap
// out. Loading validates the header (CRC, shape-derived bounds, file
// size) in O(1), then runs one linear structural sweep — offset
// monotonicity and target-ID range — with no parsing, branching per
// format, or allocation: the sweep is memory-bandwidth-bound
// (single-digit ms per hundred MB, still orders of magnitude under a
// re-parse) and is what guarantees a corrupt payload can never panic a
// compute goroutine: every adjacency slice stays inside the mapping and
// every target indexes inside [0, n). Weight values and the exact edge
// content are deliberately not inspected; corruption there yields wrong
// numbers, not crashes, and VerifySnapshot (payload SHA-256 + deep CSR
// checks) exists to audit for it.
func LoadSnapshot(path string) (*Loaded, error) {
	return loadSnapshot(path, false)
}

// checkStructure is the load-path safety sweep. Offset monotonicity
// (FromCSR already pins offsets[0] and the final entry) makes every
// Neighbors slice well-formed; the target range check makes every
// neighbor ID a valid index for n-sized algorithm state.
func checkStructure(offsets []int64, targets []graph.NodeID, n int) error {
	prev := int64(0)
	for u, o := range offsets {
		if o < prev {
			return fmt.Errorf("offset table not monotone at node %d (corrupt payload)", u)
		}
		prev = o
	}
	limit := graph.NodeID(n)
	for i, v := range targets {
		if v >= limit {
			return fmt.Errorf("target %d at slot %d out of range n=%d (corrupt payload)", v, i, n)
		}
	}
	return nil
}

func loadSnapshot(path string, forceFallback bool) (*Loaded, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	hdrBuf := make([]byte, pageSize)
	if _, err := io.ReadFull(f, hdrBuf); err != nil {
		return nil, fmt.Errorf("dataset: %s: short header: %w", path, err)
	}
	h, l, err := decodeHeader(hdrBuf, st.Size())
	if err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", path, err)
	}

	if !forceFallback && mmapSupported && hostLittleEndian {
		mapped, err := mmapFile(f, l.fileBytes)
		if err == nil {
			offsets := bytesToInt64(mapped[l.offsetsOff:], h.NumNodes+1)
			targets := bytesToNodeID(mapped[l.targetsOff:], 2*h.NumEdges)
			g, err := graph.FromCSR(
				offsets,
				targets,
				bytesToFloat64(mapped[l.weightsOff:], 2*h.NumEdges),
				h.Stats,
			)
			if err == nil {
				err = checkStructure(offsets, targets, h.NumNodes)
			}
			if err != nil {
				munmapFile(mapped)
				return nil, fmt.Errorf("dataset: %s: %w", path, err)
			}
			return &Loaded{Graph: g, Header: h, Mmapped: true, mapped: mapped}, nil
		}
		// fall through to the portable path
	}

	offsets := make([]int64, h.NumNodes+1)
	targets := make([]graph.NodeID, 2*h.NumEdges)
	weights := make([]float64, 2*h.NumEdges)
	read := func(off int64, dst []byte) error {
		_, err := f.ReadAt(dst, off)
		return err
	}
	if hostLittleEndian {
		err = read(l.offsetsOff, int64Bytes(offsets))
		if err == nil {
			err = read(l.targetsOff, nodeIDBytes(targets))
		}
		if err == nil {
			err = read(l.weightsOff, float64Bytes(weights))
		}
	} else {
		err = readConverted(f, l, offsets, targets, weights)
	}
	if err != nil {
		return nil, fmt.Errorf("dataset: %s: read payload: %w", path, err)
	}
	g, err := graph.FromCSR(offsets, targets, weights, h.Stats)
	if err == nil {
		err = checkStructure(offsets, targets, h.NumNodes)
	}
	if err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", path, err)
	}
	return &Loaded{Graph: g, Header: h}, nil
}

// readConverted is the big-endian-host fallback: read raw little-endian
// sections and convert per element.
func readConverted(f *os.File, l layout, offsets []int64, targets []graph.NodeID, weights []float64) error {
	raw := make([]byte, l.offsetsLen)
	if _, err := f.ReadAt(raw, l.offsetsOff); err != nil {
		return err
	}
	for i := range offsets {
		offsets[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	raw = make([]byte, l.targetsLen)
	if _, err := f.ReadAt(raw, l.targetsOff); err != nil {
		return err
	}
	for i := range targets {
		targets[i] = graph.NodeID(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	raw = make([]byte, l.weightsLen)
	if _, err := f.ReadAt(raw, l.weightsOff); err != nil {
		return err
	}
	for i := range weights {
		weights[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return nil
}

// verifyAddress checks that path is a structurally sane snapshot file
// whose payload re-hashes to the content address stored in its header:
// the integrity core shared by VerifySnapshot, remote fetch admission,
// and blob-server upload admission. It does not load the graph.
func verifyAddress(path string) (Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return Header{}, err
	}
	hdrBuf := make([]byte, pageSize)
	if _, err := io.ReadFull(f, hdrBuf); err != nil {
		return Header{}, fmt.Errorf("dataset: %s: short header: %w", path, err)
	}
	h, l, err := decodeHeader(hdrBuf, st.Size())
	if err != nil {
		return Header{}, fmt.Errorf("dataset: %s: %w", path, err)
	}
	sum := payloadHash(h.NumNodes, h.NumEdges)
	for _, sec := range []struct{ off, n int64 }{
		{l.offsetsOff, l.offsetsLen}, {l.targetsOff, l.targetsLen}, {l.weightsOff, l.weightsLen},
	} {
		if _, err := f.Seek(sec.off, io.SeekStart); err != nil {
			return Header{}, err
		}
		if _, err := io.CopyN(sum, f, sec.n); err != nil {
			return Header{}, fmt.Errorf("dataset: %s: hash payload: %w", path, err)
		}
	}
	var got [32]byte
	sum.Sum(got[:0])
	if got != h.PayloadSHA {
		return Header{}, fmt.Errorf("dataset: %s: payload SHA-256 mismatch (corrupt snapshot)", path)
	}
	return h, nil
}

// VerifySnapshot deep-checks path: header sanity, payload SHA-256 against
// the stored content address, CSR structural invariants, and the cached
// statistics against a recomputation. It is the offline audit used by
// `dataset verify`, the background integrity sweeper, and catalog
// quarantine decisions on suspect files.
func VerifySnapshot(path string) (Header, error) {
	h, err := verifyAddress(path)
	if err != nil {
		return Header{}, err
	}

	ld, err := loadSnapshot(path, false)
	if err != nil {
		return Header{}, err
	}
	defer ld.Close()
	if err := ld.Graph.ValidateCSR(); err != nil {
		return Header{}, fmt.Errorf("dataset: %s: %w", path, err)
	}
	if got := graph.ComputeStats(ld.Graph.RawCSR()); got != h.Stats {
		return Header{}, fmt.Errorf("dataset: %s: cached stats %+v disagree with recomputation %+v", path, h.Stats, got)
	}
	return h, nil
}
