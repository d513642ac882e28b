package dataset

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lineageCatalog opens a catalog with background compaction disabled so
// tests observe chains exactly as their appends left them.
func lineageCatalog(t *testing.T, dir string, opts Options) *Catalog {
	t.Helper()
	opts.CompactAfter = -1
	c, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// growDelta inserts one fresh edge into a mesh-shaped base — guaranteed
// to change the head.
func growDelta() *EdgeDelta {
	return &EdgeDelta{Ins: []DeltaIns{{U: 0, V: 63, W: 0.25}}}
}

func snapshotFiles(t *testing.T, dir string) map[string]bool {
	t.Helper()
	des, err := os.ReadDir(filepath.Join(dir, snapshotsDir))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, de := range des {
		out[de.Name()] = true
	}
	return out
}

func TestAppendMovesHeadAndGrowsChain(t *testing.T) {
	dir := t.TempDir()
	c := lineageCatalog(t, dir, Options{})
	g := mustGen(t, "mesh:8", 1)
	base, err := c.IngestGraph("m", g, FormatBinary, "seed")
	if err != nil {
		t.Fatal(err)
	}

	res, err := c.AppendDelta("m", growDelta(), "first append")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Applied {
		t.Fatal("growing append reported no-op")
	}
	if res.PrevSHA != base.SHA256 {
		t.Fatalf("PrevSHA %s, want base %s", res.PrevSHA, base.SHA256)
	}
	in := res.Info
	if in.SHA256 == base.SHA256 {
		t.Fatal("head did not move")
	}
	if in.ChainLen() != 1 || in.BaseSHA256 != base.SHA256 {
		t.Fatalf("lineage %+v, want chain=1 on base %s", in, ShortSHA(base.SHA256))
	}
	if in.NumEdges != base.NumEdges+1 {
		t.Fatalf("materialized edges %d, want %d", in.NumEdges, base.NumEdges+1)
	}
	if in.Bytes <= base.Bytes {
		t.Fatalf("lineage bytes %d not larger than base %d", in.Bytes, base.Bytes)
	}

	// The materialization is the delta applied to the base, and its
	// address is the recorded head.
	ld, err := c.Load("m")
	if err != nil {
		t.Fatal(err)
	}
	if ld.Header.SHAHex() != in.SHA256 {
		t.Fatalf("loaded head %s != recorded %s", ld.Header.SHAHex(), in.SHA256)
	}
	want, err := ApplyEdgeDelta(g, growDelta())
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, want, ld.Graph)

	// A second delta stacks.
	res2, err := c.AppendDelta("m", &EdgeDelta{Rem: []DeltaRem{{U: 0, V: 63}}}, "undo")
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Applied || res2.Info.ChainLen() != 2 {
		t.Fatalf("second append %+v, want applied with chain=2", res2.Info)
	}
	// Removing the inserted edge restores the base graph — and therefore
	// the base address: head identity is content, not history.
	if res2.Info.SHA256 != base.SHA256 {
		t.Fatalf("round-trip head %s, want base %s", res2.Info.SHA256, base.SHA256)
	}
}

// TestAppendReleasesSupersededHead pins that a stream of appends keeps
// one heap materialization per dataset: each append forgets the head it
// replaced, while the mapped base snapshot stays until Close.
func TestAppendReleasesSupersededHead(t *testing.T) {
	c := lineageCatalog(t, t.TempDir(), Options{})
	base, err := c.IngestGraph("m", mustGen(t, "mesh:8", 1), FormatBinary, "")
	if err != nil {
		t.Fatal(err)
	}
	baseLd, err := c.Load("m")
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.AppendDelta("m", growDelta(), "")
	if err != nil {
		t.Fatal(err)
	}
	held, err := c.Load("m")
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.AppendDelta("m", &EdgeDelta{Ins: []DeltaIns{{U: 2, V: 61, W: 0.5}}}, "")
	if err != nil {
		t.Fatal(err)
	}

	c.mu.Lock()
	_, keptFirst := c.mapped[first.Info.SHA256]
	_, keptSecond := c.mapped[second.Info.SHA256]
	keptBase := c.mapped[base.SHA256] == baseLd
	c.mu.Unlock()
	if keptFirst {
		t.Fatal("superseded head still cached after the next append")
	}
	if !keptSecond {
		t.Fatal("current head not cached after append")
	}
	if baseLd.Mmapped && !keptBase {
		t.Fatal("mapped base snapshot released before Close")
	}
	// A graph handed out before the head moved stays usable.
	if held.Graph.NumEdges() != first.Info.NumEdges {
		t.Fatalf("held graph has %d edges, want %d", held.Graph.NumEdges(), first.Info.NumEdges)
	}
}

func TestAppendNoOpKeepsHeadAndStoresNothing(t *testing.T) {
	dir := t.TempDir()
	c := lineageCatalog(t, dir, Options{})
	base, err := c.IngestGraph("m", mustGen(t, "mesh:8", 1), FormatBinary, "")
	if err != nil {
		t.Fatal(err)
	}
	before := snapshotFiles(t, dir)

	// Removing absent edges changes nothing.
	res, err := c.AppendDelta("m", &EdgeDelta{Rem: []DeltaRem{{U: 0, V: 63}}}, "noop")
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied {
		t.Fatal("no-op append reported applied")
	}
	if res.Info.SHA256 != base.SHA256 || res.Info.ChainLen() != 0 {
		t.Fatalf("no-op moved the entry: %+v", res.Info)
	}
	after := snapshotFiles(t, dir)
	if len(after) != len(before) {
		t.Fatalf("no-op append stored a blob: %v -> %v", before, after)
	}
}

// TestAppendNeverMutatesExistingBlobs is the acceptance-criteria pin:
// the base snapshot's bytes on disk are identical before and after
// appends, and every prior delta frame survives a further append.
func TestAppendNeverMutatesExistingBlobs(t *testing.T) {
	dir := t.TempDir()
	c := lineageCatalog(t, dir, Options{})
	base, err := c.IngestGraph("m", mustGen(t, "mesh:8", 1), FormatBinary, "")
	if err != nil {
		t.Fatal(err)
	}
	basePath := filepath.Join(dir, snapshotsDir, base.SHA256+snapExt)
	baseBytes, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}

	res1, err := c.AppendDelta("m", growDelta(), "")
	if err != nil {
		t.Fatal(err)
	}
	d1 := res1.Info.Deltas[0].SHA256
	d1Bytes, err := os.ReadFile(filepath.Join(dir, snapshotsDir, d1+snapExt))
	if err != nil {
		t.Fatalf("delta frame not in blob tier: %v", err)
	}

	if _, err := c.AppendDelta("m", &EdgeDelta{Ins: []DeltaIns{{U: 1, V: 62, W: 2}}}, ""); err != nil {
		t.Fatal(err)
	}

	nowBase, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatalf("base blob gone after appends: %v", err)
	}
	if !bytes.Equal(nowBase, baseBytes) {
		t.Fatal("append mutated the base snapshot's bytes")
	}
	nowD1, err := os.ReadFile(filepath.Join(dir, snapshotsDir, d1+snapExt))
	if err != nil {
		t.Fatalf("first delta frame gone after second append: %v", err)
	}
	if !bytes.Equal(nowD1, d1Bytes) {
		t.Fatal("append mutated an earlier delta frame")
	}
}

func TestLineageSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, Options{CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	g := mustGen(t, "mesh:8", 1)
	if _, err := c.IngestGraph("m", g, FormatBinary, ""); err != nil {
		t.Fatal(err)
	}
	res, err := c.AppendDelta("m", growDelta(), "survives")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := lineageCatalog(t, dir, Options{})
	in, err := c2.Info("m")
	if err != nil {
		t.Fatalf("lineage entry lost across restart: %v", err)
	}
	if in.SHA256 != res.Info.SHA256 || in.ChainLen() != 1 || in.Source != "survives" {
		t.Fatalf("restarted entry %+v, want head %s chain 1", in, ShortSHA(res.Info.SHA256))
	}
	// Materialization replays base + chain from disk (nothing is mapped).
	ld, err := c2.Load("m")
	if err != nil {
		t.Fatalf("materialize after restart: %v", err)
	}
	want, err := ApplyEdgeDelta(g, growDelta())
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, want, ld.Graph)
}

func TestLineageRemoveDropsUnreferencedBlobs(t *testing.T) {
	dir := t.TempDir()
	c := lineageCatalog(t, dir, Options{})
	if _, err := c.IngestGraph("m", mustGen(t, "mesh:8", 1), FormatBinary, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AppendDelta("m", growDelta(), ""); err != nil {
		t.Fatal(err)
	}
	if got := len(snapshotFiles(t, dir)); got != 2 {
		t.Fatalf("%d blobs before removal, want 2 (base + delta)", got)
	}
	if err := c.Remove("m"); err != nil {
		t.Fatal(err)
	}
	if got := snapshotFiles(t, dir); len(got) != 0 {
		t.Fatalf("blobs survived removal of their only referrer: %v", got)
	}
}

func TestReferencesBlobCoversLineage(t *testing.T) {
	c := lineageCatalog(t, t.TempDir(), Options{})
	base, err := c.IngestGraph("m", mustGen(t, "mesh:8", 1), FormatBinary, "")
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.AppendDelta("m", growDelta(), "")
	if err != nil {
		t.Fatal(err)
	}
	// The base of a live lineage is load-bearing: a blob-tier DELETE is
	// refused (409 through BlobServer) as long as this returns true.
	if !c.ReferencesBlob(base.SHA256) {
		t.Fatal("base of a live lineage not reported as referenced")
	}
	if !c.ReferencesBlob(res.Info.Deltas[0].SHA256) {
		t.Fatal("delta frame of a live lineage not reported as referenced")
	}
	if c.ReferencesBlob(strings.Repeat("ab", 32)) {
		t.Fatal("random address reported as referenced")
	}
}

func TestCompactFoldsChainAndPreservesHead(t *testing.T) {
	dir := t.TempDir()
	c := lineageCatalog(t, dir, Options{})
	g := mustGen(t, "mesh:8", 1)
	if _, err := c.IngestGraph("m", g, FormatBinary, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AppendDelta("m", growDelta(), ""); err != nil {
		t.Fatal(err)
	}
	res, err := c.AppendDelta("m", &EdgeDelta{Ins: []DeltaIns{{U: 2, V: 61, W: 0.5}}}, "")
	if err != nil {
		t.Fatal(err)
	}
	head := res.Info.SHA256

	in, compacted, err := c.Compact("m")
	if err != nil {
		t.Fatal(err)
	}
	if !compacted {
		t.Fatal("two-delta chain reported nothing to compact")
	}
	if in.SHA256 != head {
		t.Fatalf("compaction moved the head: %s -> %s", ShortSHA(head), ShortSHA(in.SHA256))
	}
	if in.ChainLen() != 0 || in.BaseSHA256 != "" {
		t.Fatalf("compacted entry still carries a chain: %+v", in)
	}
	// Exactly one blob remains: the fresh snapshot, stored at the head's
	// own address (identity preserved down to the file name).
	files := snapshotFiles(t, dir)
	if len(files) != 1 || !files[head+snapExt] {
		t.Fatalf("post-compaction blobs %v, want only %s", files, head+snapExt)
	}
	// And it verifies + materializes identically to the chain.
	if _, err := c.Verify("m"); err != nil {
		t.Fatalf("compacted snapshot fails verification: %v", err)
	}
	ld, err := c.Load("m")
	if err != nil {
		t.Fatal(err)
	}
	if ld.Header.SHAHex() != head {
		t.Fatalf("compacted load head %s, want %s", ld.Header.SHAHex(), head)
	}

	// Compacting a chain-free dataset is a no-op, not an error.
	if _, again, err := c.Compact("m"); err != nil || again {
		t.Fatalf("second compact: compacted=%v err=%v, want no-op", again, err)
	}
}

func TestBackgroundCompactionKicksInPastThreshold(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, Options{CompactAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if _, err := c.IngestGraph("m", mustGen(t, "mesh:8", 1), FormatBinary, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AppendDelta("m", growDelta(), ""); err != nil {
		t.Fatal(err)
	}
	res, err := c.AppendDelta("m", &EdgeDelta{Ins: []DeltaIns{{U: 2, V: 61, W: 0.5}}}, "")
	if err != nil {
		t.Fatal(err)
	}
	c.compactWG.Wait()
	in, err := c.Info("m")
	if err != nil {
		t.Fatal(err)
	}
	if in.ChainLen() != 0 {
		t.Fatalf("chain length %d after threshold append, want background compaction to 0", in.ChainLen())
	}
	if in.SHA256 != res.Info.SHA256 {
		t.Fatalf("background compaction moved the head: %s -> %s", res.Info.SHA256, in.SHA256)
	}
}

func TestAppendBudgetMustFitWholeLineage(t *testing.T) {
	// Learn the base snapshot size first.
	probe := lineageCatalog(t, t.TempDir(), Options{})
	pin, err := probe.IngestGraph("p", mustGen(t, "mesh:8", 1), FormatBinary, "")
	if err != nil {
		t.Fatal(err)
	}

	c := lineageCatalog(t, t.TempDir(), Options{ByteBudget: pin.Bytes})
	if _, err := c.IngestGraph("m", mustGen(t, "mesh:8", 1), FormatBinary, ""); err != nil {
		t.Fatal(err)
	}
	// The grown lineage would exceed the budget, and an append must not
	// evict its own dataset to make room — refuse outright.
	if _, err := c.AppendDelta("m", growDelta(), ""); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("over-budget append err = %v, want ErrBudgetExceeded", err)
	}
	// The failed append left no trace.
	in, err := c.Info("m")
	if err != nil {
		t.Fatal(err)
	}
	if in.ChainLen() != 0 || in.Bytes != pin.Bytes {
		t.Fatalf("failed append left residue: %+v", in)
	}
}

func TestAppendErrorClassification(t *testing.T) {
	c := lineageCatalog(t, t.TempDir(), Options{})
	if _, err := c.AppendDelta("ghost", growDelta(), ""); !errors.Is(err, ErrNotFound) {
		t.Fatalf("append to missing dataset: %v, want ErrNotFound", err)
	}
	var bi *BadInputError
	if _, err := c.AppendDelta("..evil", growDelta(), ""); !errors.As(err, &bi) {
		t.Fatalf("append with bad name: %v, want BadInputError", err)
	}
	if _, err := c.IngestGraph("m", mustGen(t, "mesh:4", 1), FormatBinary, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AppendDelta("m", &EdgeDelta{Ins: []DeltaIns{{U: 1, V: 1, W: 1}}}, ""); !errors.As(err, &bi) {
		t.Fatalf("self-loop delta: %v, want BadInputError", err)
	}
}

// TestVerifyNamesCorruptDeltaFrame flips one record byte of the second
// frame of a chain on disk: Verify must fail and say which link rotted.
func TestVerifyNamesCorruptDeltaFrame(t *testing.T) {
	dir := t.TempDir()
	c := lineageCatalog(t, dir, Options{})
	if _, err := c.IngestGraph("m", mustGen(t, "mesh:8", 1), FormatBinary, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AppendDelta("m", growDelta(), ""); err != nil {
		t.Fatal(err)
	}
	res, err := c.AppendDelta("m", &EdgeDelta{Ins: []DeltaIns{{U: 2, V: 61, W: 0.5}}}, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Verify("m"); err != nil {
		t.Fatalf("healthy lineage fails verification: %v", err)
	}

	path := filepath.Join(dir, snapshotsDir, res.Info.Deltas[1].SHA256+snapExt)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[deltaHeaderSize] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = c.Verify("m")
	if err == nil {
		t.Fatal("lineage with a corrupt frame verifies")
	}
	if !strings.Contains(err.Error(), "delta 1 of \"m\"") {
		t.Fatalf("verify error %q does not name delta 1", err)
	}
}

// TestSweepQuarantinesCorruptDeltaFrame extends the integrity sweeper's
// contract to the dynamic half of the blob tier: a bit-rotted delta
// frame quarantines the lineage that depends on it, and healthy
// siblings keep serving.
func TestSweepQuarantinesCorruptDeltaFrame(t *testing.T) {
	dir := t.TempDir()
	c := lineageCatalog(t, dir, Options{})
	if _, err := c.IngestGraph("dyn", mustGen(t, "mesh:8", 1), FormatBinary, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.IngestGraph("static", mustGen(t, "mesh:9", 1), FormatBinary, ""); err != nil {
		t.Fatal(err)
	}
	res, err := c.AppendDelta("dyn", growDelta(), "")
	if err != nil {
		t.Fatal(err)
	}
	dsha := res.Info.Deltas[0].SHA256

	// Flip one record byte in the delta frame on disk.
	path := filepath.Join(dir, snapshotsDir, dsha+snapExt)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	failures := 0
	for _, sr := range c.SweepOnce() {
		if !sr.OK && !sr.Skipped {
			failures++
			if sr.SHA256 != dsha {
				t.Fatalf("sweep condemned %s, want the corrupt delta %s", sr.SHA256, dsha)
			}
		}
	}
	if failures != 1 {
		t.Fatalf("sweep found %d failures, want 1", failures)
	}
	if _, err := c.Info("dyn"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("lineage with corrupt frame still cataloged: %v", err)
	}
	if _, err := c.Load("static"); err != nil {
		t.Fatalf("healthy sibling lost: %v", err)
	}
}
