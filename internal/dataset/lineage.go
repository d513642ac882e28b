package dataset

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Lineage operations on the catalog: append a delta frame to a
// dataset's chain, materialize a chain into a graph, and compact a
// chain back into a single snapshot. The invariants:
//
//   - Appending never mutates any existing blob. The base snapshot and
//     every earlier delta frame keep their bytes and their addresses;
//     an append only publishes one new frame blob and republishes the
//     manifest. Old lineage heads therefore remain content-addressable
//     (re-materializable from the prefix of the chain) until their
//     blobs are garbage-collected.
//   - The head address is derived, not stored: SHA-256 of the
//     materialized CSR payload, byte-identical to what a one-shot
//     ingest of the merged edge list would produce. An append that
//     changes nothing (removals of absent edges, re-insertions at the
//     same weight) keeps the head — and is committed as a no-op with
//     no new blob, so caches fleet-wide stay warm for free.
//   - Compaction writes the materialized graph as a fresh .gds
//     snapshot. By the head definition that snapshot's content address
//     IS the current head, so compaction changes which blobs store the
//     dataset without changing its identity; result caches and fleet
//     cache keys survive untouched.

// ErrHeadMoved reports an append or compaction that lost a race with a
// concurrent re-ingest of the same name: the entry's head changed
// between materialization and commit, so the operation was abandoned.
var ErrHeadMoved = errors.New("dataset: head moved concurrently")

// AppendResult reports one append: the entry after the operation, the
// head it was applied on top of, and what the delta did.
type AppendResult struct {
	Info    Info
	PrevSHA string
	// Applied is false for a no-op append (head unchanged): nothing was
	// stored and the chain did not grow.
	Applied  bool
	Ins, Rem int
}

// AppendDelta applies d on top of the named dataset's current head and
// commits the grown lineage: the delta frame is published as a
// content-addressed blob, the manifest entry's head/shape/chain are
// updated atomically, and the materialized result is cached so the
// first query against the new head pays nothing. The name resolves
// through the blob backend (Resolve), so appending on a fleet member
// that has not ingested the base adopts it first.
//
// Past the compaction thresholds the append also kicks off a background
// compaction; the head is unaffected either way.
func (c *Catalog) AppendDelta(name string, d *EdgeDelta, source string) (AppendResult, error) {
	if !nameRE.MatchString(name) {
		return AppendResult{}, &BadInputError{Err: fmt.Errorf("dataset: invalid name %q (want %s)", name, nameRE)}
	}
	if err := validateDelta(d); err != nil {
		return AppendResult{}, &BadInputError{Err: err}
	}
	c.appendMu.Lock()
	defer c.appendMu.Unlock()

	in, err := c.Resolve(name)
	if err != nil {
		return AppendResult{}, err
	}
	prev := in.SHA256

	// Materialize the current head (cached across appends by content
	// address) and apply the delta.
	ld, err := c.Load(name)
	if err != nil {
		return AppendResult{}, err
	}
	if ld.Header.SHAHex() != prev {
		return AppendResult{}, ErrHeadMoved // re-ingest raced the Resolve
	}
	newG, err := ApplyEdgeDelta(ld.Graph, d)
	if err != nil {
		return AppendResult{}, &BadInputError{Err: err}
	}
	newH := materializedHeader(newG)
	newHead := newH.SHAHex()

	res := AppendResult{
		PrevSHA: prev,
		Ins:     len(d.Ins),
		Rem:     len(d.Rem),
	}
	if newHead == prev {
		// No-op append: identity unchanged, nothing stored, chain kept.
		res.Info = in
		return res, nil
	}

	// Publish the frame blob before the manifest references it, exactly
	// like IngestGraph publishes snapshots (crash leaves an orphan the
	// next Open garbage-collects).
	tmp := filepath.Join(c.dir, fmt.Sprintf(".ingest-%d-%d-%s.delta", os.Getpid(), tmpSeq.Add(1), name))
	dh, err := WriteDeltaFrame(tmp, d)
	if err != nil {
		os.Remove(tmp)
		return AppendResult{}, err
	}
	if c.opts.ByteBudget > 0 && in.Bytes+dh.FileBytes > c.opts.ByteBudget {
		// The grown lineage must fit whole: unlike ingest, an append
		// cannot evict its own dataset to make room for itself.
		os.Remove(tmp)
		return AppendResult{}, fmt.Errorf("%w: lineage of %q needs %d bytes after append, budget is %d",
			ErrBudgetExceeded, name, in.Bytes+dh.FileBytes, c.opts.ByteBudget)
	}
	dsha := dh.SHAHex()
	c.mu.Lock()
	c.publishing[dsha]++
	c.mu.Unlock()
	err = putBlobFile(c.blobs, dsha, tmp)

	c.mu.Lock()
	defer c.mu.Unlock()
	c.publishing[dsha]--
	if c.publishing[dsha] <= 0 {
		delete(c.publishing, dsha)
	}
	if err != nil {
		os.Remove(tmp)
		return AppendResult{}, err
	}

	cur, ok := c.entries[name]
	if !ok || cur.SHA256 != prev {
		// A concurrent Remove or re-ingest moved the head under us
		// (appends themselves are serialized by appendMu). Abandon; the
		// published frame is orphaned and collected at the next Open.
		c.removeBlobIfUnreferencedLocked(dsha)
		return AppendResult{}, ErrHeadMoved
	}

	baseBytes := cur.Bytes
	if len(cur.Deltas) > 0 {
		baseBytes = cur.BaseBytes
	}
	nowT := c.now()
	next := &Info{
		Name:       name,
		SHA256:     newHead,
		Bytes:      cur.Bytes + dh.FileBytes,
		NumNodes:   newH.NumNodes,
		NumEdges:   newH.NumEdges,
		Format:     cur.Format,
		Source:     source,
		CreatedAt:  cur.CreatedAt,
		LastUsedAt: nowT,
		BaseSHA256: cur.base(),
		BaseBytes:  baseBytes,
		Deltas: append(append([]DeltaRef{}, cur.Deltas...),
			DeltaRef{SHA256: dsha, Bytes: dh.FileBytes, Ins: dh.NumIns, Rem: dh.NumRem}),
	}
	c.entries[name] = next
	// Cache the materialization under the new head so the store's
	// fault-in after invalidation reuses this exact graph.
	if _, exists := c.mapped[newHead]; !exists {
		c.mapped[newHead] = &Loaded{Graph: newG, Header: newH}
	}
	c.releaseHeadLocked(prev)
	c.evictLocked(name)
	if err := c.saveManifestLocked(); err != nil {
		return AppendResult{}, err
	}
	res.Info = *next
	res.Applied = true
	c.opts.Metrics.appended(name, len(next.Deltas))
	c.maybeCompactLocked(next)
	return res, nil
}

// releaseHeadLocked forgets a superseded head's materialization when it
// is heap memory and no name heads there any more, so a stream of
// appends keeps one graph per dataset instead of one per append. Runs
// still holding the graph keep it alive; a mapped snapshot stays until
// Close, since unmapping it could fault them. Caller holds c.mu.
func (c *Catalog) releaseHeadLocked(sha string) {
	ld, ok := c.mapped[sha]
	if !ok || ld.Mmapped {
		return
	}
	for _, in := range c.entries {
		if in.SHA256 == sha {
			return
		}
	}
	delete(c.mapped, sha)
}

// compactionDue applies the churn policy: chain length past
// CompactAfter, or cumulative delta records past CompactFraction of the
// materialized edge count.
func (c *Catalog) compactionDue(in *Info) bool {
	if c.opts.CompactAfter < 0 || len(in.Deltas) == 0 {
		return false
	}
	after := c.opts.CompactAfter
	if after == 0 {
		after = defaultCompactAfter
	}
	if len(in.Deltas) >= after {
		return true
	}
	frac := c.opts.CompactFraction
	if frac == 0 {
		frac = defaultCompactFraction
	}
	records := 0
	for _, ref := range in.Deltas {
		records += ref.Ins + ref.Rem
	}
	return in.NumEdges > 0 && float64(records) >= frac*float64(in.NumEdges)
}

// maybeCompactLocked starts a background compaction when the policy
// says the chain is past its churn threshold. Caller holds c.mu.
func (c *Catalog) maybeCompactLocked(in *Info) {
	if !c.compactionDue(in) || c.compacting[in.Name] {
		return
	}
	c.compacting[in.Name] = true
	name := in.Name
	c.compactWG.Add(1)
	go func() {
		defer c.compactWG.Done()
		defer func() {
			c.mu.Lock()
			delete(c.compacting, name)
			c.mu.Unlock()
		}()
		if _, compacted, err := c.Compact(name); err != nil && !errors.Is(err, ErrHeadMoved) {
			c.logf("background compaction of %q failed: %v", name, err)
		} else if compacted {
			c.logf("compacted delta chain of %q", name)
		}
	}()
}

// Compact folds the named dataset's delta chain into a fresh snapshot
// through the existing mmap-ready write path. The snapshot's content
// address equals the current head by construction, so the dataset's
// identity — and every cache keyed on it — survives; only the stored
// blobs change. The old base and delta blobs are dropped when nothing
// else references them. A chain-free dataset reports compacted=false.
func (c *Catalog) Compact(name string) (Info, bool, error) {
	c.appendMu.Lock()
	defer c.appendMu.Unlock()

	c.mu.Lock()
	cur, ok := c.entries[name]
	if !ok {
		c.mu.Unlock()
		return Info{}, false, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if len(cur.Deltas) == 0 {
		in := *cur
		c.mu.Unlock()
		return in, false, nil
	}
	old := *cur
	head := cur.SHA256
	c.mu.Unlock()

	ld, err := c.Load(name)
	if err != nil {
		return Info{}, false, err
	}
	if ld.Header.SHAHex() != head {
		return Info{}, false, ErrHeadMoved
	}

	tmp := filepath.Join(c.dir, fmt.Sprintf(".ingest-%d-%d-%s.compact", os.Getpid(), tmpSeq.Add(1), name))
	h, err := WriteSnapshot(tmp, ld.Graph)
	if err != nil {
		os.Remove(tmp)
		return Info{}, false, err
	}
	if h.SHAHex() != head {
		// Cannot happen unless the materialization and the writer
		// disagree about the payload — an internal invariant violation,
		// not an input error.
		os.Remove(tmp)
		return Info{}, false, fmt.Errorf("dataset: compaction of %q wrote %s, head is %s",
			name, ShortSHA(h.SHAHex()), ShortSHA(head))
	}
	c.mu.Lock()
	c.publishing[head]++
	c.mu.Unlock()
	err = putBlobFile(c.blobs, head, tmp)

	c.mu.Lock()
	defer c.mu.Unlock()
	c.publishing[head]--
	if c.publishing[head] <= 0 {
		delete(c.publishing, head)
	}
	if err != nil {
		os.Remove(tmp)
		return Info{}, false, err
	}
	cur, ok = c.entries[name]
	if !ok || cur.SHA256 != head {
		c.removeBlobIfUnreferencedLocked(head)
		return Info{}, false, ErrHeadMoved
	}
	next := &Info{
		Name:       name,
		SHA256:     head,
		Bytes:      h.FileBytes,
		NumNodes:   h.NumNodes,
		NumEdges:   h.NumEdges,
		Format:     cur.Format,
		Source:     cur.Source,
		CreatedAt:  cur.CreatedAt,
		LastUsedAt: c.now(),
	}
	c.entries[name] = next
	for _, br := range old.blobRefs() {
		c.removeBlobIfUnreferencedLocked(br.sha)
	}
	if err := c.saveManifestLocked(); err != nil {
		return Info{}, false, err
	}
	c.opts.Metrics.compacted(name)
	return *next, true, nil
}

// materializeLineage decodes and verifies every delta frame of the
// chain — each must re-hash to its chain address — and folds them, in
// order, into one net change per node pair (the per-frame rule of
// ApplyEdgeDelta, composed). It then loads the base snapshot and merges
// that patch into the base CSR in one sorted-row pass: O(n + m + p log p)
// for p patched pairs, however long the chain. The result's content
// address must equal the entry's recorded head. The caller owns the
// returned Loaded (heap-backed; Close is a no-op) unless it registers it
// in c.mapped.
func (c *Catalog) materializeLineage(in *Info) (*Loaded, error) {
	var p edgePatch
	for i, ref := range in.Deltas {
		dpath, err := c.blobs.Fetch(ref.SHA256)
		if err != nil {
			return nil, err
		}
		d, dh, err := LoadDeltaFrame(dpath)
		if err != nil {
			return nil, fmt.Errorf("dataset: delta %d of %q: %w", i, in.Name, err)
		}
		if dh.SHAHex() != ref.SHA256 {
			return nil, fmt.Errorf("dataset: delta %d of %q hashes to %s, chain records %s",
				i, in.Name, ShortSHA(dh.SHAHex()), ShortSHA(ref.SHA256))
		}
		p.fold(d)
	}
	basePath, err := c.blobs.Fetch(in.base())
	if err != nil {
		return nil, err
	}
	base, err := LoadSnapshot(basePath)
	if err != nil {
		return nil, err
	}
	g, err := p.apply(base.Graph)
	// The merge copied everything out of the mapping; release it.
	base.Close()
	if err != nil {
		return nil, err
	}
	h := materializedHeader(g)
	if h.SHAHex() != in.SHA256 {
		return nil, fmt.Errorf("dataset: lineage of %q materializes to %s, manifest records head %s (corrupt chain)",
			in.Name, ShortSHA(h.SHAHex()), ShortSHA(in.SHA256))
	}
	return &Loaded{Graph: g, Header: h}, nil
}
