package dataset

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphdiam/internal/graph"
)

// ErrNotFound reports a lookup of an uncataloged dataset name.
var ErrNotFound = errors.New("dataset: not found")

// ErrBudgetExceeded reports an ingest whose snapshot cannot fit the
// catalog's byte budget at all. It is a capacity condition, not a client
// mistake — the server maps it to 507, not 400.
var ErrBudgetExceeded = errors.New("dataset: byte budget exceeded")

// Directory layout under the catalog root:
//
//	manifest.json        name → snapshot mapping (atomic rename + fsync)
//	snapshots/<sha>.gds  content-addressed snapshot files
//	quarantine/          corrupt files set aside by crash recovery
const (
	manifestName  = "manifest.json"
	snapshotsDir  = "snapshots"
	quarantineDir = "quarantine"
	snapExt       = ".gds"
)

// nameRE bounds dataset names to filesystem- and URL-safe tokens.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$`)

// Options tunes a Catalog. The zero value is an unbounded, silent catalog.
type Options struct {
	// ByteBudget caps the total bytes of unique snapshot files; ingests
	// that push past it evict the least recently used datasets. 0 means
	// unlimited. A single snapshot larger than the budget is rejected.
	// With a remote backend the budget governs the local cache footprint.
	ByteBudget int64
	// Log receives recovery/quarantine/eviction/sweep notices; nil
	// disables.
	Log *log.Logger
	// Blobs selects the snapshot storage tier. Nil uses the default
	// LocalStore under the catalog directory's snapshots/ subdirectory;
	// a RemoteStore makes this node serve from (and publish to) a shared
	// HTTP blob tier while keeping its manifest local.
	Blobs BlobStore
	// CompactAfter is the delta-chain length past which an append
	// triggers background compaction (fold the chain into a fresh
	// snapshot). 0 means the default (8); negative disables automatic
	// compaction (explicit Compact still works).
	CompactAfter int
	// CompactFraction triggers background compaction when the chain's
	// cumulative record count exceeds this fraction of the base graph's
	// edges, independent of chain length. 0 means the default (0.25).
	CompactFraction float64
	// Metrics receives append/compaction/chain-length telemetry; nil
	// disables.
	Metrics *CatalogMetrics
}

// defaultCompactAfter and defaultCompactFraction are the churn
// thresholds of the background compaction policy.
const (
	defaultCompactAfter    = 8
	defaultCompactFraction = 0.25
)

// DeltaRef is one link of a dataset's delta chain: the content address
// of a GDD1 frame blob plus its shape, enough for O(1) boot validation
// and per-blob budget accounting without opening the frame.
type DeltaRef struct {
	SHA256 string `json:"sha256"`
	Bytes  int64  `json:"bytes"`
	Ins    int    `json:"ins"`
	Rem    int    `json:"rem"`
}

// Info describes one cataloged dataset. Two names may share blobs;
// bytes are counted once per unique blob in budget accounting.
//
// SHA256 is the dataset's lineage head: the payload SHA-256 of the
// fully materialized CSR. For a plain snapshot (empty Deltas) that is
// also the address of the stored blob. For a lineage (base + delta
// chain) the head is a *derived* address — no blob exists under it
// until compaction folds the chain — and the stored blobs are
// BaseSHA256 plus every Deltas entry. NumNodes/NumEdges/Bytes describe
// the materialized graph and the total stored bytes respectively.
type Info struct {
	Name       string     `json:"name"`
	SHA256     string     `json:"sha256"`
	Bytes      int64      `json:"bytes"`
	NumNodes   int        `json:"numNodes"`
	NumEdges   int        `json:"numEdges"`
	Format     string     `json:"format"`
	Source     string     `json:"source"`
	CreatedAt  time.Time  `json:"createdAt"`
	LastUsedAt time.Time  `json:"lastUsedAt"`
	BaseSHA256 string     `json:"baseSha256,omitempty"`
	BaseBytes  int64      `json:"baseBytes,omitempty"`
	Deltas     []DeltaRef `json:"deltas,omitempty"`
}

// base returns the address of the dataset's base snapshot blob: the
// head itself when there is no delta chain.
func (in *Info) base() string {
	if in.BaseSHA256 != "" {
		return in.BaseSHA256
	}
	return in.SHA256
}

// ChainLen reports the delta chain length (0 for a plain snapshot).
func (in *Info) ChainLen() int { return len(in.Deltas) }

// blobRef is one stored blob an entry depends on.
type blobRef struct {
	sha   string
	bytes int64
	delta bool
}

// blobRefs enumerates the blobs this entry actually stores: the base
// snapshot and every delta frame. The head address of a non-empty chain
// is deliberately absent — it names derived content, not a blob.
func (in *Info) blobRefs() []blobRef {
	baseBytes := in.Bytes
	if len(in.Deltas) > 0 {
		baseBytes = in.BaseBytes
	}
	refs := make([]blobRef, 0, 1+len(in.Deltas))
	refs = append(refs, blobRef{sha: in.base(), bytes: baseBytes})
	for _, d := range in.Deltas {
		refs = append(refs, blobRef{sha: d.SHA256, bytes: d.Bytes, delta: true})
	}
	return refs
}

// manifest is the on-disk catalog state.
type manifest struct {
	Version int              `json:"version"`
	Entries map[string]*Info `json:"entries"`
}

// Catalog is a persistent, content-addressed collection of graph
// snapshots rooted at one directory. All methods are safe for concurrent
// use. Mutations are crash-safe: snapshot files land under a temporary
// name and are renamed into place before the manifest (itself written via
// fsync'd atomic rename) references them, so a crash at any point leaves
// either the old or the new state plus, at worst, orphan files that the
// next Open garbage-collects.
type Catalog struct {
	dir   string
	opts  Options
	blobs BlobStore

	lock *os.File // exclusive advisory lock held for the catalog's life

	mu         sync.Mutex
	entries    map[string]*Info
	mapped     map[string]*Loaded // open snapshots keyed by SHA; released at Close
	condemned  []*Loaded          // mappings the sweep disowned; released at Close
	publishing map[string]int     // blob publishes in flight, not yet manifest-referenced
	dirty      bool               // in-memory state (incl. recency) ahead of manifest.json
	now        func() time.Time

	// appendMu serializes head movement (append/compact) so two appends
	// cannot both materialize from the same predecessor and race their
	// manifest commits. Ordered before c.mu; never held across a query.
	appendMu   sync.Mutex
	compacting map[string]bool // names with a background compaction in flight
	compactWG  sync.WaitGroup  // joins background compactions at Close

	sweepMu   sync.Mutex
	sweep     SweepStatus
	sweepStop func() // stops a running background sweeper; nil when none
}

// tmpSeq disambiguates concurrent ingest temp files within one process.
var tmpSeq atomic.Uint64

// Open loads (or initializes) the catalog rooted at dir. Recovery is
// forgiving: entries whose snapshot files are missing, truncated, or fail
// the O(1) header checks are quarantined (the file, when present, moves to
// quarantine/) and dropped rather than failing boot; stray temporary and
// orphan snapshot files are deleted.
//
// A catalog directory belongs to one process at a time: Open takes an
// exclusive advisory lock (where the platform supports one) and fails
// fast when another process — a running daemon, a concurrent cmd/dataset
// — already holds it. Without this, a second process booting from a
// stale manifest view could roll back entries the first just ingested,
// and its orphan collection would then delete their snapshots.
func Open(dir string, opts Options) (*Catalog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	blobs := opts.Blobs
	if blobs == nil {
		var err error
		if blobs, err = NewLocalStore(filepath.Join(dir, snapshotsDir)); err != nil {
			return nil, err
		}
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	c := &Catalog{dir: dir, opts: opts, blobs: blobs, lock: lock,
		entries: map[string]*Info{}, mapped: map[string]*Loaded{},
		publishing: map[string]int{}, compacting: map[string]bool{}, now: time.Now}

	dirty, err := c.recover()
	if err != nil {
		unlockDir(lock)
		return nil, err
	}
	if dirty {
		c.mu.Lock()
		err = c.saveManifestLocked()
		c.mu.Unlock()
		if err != nil {
			unlockDir(lock)
			return nil, err
		}
	}
	return c, nil
}

// logf emits a notice when logging is configured.
func (c *Catalog) logf(format string, args ...any) {
	if c.opts.Log != nil {
		c.opts.Log.Printf("dataset: "+format, args...)
	}
}

// recover loads the manifest and reconciles it with the snapshot
// directory. Returns whether the manifest must be rewritten.
func (c *Catalog) recover() (dirty bool, err error) {
	raw, err := os.ReadFile(filepath.Join(c.dir, manifestName))
	switch {
	case errors.Is(err, os.ErrNotExist):
		// fresh catalog
	case err != nil:
		return false, err
	default:
		var m manifest
		if jerr := json.Unmarshal(raw, &m); jerr != nil || m.Version != 1 {
			// A corrupt manifest should be impossible under the atomic
			// rename protocol, but if one appears, set it aside and boot
			// empty rather than refusing to serve.
			c.quarantine(filepath.Join(c.dir, manifestName))
			c.logf("quarantined unreadable manifest: %v", jerr)
			dirty = true
		} else {
			for name, in := range m.Entries {
				in.Name = name
				c.entries[name] = in
			}
		}
	}

	// Validate every referenced snapshot cheaply (header page only).
	// Backend-unavailable is not corruption: a boot while the shared
	// blob tier is down must not quarantine the whole manifest. Nor is
	// a 404 from a shared tier — the blob may be momentarily gone (hub
	// mid-restore, re-upload pending) and dropping the entry would turn
	// a recoverable tier gap into permanent manifest loss; keep it and
	// let queries 404 until the tier heals.
	_, sharedTier := c.blobs.(nameResolver)
	for name, in := range c.entries {
		badSHA, verr := c.checkEntry(in)
		switch {
		case verr == nil:
		case errors.Is(verr, ErrBackendUnavailable):
			c.logf("skipping boot check of dataset %q (%s): %v", name, ShortSHA(in.SHA256), verr)
		case sharedTier && errors.Is(verr, ErrBlobNotFound):
			c.logf("dataset %q (%s) missing from the shared tier; keeping the entry", name, ShortSHA(in.SHA256))
		default:
			if badSHA != "" {
				c.quarantineBlob(badSHA)
			}
			delete(c.entries, name)
			c.logf("quarantined dataset %q (%s): %v", name, ShortSHA(in.SHA256), verr)
			dirty = true
		}
	}

	// Garbage-collect temporaries and orphans left by crashes between
	// snapshot publication and manifest publication. For a remote
	// backend this prunes the local cache only. Pinned blobs — peer
	// uploads whose manifests live on other nodes — count as referenced
	// even though this manifest has never heard of them.
	referenced := map[string]bool{}
	for _, in := range c.entries {
		for _, br := range in.blobRefs() {
			referenced[br.sha] = true
		}
	}
	if pinner, ok := c.blobs.(blobPinner); ok {
		for _, sha := range pinner.PinnedBlobs() {
			referenced[sha] = true
		}
	}
	shas, err := c.blobs.List()
	if err != nil {
		return false, err
	}
	for _, sha := range shas {
		if referenced[sha] {
			continue
		}
		if c.blobs.Delete(sha) == nil {
			c.logf("removed orphan snapshot blob %s", ShortSHA(sha))
		}
	}
	if tc, ok := c.blobs.(tempCleaner); ok {
		for _, name := range tc.CleanTemps() {
			c.logf("removed stale temporary %s", name)
		}
	}
	// Stale ingest staging files live in the catalog root itself.
	if staged, _ := filepath.Glob(filepath.Join(c.dir, ".ingest-*")); len(staged) > 0 {
		for _, p := range staged {
			os.Remove(p)
			c.logf("removed stale ingest staging file %s", filepath.Base(p))
		}
	}
	return dirty, nil
}

// ShortSHA abbreviates a content address for logs and provenance
// strings, tolerating the malformed manifest values recovery exists to
// survive.
func ShortSHA(sha string) string {
	if len(sha) > 12 {
		return sha[:12]
	}
	return sha
}

// checkEntry runs the O(1) load-path validation of one manifest entry
// through the blob backend (header bytes only; no full download). A
// lineage entry has no blob under its head address, so the check walks
// the stored blobs — base snapshot plus every delta frame — instead.
// On failure badSHA names the specific offending blob (the one worth
// quarantining; blobs shared with healthy entries must not be set
// aside for another entry's sin), or "" when no single blob is at
// fault.
func (c *Catalog) checkEntry(in *Info) (badSHA string, err error) {
	if len(in.Deltas) == 0 {
		h, err := c.checkSnapshotBlob(in.SHA256)
		if err != nil {
			return in.SHA256, err
		}
		if h.NumNodes != in.NumNodes || h.NumEdges != in.NumEdges || h.FileBytes != in.Bytes {
			return in.SHA256, fmt.Errorf("header shape disagrees with manifest")
		}
		return "", nil
	}
	if !shaRE.MatchString(in.SHA256) {
		return "", fmt.Errorf("malformed lineage head %q", in.SHA256)
	}
	h, err := c.checkSnapshotBlob(in.base())
	if err != nil {
		return in.base(), fmt.Errorf("base %s: %w", ShortSHA(in.base()), err)
	}
	if h.FileBytes != in.BaseBytes {
		return in.base(), fmt.Errorf("base %s: snapshot is %d bytes, manifest records %d", ShortSHA(in.base()), h.FileBytes, in.BaseBytes)
	}
	for i, ref := range in.Deltas {
		if err := c.checkDeltaBlob(ref); err != nil {
			return ref.SHA256, fmt.Errorf("delta %d (%s): %w", i, ShortSHA(ref.SHA256), err)
		}
	}
	return "", nil
}

// checkSnapshotBlob validates one snapshot blob's header page against
// its content address.
func (c *Catalog) checkSnapshotBlob(sha string) (Header, error) {
	rc, err := c.blobs.Open(sha)
	if err != nil {
		return Header{}, err
	}
	defer rc.Close()
	buf := make([]byte, pageSize)
	if _, err := io.ReadFull(rc, buf); err != nil {
		return Header{}, fmt.Errorf("short header: %w", err)
	}
	size := int64(-1) // unknown (e.g. uncached remote blob): skip the size check
	if bz, ok := c.blobs.(blobSizer); ok {
		if sz, err := bz.BlobSize(sha); err == nil {
			size = sz
		}
	}
	h, _, err := decodeHeader(buf, size)
	if err != nil {
		return Header{}, err
	}
	if h.SHAHex() != sha {
		return Header{}, fmt.Errorf("content address %s does not match manifest %s", ShortSHA(h.SHAHex()), ShortSHA(sha))
	}
	return h, nil
}

// checkDeltaBlob validates one delta frame's header against its chain
// reference (header bytes only; the payload hash is checked on load).
func (c *Catalog) checkDeltaBlob(ref DeltaRef) error {
	rc, err := c.blobs.Open(ref.SHA256)
	if err != nil {
		return err
	}
	defer rc.Close()
	buf := make([]byte, deltaHeaderSize)
	if _, err := io.ReadFull(rc, buf); err != nil {
		return fmt.Errorf("short delta header: %w", err)
	}
	size := int64(-1)
	if bz, ok := c.blobs.(blobSizer); ok {
		if sz, err := bz.BlobSize(ref.SHA256); err == nil {
			size = sz
		}
	}
	h, err := decodeDeltaHeader(buf, size)
	if err != nil {
		return err
	}
	if h.SHAHex() != ref.SHA256 {
		return fmt.Errorf("content address %s does not match chain reference %s", ShortSHA(h.SHAHex()), ShortSHA(ref.SHA256))
	}
	if h.NumIns != ref.Ins || h.NumRem != ref.Rem || h.FileBytes != ref.Bytes {
		return fmt.Errorf("delta frame shape disagrees with chain reference")
	}
	return nil
}

// quarantine moves path into the quarantine directory (best effort).
func (c *Catalog) quarantine(path string) {
	if _, err := os.Stat(path); err != nil {
		return
	}
	qdir := filepath.Join(c.dir, quarantineDir)
	os.MkdirAll(qdir, 0o755)
	dst := filepath.Join(qdir, fmt.Sprintf("%d-%s", c.now().UnixNano(), filepath.Base(path)))
	if err := os.Rename(path, dst); err != nil {
		os.Remove(path)
	}
}

// quarantineBlob sets the local copy of a suspect blob aside (best
// effort). For a remote backend only the cache copy moves — the shared
// tier is never mutated on suspicion.
func (c *Catalog) quarantineBlob(sha string) {
	qdir := filepath.Join(c.dir, quarantineDir)
	os.MkdirAll(qdir, 0o755)
	dst := filepath.Join(qdir, fmt.Sprintf("%d-%s%s", c.now().UnixNano(), sha, snapExt))
	c.blobs.Quarantine(sha, dst)
}

// saveManifestLocked publishes the current entries atomically: write tmp,
// fsync, rename over manifest.json, fsync the directory. Caller holds c.mu.
func (c *Catalog) saveManifestLocked() error {
	c.dirty = false
	m := manifest{Version: 1, Entries: c.entries}
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(c.dir, manifestName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(c.dir, manifestName)); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(c.dir)
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	// Some platforms (and some filesystems) reject fsync on directories;
	// the rename is still atomic there, just not yet durable, so this is
	// best-effort by design.
	d.Sync()
	return nil
}

// IngestGraph snapshots g into the catalog under name. Identical content
// (same payload SHA-256) already present is deduplicated: the existing
// snapshot file is shared and no bytes are written twice. Returns the
// dataset's Info.
func (c *Catalog) IngestGraph(name string, g *graph.Graph, format, source string) (Info, error) {
	if !nameRE.MatchString(name) {
		return Info{}, &BadInputError{Err: fmt.Errorf("dataset: invalid name %q (want %s)", name, nameRE)}
	}
	if g.NumNodes() == 0 {
		return Info{}, &BadInputError{Err: fmt.Errorf("dataset: %q has no nodes (empty upload?)", name)}
	}
	// The staging name must be unique per call, not per name: two
	// concurrent ingests of the same name writing one file would
	// interleave into a snapshot whose payload no longer matches its
	// content address. Staging lives in the catalog root (same
	// filesystem as a local blob dir, so publication is a rename).
	tmp := filepath.Join(c.dir,
		fmt.Sprintf(".ingest-%d-%d-%s", os.Getpid(), tmpSeq.Add(1), name))
	h, err := WriteSnapshot(tmp, g)
	if err != nil {
		os.Remove(tmp)
		return Info{}, err
	}
	if c.opts.ByteBudget > 0 && h.FileBytes > c.opts.ByteBudget {
		os.Remove(tmp)
		return Info{}, fmt.Errorf("%w: snapshot of %q needs %d bytes, budget is %d",
			ErrBudgetExceeded, name, h.FileBytes, c.opts.ByteBudget)
	}
	sha := h.SHAHex()

	// Publish the blob before the manifest references it (crash-safe
	// ordering; a crash in between leaves an orphan the next Open GCs).
	// Deliberately outside c.mu — a remote backend uploads here — but
	// the address is marked in-flight so a concurrent Remove/eviction of
	// another name that dedups onto the same sha cannot delete the blob
	// in the window between publication and the manifest insert.
	c.mu.Lock()
	c.publishing[sha]++
	c.mu.Unlock()
	err = putBlobFile(c.blobs, sha, tmp)

	c.mu.Lock()
	defer c.mu.Unlock()
	c.publishing[sha]--
	if c.publishing[sha] <= 0 {
		delete(c.publishing, sha)
	}
	if err != nil {
		os.Remove(tmp)
		return Info{}, err
	}

	nowT := c.now()
	in := &Info{
		Name:       name,
		SHA256:     sha,
		Bytes:      h.FileBytes,
		NumNodes:   h.NumNodes,
		NumEdges:   h.NumEdges,
		Format:     format,
		Source:     source,
		CreatedAt:  nowT,
		LastUsedAt: nowT,
	}
	old := c.entries[name]
	c.entries[name] = in
	if old != nil && old.SHA256 != sha {
		c.removeEntryBlobsLocked(old)
	}
	c.evictLocked(name)
	if err := c.saveManifestLocked(); err != nil {
		return Info{}, err
	}
	return *in, nil
}

// evictLocked unlinks least-recently-used datasets until the unique
// snapshot bytes fit the budget. keep is never evicted. Unlinking is safe
// even while a snapshot is mmap'd: the mapping (and any graph served from
// it) stays valid until the catalog closes. Caller holds c.mu.
func (c *Catalog) evictLocked(keep string) {
	if c.opts.ByteBudget <= 0 {
		return
	}
	for c.totalBytesLocked() > c.opts.ByteBudget {
		victim := ""
		for name, in := range c.entries {
			if name == keep {
				continue
			}
			if victim == "" || in.LastUsedAt.Before(c.entries[victim].LastUsedAt) {
				victim = name
			}
		}
		if victim == "" {
			return
		}
		in := c.entries[victim]
		delete(c.entries, victim)
		c.removeEntryBlobsLocked(in)
		c.logf("evicted dataset %q (%d bytes) for byte budget %d", victim, in.Bytes, c.opts.ByteBudget)
	}
}

// totalBytesLocked sums bytes once per unique stored blob (base
// snapshots and delta frames alike).
func (c *Catalog) totalBytesLocked() int64 {
	seen := map[string]int64{}
	for _, in := range c.entries {
		for _, br := range in.blobRefs() {
			seen[br.sha] = br.bytes
		}
	}
	var total int64
	for _, b := range seen {
		total += b
	}
	return total
}

// removeEntryBlobsLocked drops every blob a just-removed entry stored,
// each only when nothing else references it. Caller holds c.mu and has
// already detached the entry.
func (c *Catalog) removeEntryBlobsLocked(in *Info) {
	for _, br := range in.blobRefs() {
		c.removeBlobIfUnreferencedLocked(br.sha)
	}
}

// removeBlobIfUnreferencedLocked drops a blob's local presence once
// nothing needs it: no manifest entry, no publish in flight (a
// concurrent ingest that deduped onto the address and has not inserted
// its entry yet), and no pin (a peer's upload whose manifest lives
// elsewhere). A remote backend's Delete only drops the cache copy
// either way. Caller holds c.mu.
func (c *Catalog) removeBlobIfUnreferencedLocked(sha string) {
	for _, in := range c.entries {
		for _, br := range in.blobRefs() {
			if br.sha == sha {
				return
			}
		}
	}
	if c.publishing[sha] > 0 {
		return
	}
	if pinner, ok := c.blobs.(blobPinner); ok {
		for _, p := range pinner.PinnedBlobs() {
			if p == sha {
				return
			}
		}
	}
	c.blobs.Delete(sha)
}

// Load opens the named dataset, zero-copy when the platform allows. The
// returned graph stays valid until the catalog is closed (evicting or
// removing the dataset later does not invalidate it).
//
// Loads are shared by content address: repeated loads of the same
// snapshot — including via a different name, or after the dataset was
// removed and re-ingested unchanged — return the same *Loaded, so a
// daemon that churns graphs never accumulates duplicate mappings. Do not
// call Close on a catalog-obtained Loaded; the catalog releases all
// mappings at its own Close.
func (c *Catalog) Load(name string) (*Loaded, error) {
	c.mu.Lock()
	in, ok := c.entries[name]
	if !ok {
		c.mu.Unlock()
		// A name absent from the local manifest may exist on a peer
		// sharing the blob tier: adopt its record and retry.
		if adopted, err := c.adoptRemote(name); err != nil {
			return nil, err
		} else if adopted {
			return c.Load(name)
		}
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	sha := in.SHA256
	lineage := *in // copy: materialization runs outside the lock
	in.LastUsedAt = c.now()
	c.dirty = true
	// Recency is persisted opportunistically on the next mutation or at
	// Close; an fsync per read would tax the load path for nothing.
	if ld, ok := c.mapped[sha]; ok {
		c.mu.Unlock()
		return ld, nil
	}
	c.mu.Unlock()

	// Materialize outside the lock: a remote backend downloads here. A
	// lineage entry has no head blob — it loads the base snapshot and
	// replays the delta chain instead.
	var ld *Loaded
	var err error
	if len(lineage.Deltas) > 0 {
		ld, err = c.materializeLineage(&lineage)
	} else {
		var path string
		path, err = c.blobs.Fetch(sha)
		if err == nil {
			ld, err = LoadSnapshot(path)
		}
	}
	if errors.Is(err, ErrBlobNotFound) || errors.Is(err, os.ErrNotExist) {
		// The blob vanished between the lookup and the open: a concurrent
		// re-ingest or eviction unlinked that SHA. The name may well still
		// exist (pointing at a new snapshot) — retry the whole lookup
		// rather than surfacing a spurious not-exist for a live dataset.
		c.mu.Lock()
		cur, ok := c.entries[name]
		retry := ok && cur.SHA256 != sha
		c.mu.Unlock()
		if retry {
			return c.Load(name)
		}
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prior, ok := c.mapped[sha]; ok {
		// A concurrent load won the race; keep one mapping and drop ours.
		ld.Close()
		return prior, nil
	}
	c.mapped[sha] = ld
	return ld, nil
}

// adoptRemote pulls a peer's record for name into the local manifest
// when the blob backend can resolve names (a RemoteStore pointed at a
// daemon). Reports whether an entry was adopted. An unreachable backend
// degrades to plain not-found — a fleet member must keep answering 404s,
// not 502s, for genuinely unknown names while the tier is down.
func (c *Catalog) adoptRemote(name string) (bool, error) {
	nr, ok := c.blobs.(nameResolver)
	if !ok {
		return false, nil
	}
	in, err := nr.LookupName(name)
	switch {
	case errors.Is(err, ErrNotFound):
		return false, nil
	case errors.Is(err, ErrBackendUnavailable):
		c.logf("remote lookup of %q failed: %v", name, err)
		return false, nil
	case err != nil:
		return false, err
	}
	if !nameRE.MatchString(in.Name) {
		return false, fmt.Errorf("dataset: remote record for %q has invalid name", name)
	}
	// The single-snapshot budget rule applies to adoptions exactly as it
	// does to local ingests: the budget governs the cache footprint, and
	// adopting a record whose blob cannot fit would evict everything and
	// still blow the cap on the subsequent fetch.
	if c.opts.ByteBudget > 0 && in.Bytes > c.opts.ByteBudget {
		return false, fmt.Errorf("%w: remote dataset %q needs %d bytes, budget is %d",
			ErrBudgetExceeded, name, in.Bytes, c.opts.ByteBudget)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.entries[name]; exists {
		return true, nil // raced with a local ingest or another adopter
	}
	cp := in
	cp.LastUsedAt = c.now()
	c.entries[name] = &cp
	c.dirty = true
	c.evictLocked(name)
	c.logf("adopted dataset %q (%s) from remote backend", name, ShortSHA(cp.SHA256))
	return true, nil
}

// Info returns the named dataset's catalog record. It is strictly local
// — a fleet member's own manifest; use Resolve to also consult a remote
// backend.
func (c *Catalog) Info(name string) (Info, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	in, ok := c.entries[name]
	if !ok {
		return Info{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return *in, nil
}

// Resolve returns the record for name, adopting it from the remote
// backend when the local manifest does not know it — the lookup the
// store's job layer uses so a job naming a peer-ingested dataset is
// submittable on any fleet member. Purely local for local backends.
func (c *Catalog) Resolve(name string) (Info, error) {
	if in, err := c.Info(name); err == nil {
		return in, nil
	}
	adopted, err := c.adoptRemote(name)
	if err != nil {
		return Info{}, err
	}
	if !adopted {
		return Info{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return c.Info(name)
}

// List returns all datasets sorted by name.
func (c *Catalog) List() []Info {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Info, 0, len(c.entries))
	for _, in := range c.entries {
		out = append(out, *in)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// TotalBytes reports the unique snapshot bytes currently cataloged.
func (c *Catalog) TotalBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totalBytesLocked()
}

// Remove drops name from the catalog and unlinks its snapshot when no
// other name shares it. A graph already loaded from it remains valid
// memory until Close (an in-flight run finishes safely), but the store
// stops serving it: a resident dataset graph is valid only while the
// catalog's head for its name equals its SHA, so the next query for name
// answers not-found — or for whatever graph is ingested as name next.
func (c *Catalog) Remove(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	in, ok := c.entries[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	delete(c.entries, name)
	c.removeEntryBlobsLocked(in)
	return c.saveManifestLocked()
}

// Verify deep-checks the named dataset's snapshot: payload hash, CSR
// invariants, and cached statistics. Names resolve through the backend
// (Resolve), so `dataset -remote URL verify usa` audits a peer-ingested
// dataset end to end: the record adopts, the blob materializes through
// the admission check, and the deep verification runs on real bytes.
func (c *Catalog) Verify(name string) (Info, error) {
	cp, err := c.Resolve(name)
	if err != nil {
		return Info{}, err
	}
	if len(cp.Deltas) == 0 {
		path, err := c.blobs.Fetch(cp.SHA256)
		if err != nil {
			return Info{}, err
		}
		if _, err := VerifySnapshot(path); err != nil {
			return Info{}, err
		}
		return cp, nil
	}
	// A lineage verifies end to end: the base snapshot deep-checks like
	// any other, and materialization re-hashes every delta frame against
	// its chain address and must land exactly on the recorded head — the
	// lineage-wide integrity statement.
	path, err := c.blobs.Fetch(cp.base())
	if err != nil {
		return Info{}, err
	}
	if _, err := VerifySnapshot(path); err != nil {
		return Info{}, err
	}
	ld, err := c.materializeLineage(&cp)
	if err != nil {
		return Info{}, err
	}
	defer ld.Close()
	if err := ld.Graph.ValidateCSR(); err != nil {
		return Info{}, fmt.Errorf("dataset: materialized lineage of %q: %w", name, err)
	}
	return cp, nil
}

// Dir returns the catalog's root directory.
func (c *Catalog) Dir() string { return c.dir }

// Blobs returns the catalog's snapshot storage tier (what BlobServer
// exposes over HTTP).
func (c *Catalog) Blobs() BlobStore { return c.blobs }

// ReferencesBlob reports whether this catalog still needs sha: a
// manifest entry stores it — as its snapshot, as a lineage base, or as
// a link of its delta chain — or a publish is in flight. It is the
// referential guard the served blob tier's DELETE consults, and what
// turns "DELETE a referenced base out from under its lineage" into a
// 409 instead of data loss.
func (c *Catalog) ReferencesBlob(sha string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.publishing[sha] > 0 {
		return true
	}
	for _, in := range c.entries {
		for _, br := range in.blobRefs() {
			if br.sha == sha {
				return true
			}
		}
	}
	return false
}

// ParseByteSize parses a byte count with an optional K/M/G/T suffix
// (powers of 1024), the grammar of the -dataset-budget flags. Empty means
// 0 (unlimited).
func ParseByteSize(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'k', 'K':
		mult = 1 << 10
	case 'm', 'M':
		mult = 1 << 20
	case 'g', 'G':
		mult = 1 << 30
	case 't', 'T':
		mult = 1 << 40
	}
	if mult != 1 {
		s = s[:len(s)-1]
	}
	v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("dataset: want a non-negative byte count like 512M or 8G, got %q", s)
	}
	return v * mult, nil
}

// Close stops any background sweeper, flushes pending recency updates
// (only when something actually changed — a read-only session must not
// rewrite the manifest), releases every mapping handed out by Load, and
// drops the catalog's directory lock. Graphs served from the mappings
// must no longer be in use.
func (c *Catalog) Close() error {
	// Stop the sweeper before taking c.mu: a sweep in flight holds the
	// lock briefly while it drops entries, so joining it under the lock
	// would deadlock.
	c.sweepMu.Lock()
	stop := c.sweepStop
	c.sweepStop = nil
	c.sweepMu.Unlock()
	if stop != nil {
		stop()
	}
	// Join background compactions before tearing mappings down: they
	// hold Loaded graphs and write manifests.
	c.compactWG.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	var err error
	if c.dirty {
		err = c.saveManifestLocked()
	}
	for _, ld := range c.mapped {
		c.condemned = append(c.condemned, ld)
	}
	for _, ld := range c.condemned {
		if cerr := ld.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	c.mapped, c.condemned = map[string]*Loaded{}, nil
	unlockDir(c.lock)
	c.lock = nil
	return err
}

// names returns entry names (diagnostics/tests).
func (c *Catalog) names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.entries))
	for n := range c.entries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
