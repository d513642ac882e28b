package dataset

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// SweepResult records one dataset's outcome in an integrity sweep.
type SweepResult struct {
	Name      string    `json:"name"`
	SHA256    string    `json:"sha256"`
	OK        bool      `json:"ok"`
	Skipped   bool      `json:"skipped,omitempty"` // backend unreachable: neither verified nor condemned
	Error     string    `json:"error,omitempty"`
	CheckedAt time.Time `json:"checkedAt"`
}

// SweepStatus is the catalog's sweep telemetry, served by /v2/datasets.
type SweepStatus struct {
	// Enabled reports whether a background sweeper is running.
	Enabled bool `json:"enabled"`
	// IntervalSeconds is the background sweep cadence (0 when disabled).
	IntervalSeconds float64 `json:"intervalSeconds,omitempty"`
	// Sweeps counts completed sweeps (background and explicit).
	Sweeps int64 `json:"sweeps"`
	// LastSweepAt is when the most recent sweep finished (zero before
	// the first one).
	LastSweepAt time.Time `json:"lastSweepAt"`
	// LastChecked/LastFailures/LastSkipped summarize the most recent
	// sweep; TotalFailures and TotalQuarantined accumulate over the
	// catalog's lifetime in this process.
	LastChecked      int   `json:"lastChecked"`
	LastFailures     int   `json:"lastFailures"`
	LastSkipped      int   `json:"lastSkipped"`
	TotalFailures    int64 `json:"totalFailures"`
	TotalQuarantined int64 `json:"totalQuarantined"`
	// LastResults is the most recent sweep's per-dataset detail.
	LastResults []SweepResult `json:"lastResults,omitempty"`
}

// SweepStatus returns a copy of the sweep telemetry.
func (c *Catalog) SweepStatus() SweepStatus {
	c.sweepMu.Lock()
	defer c.sweepMu.Unlock()
	st := c.sweep
	st.LastResults = append([]SweepResult(nil), c.sweep.LastResults...)
	return st
}

// SweepOnce re-verifies every cataloged snapshot end to end — payload
// SHA-256 against the content address, CSR invariants, cached stats —
// and quarantines failures exactly like boot-time recovery does: the
// local blob copy moves to quarantine/, every name referencing it drops
// from the manifest, and the manifest is republished. The daemon keeps
// serving throughout; a graph already faulted in stays valid memory (the
// mmap survives the unlink), but the store stops resolving the dropped
// name to it.
//
// Shared snapshots are hashed once per unique content address, and a
// backend that is unreachable (remote tier down) marks entries skipped
// rather than condemning them. SweepOnce is what the background sweeper
// runs on its interval and what `dataset verify -watch` polls.
func (c *Catalog) SweepOnce() []SweepResult {
	entries := c.List()

	// Group names by stored blob so shared blobs hash once. A lineage
	// entry depends on every blob in its chain (base + delta frames), so
	// it appears under each; its derived head address names no blob and
	// is not swept directly — materialization re-checks it on load.
	bysha := map[string][]string{}
	isDelta := map[string]bool{}
	for _, in := range entries {
		for _, br := range in.blobRefs() {
			bysha[br.sha] = append(bysha[br.sha], in.Name)
			if br.delta {
				isDelta[br.sha] = true
			}
		}
	}

	var results []SweepResult
	failures, skipped := 0, 0
	var quarantined int64
	// A 404 from a shared tier is a tier gap, not local corruption:
	// condemning on it would let one lost hub blob erase the entry from
	// every peer's manifest. Mirror boot recovery and skip.
	_, sharedTier := c.blobs.(nameResolver)
	for sha, names := range bysha {
		verr := c.verifyBlob(sha, isDelta[sha])
		now := c.now()
		switch {
		case verr == nil:
			for _, name := range names {
				results = append(results, SweepResult{Name: name, SHA256: sha, OK: true, CheckedAt: now})
			}
		case errors.Is(verr, ErrBackendUnavailable),
			sharedTier && errors.Is(verr, ErrBlobNotFound):
			skipped += len(names)
			for _, name := range names {
				results = append(results, SweepResult{
					Name: name, SHA256: sha, Skipped: true, Error: verr.Error(), CheckedAt: now})
			}
			c.logf("sweep: skipping %s (%v)", ShortSHA(sha), verr)
		default:
			failures += len(names)
			quarantined += int64(c.condemn(sha, verr))
			for _, name := range names {
				results = append(results, SweepResult{
					Name: name, SHA256: sha, Error: verr.Error(), CheckedAt: now})
			}
		}
	}

	c.sweepMu.Lock()
	c.sweep.Sweeps++
	c.sweep.LastSweepAt = c.now()
	c.sweep.LastChecked = len(results)
	c.sweep.LastFailures = failures
	c.sweep.LastSkipped = skipped
	c.sweep.TotalFailures += int64(failures)
	c.sweep.TotalQuarantined += quarantined
	c.sweep.LastResults = results
	c.sweepMu.Unlock()
	return results
}

// verifyBlob materializes one blob and deep-checks it: full snapshot
// verification for GDS1 bases, full decode + payload re-hash for GDD1
// delta frames.
func (c *Catalog) verifyBlob(sha string, delta bool) error {
	path, err := c.blobs.Fetch(sha)
	if err != nil {
		return err
	}
	if delta {
		dh, err := verifyDeltaFile(path)
		if err != nil {
			return err
		}
		if dh.SHAHex() != sha {
			return fmt.Errorf("dataset: delta frame hashes to %s, not %s",
				ShortSHA(dh.SHAHex()), ShortSHA(sha))
		}
		return nil
	}
	h, err := VerifySnapshot(path)
	if err != nil {
		return err
	}
	if h.SHAHex() != sha {
		return fmt.Errorf("dataset: snapshot hashes to %s, not %s",
			ShortSHA(h.SHAHex()), ShortSHA(sha))
	}
	return nil
}

// condemn quarantines a corrupt blob and drops every manifest entry
// still referencing it, mirroring boot-time recovery. Returns how many
// entries were dropped. Entries re-ingested under a new address while
// the sweep hashed the old bytes are left alone.
func (c *Catalog) condemn(sha string, verr error) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for name, in := range c.entries {
		depends := false
		for _, br := range in.blobRefs() {
			if br.sha == sha {
				depends = true
				break
			}
		}
		if !depends {
			continue
		}
		delete(c.entries, name)
		// A later load of this head — a re-ingest, or re-adoption from a
		// healthy shared tier — must read fresh bytes, not the mapping
		// whose blob just failed verification. Graphs already served
		// from it stay valid until Close.
		if ld, ok := c.mapped[in.SHA256]; ok {
			delete(c.mapped, in.SHA256)
			c.condemned = append(c.condemned, ld)
		}
		dropped++
		c.logf("sweep: quarantined dataset %q (%s): %v", name, ShortSHA(sha), verr)
	}
	if dropped == 0 {
		return 0
	}
	c.quarantineBlob(sha)
	if err := c.saveManifestLocked(); err != nil {
		c.logf("sweep: manifest save after quarantine: %v", err)
	}
	return dropped
}

// StartSweeper runs SweepOnce every interval in the background until the
// returned stop function is called (idempotent) or the catalog closes.
// Starting a second sweeper stops the first.
func (c *Catalog) StartSweeper(interval time.Duration) (stop func()) {
	if interval <= 0 {
		return func() {}
	}
	stopCh := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				c.SweepOnce()
			case <-stopCh:
				return
			}
		}
	}()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			close(stopCh)
			<-done
			c.sweepMu.Lock()
			c.sweep.Enabled = false
			c.sweep.IntervalSeconds = 0
			c.sweepMu.Unlock()
		})
	}

	c.sweepMu.Lock()
	prev := c.sweepStop
	c.sweepStop = stop
	c.sweep.Enabled = true
	c.sweep.IntervalSeconds = interval.Seconds()
	c.sweepMu.Unlock()
	if prev != nil {
		prev()
		// prev's deferred status reset raced ours; reassert.
		c.sweepMu.Lock()
		c.sweep.Enabled = true
		c.sweep.IntervalSeconds = interval.Seconds()
		c.sweepMu.Unlock()
	}
	return stop
}
