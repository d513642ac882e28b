package store

// Append invalidation. When a dataset's lineage head moves, no query can
// be answered for the superseded head any more: every query resolves its
// name through the catalog (see resolve), results are keyed by head SHA,
// and a resident graph whose SHA is not the head is dropped on sight.
// That holds whether or not anyone calls ApplyDelta. It exists only so
// the superseded head's cache slots are freed at once instead of aging
// out of the LRU; the new head's results are computed by the next query.

// MaintenanceResult reports what one head movement did to this node's
// caches.
type MaintenanceResult struct {
	// Invalidated counts cache entries dropped (computed here or pushed).
	Invalidated int `json:"invalidated"`
	// Recomputed is always 0: an append warms nothing.
	Recomputed int `json:"recomputed"`
}

// ApplyDelta tells the store that a dataset's lineage head moved from
// prevSHA to newSHA, and purges every cache entry keyed on the
// superseded head. Safe to call with prevSHA == newSHA (a no-op append):
// nothing is invalidated.
func (s *Store) ApplyDelta(prevSHA, newSHA string) MaintenanceResult {
	if prevSHA == newSHA || prevSHA == "" {
		return MaintenanceResult{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return MaintenanceResult{Invalidated: s.purgeLocked(prevSHA + "|")}
}
