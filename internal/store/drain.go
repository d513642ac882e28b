package store

import (
	"context"
	"encoding/json"
	"time"
)

// Drain support: when a node is asked to leave the fleet it first
// finishes its in-flight work (WaitIdle), then hands its hot fleet-cache
// entries to the next preference-order member (PrewarmSuccessors), so a
// graceful departure costs the fleet neither in-progress jobs nor cache
// warmth. The replica read path (CachedLocally) lets a non-owner member
// of a key's preference chain answer from its own cache instead of
// adding a hop to the owner.

// WaitIdle blocks until the store has no computation in flight and no
// live (queued or running) job, or ctx expires. New work arriving while
// waiting extends the wait — the caller is expected to have stopped
// admitting compute-bearing requests first (the draining flag in the
// server layer).
func (s *Store) WaitIdle(ctx context.Context) error {
	tick := time.NewTicker(25 * time.Millisecond)
	defer tick.Stop()
	for {
		s.mu.Lock()
		jc := s.jobCountsLocked()
		idle := len(s.flights) == 0 && len(s.loads) == 0 && jc.Queued == 0 && jc.Running == 0
		s.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// FleetEntry is one fleet-cacheable result: the fleet-wide key and the
// JSON body a peer's cache endpoint would serve for it.
type FleetEntry struct {
	Key  string
	Body []byte
}

// FleetEntries returns up to max content-addressed cache entries in LRU
// order, hottest first — the set worth pre-warming a successor with.
func (s *Store) FleetEntries(max int) []FleetEntry {
	if max <= 0 {
		return nil
	}
	s.mu.Lock()
	slots := make([]entry, 0, max)
	for el := s.lru.Front(); el != nil && len(slots) < max; el = el.Next() {
		if ent := el.Value.(*entry); contentAddressed(ent.key) {
			slots = append(slots, *ent)
		}
	}
	s.mu.Unlock()
	// Marshal outside the lock: bodies can be large and marshaling is
	// pure (result values are immutable once stored).
	out := make([]FleetEntry, 0, len(slots))
	for _, sl := range slots {
		if body, isRaw := sl.val.([]byte); isRaw {
			out = append(out, FleetEntry{Key: sl.key, Body: body})
			continue
		}
		if body, err := json.Marshal(sl.val); err == nil {
			out = append(out, FleetEntry{Key: sl.key, Body: body})
		}
	}
	return out
}

// PrewarmSuccessors pushes up to max hot fleet-cache entries to each
// key's next preference-order member, synchronously, and reports how
// many a successor accepted. Called on the drain path after WaitIdle; a
// nil or non-pushing FleetCache makes it a no-op.
func (s *Store) PrewarmSuccessors(max int) int {
	fc := s.cfg.FleetCache
	if fc == nil {
		return 0
	}
	warmed := 0
	for _, e := range s.FleetEntries(max) {
		if fc.PushSuccessor(e.Key, e.Body) {
			warmed++
		}
	}
	return warmed
}

// CachedLocally reports whether this node can answer op(graph, p) from
// its own cache right now — typed (computed or promoted here) or raw (a
// replica push). The k-replica read path uses it: a non-owner member of
// the key's preference chain serves the query itself only on a local
// hit, and otherwise forwards to the owner so computes stay single-homed
// and cross-node singleflight intact. A pushed entry counts even before
// the graph is ever loaded here — pushes arrive by content address, not
// by residency.
func (s *Store) CachedLocally(graphName, op string, p Params) bool {
	fkey, ok := s.FleetKeyFor(graphName, op, p)
	if !ok {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok = s.results[fkey]
	return ok
}
