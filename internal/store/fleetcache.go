package store

import (
	"encoding/json"
	"fmt"
	"regexp"
)

// The server side of the fleet-wide result cache: GET/PUT /v2/cache/{key}
// terminate here. The fleet cache is not a separate store, nor a separate
// index: a fleet key — dataset head SHA-256 + canonical parameters — is
// exactly the key the local result cache files a dataset-backed graph's
// result under, so a peer's push and a locally computed result share one
// slot of the one LRU. A push lands as raw JSON; the first local query for
// it overwrites the slot with the decoded value. Because the SHA in the
// key is a head the catalog resolved, a pushed result can only ever be
// served for a name whose head is that SHA.

// FleetKey renders the fleet-wide cache key for an operation on a
// dataset snapshot: the snapshot's SHA-256 hex plus the canonical
// parameter string. Content addressing makes the key location- and
// name-independent: any node holding a byte-identical snapshot computes
// the same key, which is what lets routed queries reuse each other's
// results exactly.
func FleetKey(sha, op string, p Params) string {
	return sha + "|" + p.normalized().canonical(op)
}

// FleetCacheGet serves a peer's GET /v2/cache/{key} probe from the local
// LRU. It returns the JSON encoding of the cached result, whether typed
// (computed here) or raw (pushed here), and refreshes the entry's LRU
// position — a probed-for result is a live result.
func (s *Store) FleetCacheGet(fkey string) ([]byte, bool) {
	s.mu.Lock()
	el, ok := s.results[fkey]
	if !ok {
		s.mu.Unlock()
		return nil, false
	}
	s.lru.MoveToFront(el)
	val := el.Value.(*entry).val
	s.mu.Unlock()
	if body, isRaw := val.([]byte); isRaw {
		return body, true
	}
	body, err := json.Marshal(val)
	if err != nil {
		return nil, false
	}
	return body, true
}

// fleetKeyRE matches the head of every key FleetKey renders: a lowercase
// hex SHA-256 content address, then an op the store computes.
var fleetKeyRE = regexp.MustCompile(`^[0-9a-f]{64}\|(decompose|diameter)\|`)

// FleetCachePut accepts a peer's PUT /v2/cache/{key}: a JSON-encoded
// result computed elsewhere, stored raw until a local query decodes it.
// The body must be valid JSON and the key must look like a fleet key
// (content address "|" op "|" params) — the endpoint trusts the fleet,
// not the bytes.
func (s *Store) FleetCachePut(fkey string, body []byte) error {
	if !fleetKeyRE.MatchString(fkey) {
		return fmt.Errorf("store: malformed fleet cache key %q", fkey)
	}
	if !json.Valid(body) {
		return fmt.Errorf("store: fleet cache body is not valid JSON")
	}
	stored := make([]byte, len(body))
	copy(stored, body)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.results[fkey]; ok {
		if _, isRaw := el.Value.(*entry).val.([]byte); !isRaw {
			return nil // a typed entry already holds this result; keep it
		}
	}
	s.insertLocked(fkey, stored)
	return nil
}

// FleetKeyFor renders the fleet cache key for an op against a known
// graph, or ok=false when the graph is not dataset-backed (ad-hoc
// uploads have no fleet-stable identity). The server layer uses it to
// answer "where would this query's result live fleet-wide". The head
// comes from the catalog manifest, so replica checks work before the
// graph's first local load.
func (s *Store) FleetKeyFor(graphName, op string, p Params) (string, bool) {
	_, id := s.resolve(graphName)
	if id == "" || !contentAddressed(id) {
		return "", false
	}
	return FleetKey(id, op, p), true
}
