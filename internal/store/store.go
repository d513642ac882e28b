// Package store turns graphdiam's one-shot decomposition and diameter
// algorithms into a long-running service layer: a named graph registry plus
// an LRU cache of computation results with singleflight deduplication.
//
// Graphs are registered once under a client-chosen name and queried many
// times. Every resident graph has one identity string: the dataset's head
// SHA-256 when it was faulted in from the catalog, a process-unique token
// for an ad-hoc registration. Results, in-flight computations and peer
// pushes are all keyed by identity|canonicalParams in one map over one
// LRU; identical queries hit the cache, and identical queries arriving
// concurrently share a single underlying BSP run — the followers block
// until the leader's run completes and then all return the same result.
// Distinct computations run on their own in-process bsp.Engine, but a global
// semaphore caps how many engines execute at once so a burst of distinct
// queries cannot oversubscribe the host.
//
// The catalog is the only owner of "which graph does this name mean".
// Every query resolves its name afresh (resolve): an ad-hoc registration
// shadows a dataset of the same name; otherwise a resident dataset graph
// is valid iff the catalog's head for its name equals its SHA, and one
// that is not — deleted, re-ingested, appended to or adopted anew — is
// dropped and faulted in again. No caller has to tell the store that a
// head moved for the next answer to be about the new head.
//
// The algorithms are deterministic in (graph, parameters) including across
// worker counts, so cached results are exact, not approximations of what a
// fresh run would return; only the platform-independent metrics attached to
// the result reflect the original run.
package store

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"graphdiam/internal/bsp"
	"graphdiam/internal/dataset"
	"graphdiam/internal/graph"
)

// Config sizes a Store. Zero values select the defaults.
type Config struct {
	// MaxEntries bounds the result cache; the least recently used entry is
	// evicted when a new result would exceed it. Default 256.
	MaxEntries int
	// MaxConcurrent caps the number of BSP computations executing at once
	// across all graphs and operations. Queued computations wait for a
	// slot (or their context). Default 2.
	MaxConcurrent int
	// MaxJobs bounds job-registry retention: when the registry exceeds it,
	// the oldest terminal (done/failed/cancelled) jobs are evicted. Live
	// jobs are never evicted. Default 512.
	MaxJobs int
	// Catalog, when non-nil, backs the registry with the persistent
	// dataset catalog: a query naming a graph that is not in memory is
	// faulted in from the catalog (zero-copy mmap where available) under
	// per-name singleflight before the query proceeds. Nil keeps the
	// registry memory-only.
	Catalog *dataset.Catalog
	// FleetCache, when non-nil, extends the result cache fleet-wide for
	// dataset-backed graphs: a local miss probes peers before computing,
	// and a fresh result is pushed to the cache key's owner. Keys are
	// dataset SHA-256 + canonical parameters, so content addressing makes
	// cross-node reuse exact. See internal/fleet.Cache.
	FleetCache FleetCache
	// Metrics, when non-nil, observes the store: cache traffic per tier,
	// compute-slot pressure, job durations, and BSP engine timings. Nil
	// leaves every instrumentation site a no-op.
	Metrics *Metrics
}

// FleetCache is the store's hook into the fleet-wide result cache. All
// methods are best-effort: Get may probe several peers (bounded, with
// timeouts) and Put may run in the background.
type FleetCache interface {
	// Get returns the JSON-encoded result cached anywhere in the fleet
	// for key, if any peer holds it.
	Get(ctx context.Context, key string) ([]byte, bool)
	// Put advertises a freshly computed result to the fleet (the key's
	// owner and, with replication factor k>1, its k-1 read replicas).
	Put(key string, body []byte)
	// PushSuccessor synchronously hands one cached entry to the first
	// live non-self member of the key's preference chain — the drain
	// path's cache pre-warming. Reports whether a successor accepted it.
	PushSuccessor(key string, body []byte) bool
	// Rank is this node's rank in the current placement view. Job IDs
	// embed it so the routing layer can send /v2/jobs/{id} home.
	Rank() int
}

func (c Config) withDefaults() Config {
	if c.MaxEntries <= 0 {
		c.MaxEntries = 256
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 512
	}
	return c
}

// GraphInfo describes a registered graph.
type GraphInfo struct {
	Name      string    `json:"name"`
	NumNodes  int       `json:"numNodes"`
	NumEdges  int       `json:"numEdges"`
	AvgWeight float64   `json:"avgWeight"`
	Source    string    `json:"source"`
	CreatedAt time.Time `json:"createdAt"`
}

// graphEntry is one resident graph. id is its identity: the dataset head
// SHA-256 for a graph faulted in from the catalog, adhocMark plus a
// process-unique number for an ad-hoc registration. The id, not the name,
// keys results, so a name that comes to mean a different graph can never
// be served the old graph's results.
type graphEntry struct {
	id   string
	g    *graph.Graph
	info GraphInfo
}

// adhocMark starts every ad-hoc identity. It is not a hex digit, so no
// content address — and no key a peer may push — can collide with one.
const adhocMark = "#"

// contentAddressed reports whether an identity (or a result key, which
// starts with one) names a dataset head. Only those are fleet-eligible:
// an inline upload has no fleet-stable identity.
func contentAddressed(id string) bool { return !strings.HasPrefix(id, adhocMark) }

// entry is one cache slot, keyed identity|canonicalParams. val is the
// typed result, or raw JSON ([]byte) for a result a peer pushed over
// PUT /v2/cache that no local query has asked for yet.
type entry struct {
	key string
	val any
}

// flight is one in-progress computation that concurrent identical requests
// attach to.
type flight struct {
	done chan struct{}
	val  any
	err  error
	// purged is set (under s.mu) when the flight's identity is purged
	// mid-run: the result is still delivered, but not cached.
	purged bool
}

// Counters are the store's monotone event counts. A Snapshot of them is
// served by /v1/stats.
type Counters struct {
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	Evictions    int64 `json:"evictions"`
	Dedups       int64 `json:"dedups"` // requests that joined an in-flight computation
	Computations int64 `json:"computations"`
	Errors       int64 `json:"errors"`
	// FleetHits counts misses answered by the fleet-wide cache (a peer's
	// pushed result, or a successful peer probe) instead of a BSP run.
	FleetHits int64 `json:"fleetHits"`
}

// JobCounts tallies registry jobs by state.
type JobCounts struct {
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
}

// Stats is a point-in-time view of the store for monitoring.
type Stats struct {
	Counters      Counters     `json:"counters"`
	CacheEntries  int          `json:"cacheEntries"`
	MaxEntries    int          `json:"maxEntries"`
	InFlight      int          `json:"inFlight"`
	MaxConcurrent int          `json:"maxConcurrent"`
	Jobs          JobCounts    `json:"jobs"`
	Graphs        []GraphInfo  `json:"graphs"`
	TotalCost     bsp.Snapshot `json:"totalCost"` // summed metrics of all completed runs
}

// Store is the concurrent service layer. All methods are safe for
// concurrent use.
type Store struct {
	cfg Config
	sem chan struct{} // compute slots

	// baseCtx parents every job's context; Close cancels it, aborting all
	// running jobs at their next superstep barrier.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// jobsWG tracks every runJob goroutine so Close can join them: the
	// daemon must not release resources a job may still be touching (in
	// particular mmap'd dataset snapshots) while a run is mid-superstep.
	jobsWG sync.WaitGroup

	mu       sync.Mutex
	closed   bool                     // Close begun: new jobs are no longer WG-tracked
	nextID   uint64                   // last ad-hoc identity minted
	graphs   map[string]*graphEntry   // read through resolve only
	results  map[string]*list.Element // identity|params → *entry in lru
	lru      *list.List               // front = most recently used
	flights  map[string]*flight       // same keys as results
	loads    map[string]*flight       // per-name dataset fault-ins in progress
	ctrs     Counters
	cost     bsp.Metrics // accumulated metrics of completed computations
	nextJob  uint64
	jobs     map[string]*job
	jobOrder []string // submission order, for terminal-job eviction
	now      func() time.Time
}

// New returns an empty store sized by cfg.
func New(cfg Config) *Store {
	cfg = cfg.withDefaults()
	cfg.Metrics.setSlotCapacity(cfg.MaxConcurrent)
	ctx, cancel := context.WithCancel(context.Background())
	return &Store{
		cfg:        cfg,
		sem:        make(chan struct{}, cfg.MaxConcurrent),
		baseCtx:    ctx,
		baseCancel: cancel,
		graphs:     make(map[string]*graphEntry),
		results:    make(map[string]*list.Element),
		lru:        list.New(),
		flights:    make(map[string]*flight),
		loads:      make(map[string]*flight),
		jobs:       make(map[string]*job),
		now:        time.Now,
	}
}

// Close cancels every live job and waits for their goroutines to unwind.
// Running BSP engines observe the cancellation at their next superstep
// barrier, so the wait is bounded by one superstep — and once Close
// returns, no job is still reading any graph, which lets callers safely
// tear down graph backing storage (e.g. munmap dataset snapshots) right
// after. Jobs submitted after Close are cancelled immediately; direct
// (synchronous) queries are unaffected — they run under their caller's
// context.
func (s *Store) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.baseCancel()
	s.jobsWG.Wait()
}

// AddGraph registers g under name. source is a human-readable provenance
// string ("spec mesh:64 seed=1", "upload .gr", ...). Registering an
// existing name replaces the graph; cached results of the old graph are
// dropped. An ad-hoc registration shadows a dataset of the same name
// until it is removed.
func (s *Store) AddGraph(name string, g *graph.Graph, source string) (GraphInfo, error) {
	if name == "" {
		return GraphInfo{}, fmt.Errorf("store: graph name must be non-empty")
	}
	if g == nil {
		return GraphInfo{}, fmt.Errorf("store: graph must be non-nil")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	return s.registerLocked(name, fmt.Sprintf("%s%d", adhocMark, s.nextID), g, source), nil
}

// registerLocked makes g, under identity id, the resident graph for name,
// dropping whatever the name held before. Caller holds s.mu.
func (s *Store) registerLocked(name, id string, g *graph.Graph, source string) GraphInfo {
	s.dropLocked(name)
	e := &graphEntry{
		id: id,
		g:  g,
		info: GraphInfo{
			Name:      name,
			NumNodes:  g.NumNodes(),
			NumEdges:  g.NumEdges(),
			AvgWeight: g.AvgEdgeWeight(),
			Source:    source,
			CreatedAt: s.now(),
		},
	}
	s.graphs[name] = e
	return e.info
}

// dropLocked deregisters name and purges its identity's results. It
// reports whether the name was resident. Caller holds s.mu.
func (s *Store) dropLocked(name string) bool {
	ge, ok := s.graphs[name]
	if !ok {
		return false
	}
	delete(s.graphs, name)
	s.purgeLocked(ge.id + "|")
	return true
}

// resolve answers "which graph does name mean right now". It is the one
// read path of the name → graph table: it returns the resident entry when
// a valid one exists, and the identity the name resolves to ("" when
// neither the registry nor the catalog's local manifest knows it). An
// ad-hoc registration wins. Otherwise the catalog names the head, and a
// resident dataset graph whose SHA differs from it — or whose name the
// catalog no longer lists — is dropped, for faultIn to load again.
func (s *Store) resolve(name string) (ge *graphEntry, id string) {
	s.mu.Lock()
	ge = s.graphs[name]
	s.mu.Unlock()
	if ge != nil && !contentAddressed(ge.id) {
		return ge, ge.id
	}
	// Outside s.mu: the catalog's mutex can be held across a manifest
	// fsync by a concurrent ingest and must never ride the store's lock.
	if cat := s.cfg.Catalog; cat != nil {
		if in, err := cat.Info(name); err == nil {
			id = in.SHA256
		}
	}
	if ge != nil && ge.id != id {
		s.mu.Lock()
		if s.graphs[name] == ge {
			s.dropLocked(name)
		}
		s.mu.Unlock()
		ge = nil
	}
	return ge, id
}

// Graph returns the registered graph and its info.
func (s *Store) Graph(name string) (*graph.Graph, GraphInfo, bool) {
	ge, _ := s.resolve(name)
	if ge == nil {
		return nil, GraphInfo{}, false
	}
	return ge.g, ge.info, true
}

// RemoveGraph deregisters name and drops its cached results. It reports
// whether the name was registered. A dataset-backed name is faulted in
// again by its next query.
func (s *Store) RemoveGraph(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropLocked(name)
}

// Graphs lists registered graphs sorted by name.
func (s *Store) Graphs() []GraphInfo {
	s.mu.Lock()
	names := make([]string, 0, len(s.graphs))
	for name := range s.graphs {
		names = append(names, name)
	}
	s.mu.Unlock()
	sort.Strings(names)
	out := make([]GraphInfo, 0, len(names))
	for _, name := range names {
		if ge, _ := s.resolve(name); ge != nil {
			out = append(out, ge.info)
		}
	}
	return out
}

// Stats returns a point-in-time monitoring view.
func (s *Store) Stats() Stats {
	graphs := s.Graphs()
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Counters:      s.ctrs,
		CacheEntries:  s.lru.Len(),
		MaxEntries:    s.cfg.MaxEntries,
		InFlight:      len(s.flights),
		MaxConcurrent: s.cfg.MaxConcurrent,
		Jobs:          s.jobCountsLocked(),
		Graphs:        graphs,
		TotalCost:     s.cost.Snapshot(),
	}
}

// purgeLocked removes every cache slot whose key starts with prefix (an
// identity plus "|") and returns how many it removed. Flights under the
// prefix are not waited for; they are marked so their results are not
// cached. This is LRU hygiene — superseded entries must not squat slots —
// and never what correctness rests on: a superseded identity can no
// longer be resolved to. Caller holds s.mu.
func (s *Store) purgeLocked(prefix string) (removed int) {
	for el := s.lru.Front(); el != nil; {
		next := el.Next()
		if strings.HasPrefix(el.Value.(*entry).key, prefix) {
			s.removeLocked(el)
			removed++
		}
		el = next
	}
	for k, f := range s.flights {
		if strings.HasPrefix(k, prefix) {
			f.purged = true
		}
	}
	return removed
}

// removeLocked drops one cache slot. Caller holds s.mu.
func (s *Store) removeLocked(el *list.Element) {
	s.lru.Remove(el)
	delete(s.results, el.Value.(*entry).key)
}

// lookupLocked serves k from the cache. A slot still holding a peer's raw
// push is decoded on first use and the typed value overwrites it in place
// (result bodies are small fixed-shape structs, so decoding under the
// lock is cheap); an undecodable push is dropped and reads as a miss.
// Caller holds s.mu.
func (s *Store) lookupLocked(k string, decode func([]byte) (any, error)) (val any, tier string, ok bool) {
	el, ok := s.results[k]
	if !ok {
		return nil, "", false
	}
	ent := el.Value.(*entry)
	tier = "local"
	if raw, isRaw := ent.val.([]byte); isRaw {
		v, err := decode(raw)
		if err != nil {
			s.removeLocked(el)
			return nil, "", false
		}
		ent.val, tier = v, "fleet_raw"
		s.ctrs.FleetHits++
	} else {
		s.ctrs.Hits++
	}
	s.lru.MoveToFront(el)
	return ent.val, tier, true
}

// do returns the cached value for (graph, params), joining an in-flight
// identical computation if one exists, and otherwise computing it by
// running fn on the resident graph under the concurrency cap. fn receives
// the leader's context and must abandon its work when it is cancelled.
// cached reports whether the value was served without running fn (cache
// hit, joined flight, or fleet-cache hit).
//
// decode turns a fleet-cached JSON body into the typed result: for
// dataset-backed graphs the cache slot may hold a result a peer pushed
// here earlier, and a local miss makes a bounded probe of live peers
// before it computes. A freshly computed result is pushed back to the
// fleet (best-effort).
//
// A follower whose leader was cancelled (the leader's own context expired
// while waiting for a compute slot or mid-run) retries instead of
// inheriting the leader's error: one retrier becomes the new leader, the
// rest join its flight. A follower only fails on its own context.
func (s *Store) do(ctx context.Context, graphName, params string,
	decode func([]byte) (any, error),
	fn func(ctx context.Context, g *graph.Graph) (any, error)) (val any, cached bool, err error) {

	for {
		ge, err := s.faultIn(ctx, graphName)
		if err != nil {
			return nil, false, err
		}
		k := ge.id + "|" + params
		s.mu.Lock()
		if v, tier, ok := s.lookupLocked(k, decode); ok {
			s.mu.Unlock()
			s.cfg.Metrics.hit(tier)
			return v, true, nil
		}
		if f, ok := s.flights[k]; ok {
			s.ctrs.Dedups++
			s.mu.Unlock()
			s.cfg.Metrics.coalesce()
			select {
			case <-f.done:
				if f.err != nil && isContextErr(f.err) {
					if ctx.Err() != nil {
						return nil, false, ctx.Err()
					}
					continue // leader cancelled, not us: retry
				}
				return f.val, true, f.err
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		s.ctrs.Misses++
		f := &flight{done: make(chan struct{})}
		s.flights[k] = f
		s.mu.Unlock()
		s.cfg.Metrics.miss()

		// Leader path: probe the fleet, else acquire a compute slot, run,
		// publish. The probe rides the flight leadership, so concurrent
		// identical local requests cost at most one peer round-trip.
		var fleet FleetCache
		if contentAddressed(ge.id) {
			fleet = s.cfg.FleetCache
		}
		fleetHit := false
		if fleet != nil {
			if body, ok := fleet.Get(ctx, k); ok {
				if v, derr := decode(body); derr == nil {
					f.val, fleetHit = v, true
				}
			}
		}
		if !fleetHit {
			select {
			case s.sem <- struct{}{}:
				s.cfg.Metrics.slotAcquired()
				f.val, f.err = fn(ctx, ge.g)
				s.cfg.Metrics.slotReleased()
				<-s.sem
			case <-ctx.Done():
				f.err = ctx.Err()
			}
		}

		s.mu.Lock()
		delete(s.flights, k)
		switch {
		case f.err == nil:
			if fleetHit {
				s.ctrs.FleetHits++
				s.cfg.Metrics.hit("fleet_probe")
			} else {
				s.ctrs.Computations++
				s.cfg.Metrics.computation()
			}
			if !f.purged {
				s.insertLocked(k, f.val)
			}
		case !isContextErr(f.err):
			s.ctrs.Errors++ // client disconnects are not store errors
			s.cfg.Metrics.errored()
		}
		s.mu.Unlock()
		close(f.done)
		if f.err == nil && fleet != nil && !fleetHit {
			// Push the fresh result to the key's fleet owner so routed
			// queries find it wherever they land (best-effort, async).
			if body, merr := json.Marshal(f.val); merr == nil {
				fleet.Put(k, body)
			}
		}
		return f.val, fleetHit, f.err
	}
}

// faultIn returns the resident graph that name means right now, loading
// it from the dataset catalog first when resolve finds none. Concurrent
// fault-ins of the same name share one catalog load (singleflight): the
// first caller mmaps the snapshot, the rest wait on its flight. Whatever
// was loaded is resolved again before it is returned, so a head that
// moved during the load is loaded again rather than served. Returns
// NotFoundError when no catalog is configured or the catalog has no such
// dataset, so the API surface is unchanged for memory-only deployments.
func (s *Store) faultIn(ctx context.Context, name string) (*graphEntry, error) {
	for {
		if ge, _ := s.resolve(name); ge != nil {
			return ge, nil
		}
		cat := s.cfg.Catalog
		if cat == nil {
			return nil, &NotFoundError{Name: name}
		}
		s.mu.Lock()
		f, loading := s.loads[name]
		if !loading {
			f = &flight{done: make(chan struct{})}
			s.loads[name] = f
		}
		s.mu.Unlock()
		if loading {
			select {
			case <-f.done:
				if f.err != nil && (!isContextErr(f.err) || ctx.Err() != nil) {
					return nil, f.err
				}
				continue // loaded, or the leader abandoned and we did not
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}

		ld, err := cat.Load(name)
		if errors.Is(err, dataset.ErrNotFound) {
			err = &NotFoundError{Name: name}
		}
		s.mu.Lock()
		if err == nil {
			sha := ld.Header.SHAHex()
			// An ad-hoc registration that arrived mid-load keeps the name.
			if cur := s.graphs[name]; cur == nil || (contentAddressed(cur.id) && cur.id != sha) {
				s.registerLocked(name, sha, ld.Graph, "dataset sha256="+dataset.ShortSHA(sha))
			}
		}
		delete(s.loads, name)
		s.mu.Unlock()
		f.err = err
		close(f.done)
		if err != nil {
			return nil, err
		}
	}
}

// LoadDataset faults the named dataset into the in-memory registry
// eagerly (the same path queries take lazily) and returns the registered
// graph's info.
func (s *Store) LoadDataset(ctx context.Context, name string) (GraphInfo, error) {
	ge, err := s.faultIn(ctx, name)
	if err != nil {
		return GraphInfo{}, err
	}
	return ge.info, nil
}

// isContextErr reports whether err is a cancellation/deadline error — the
// signature of an abandoned request rather than a failed computation.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// insertLocked stores val under k — overwriting a slot that is already
// there (a peer's push that raced the computation) — and trims the LRU to
// its entry budget from the tail. Caller holds s.mu.
func (s *Store) insertLocked(k string, val any) {
	if el, ok := s.results[k]; ok {
		el.Value.(*entry).val = val
		s.lru.MoveToFront(el)
		return
	}
	s.results[k] = s.lru.PushFront(&entry{key: k, val: val})
	for s.lru.Len() > s.cfg.MaxEntries {
		s.removeLocked(s.lru.Back())
		s.ctrs.Evictions++
		s.cfg.Metrics.eviction()
	}
}

// addCost folds one completed run's metrics into the store-wide totals
// and mirrors the same snapshot into the exposed monotone counters — one
// observation site, so /metrics can never drift from /v1/stats.
func (s *Store) addCost(m bsp.Snapshot) {
	s.cost.AddRounds(m.Rounds)
	s.cost.AddUpdates(m.Updates)
	s.cost.AddMessages(m.Messages)
	s.cfg.Metrics.observeCost(m)
}

// NotFoundError reports a query against an unregistered graph name.
type NotFoundError struct{ Name string }

func (e *NotFoundError) Error() string {
	return fmt.Sprintf("store: graph %q is not registered", e.Name)
}
