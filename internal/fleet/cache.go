package fleet

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"time"
)

// Cache is the client side of the fleet-wide result cache: before a node
// runs a BSP computation for a dataset-backed query it probes its peers'
// GET /v2/cache/{key} endpoints (a cache key is dataset SHA-256 plus the
// canonical query parameters, so content addressing makes cross-node
// reuse exact); after computing it pushes the result to the key's top-k
// rendezvous replicas, so deterministic routing finds it on the owner
// and the failover chain keeps serving it when the owner dies. Both
// sides are best-effort: a probe miss or a failed push costs one
// recomputation, never correctness.
//
// Probes are classified, not all-or-nothing: a 4xx from a peer is a
// definitive miss (skip it), while a 5xx or transport error is transient
// — worth one jittered retry against the same peer before moving down
// the preference chain. Every probe and push is epoch-stamped; a peer on
// a newer view rejects with its view attached, which the client adopts.
//
// Cache implements store.FleetCache.
type Cache struct {
	t *Table

	// client performs probe/push requests.
	client *http.Client
	// timeout bounds one probe or push attempt.
	timeout time.Duration
	// maxProbes caps how many peers one Get consults.
	maxProbes int
	// maxBody caps an accepted cached-result body.
	maxBody int64
	// replicas is how many preference-chain members receive a Put.
	replicas int
	// metrics observes probe outcomes; nil disables.
	metrics *Metrics

	wg     sync.WaitGroup
	mu     sync.Mutex
	closed bool
}

// CacheOptions tunes a Cache. Zero values select the defaults.
type CacheOptions struct {
	// Client performs probe and push requests; nil selects a dedicated
	// client (probes must not ride a client with unbounded timeouts).
	Client *http.Client
	// Timeout bounds one probe or push attempt. Default 3s.
	Timeout time.Duration
	// MaxProbes caps the peers consulted per Get, in preference order.
	// Default 3.
	MaxProbes int
	// MaxBody caps the size of an accepted cached result. Default 8 MiB.
	MaxBody int64
	// Replicas is the read replication factor k: a Put lands on the
	// first k live members of the key's preference chain (self included
	// in the count — it already holds the result locally). Default 1
	// (owner only).
	Replicas int
	// Metrics observes probe outcomes; nil disables metric recording.
	Metrics *Metrics
}

// NewCache builds the fleet cache client over a membership table.
func NewCache(t *Table, opts CacheOptions) *Cache {
	if opts.Timeout <= 0 {
		opts.Timeout = 3 * time.Second
	}
	if opts.MaxProbes <= 0 {
		opts.MaxProbes = 3
	}
	if opts.MaxBody <= 0 {
		opts.MaxBody = 8 << 20
	}
	if opts.Replicas <= 0 {
		opts.Replicas = 1
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: opts.Timeout}
	}
	return &Cache{
		t:         t,
		client:    opts.Client,
		timeout:   opts.Timeout,
		maxProbes: opts.MaxProbes,
		maxBody:   opts.MaxBody,
		replicas:  opts.Replicas,
		metrics:   opts.Metrics,
	}
}

// cacheURL renders the /v2/cache URL for key on a member. The key holds
// '|' and '=' from the canonical parameter string, so it travels
// path-escaped.
func cacheURL(base, key string) string {
	return base + "/v2/cache/" + url.PathEscape(key)
}

// Get probes live peers for key in rendezvous-preference order (the
// owner first — deterministic routing makes it the most likely holder),
// capped at MaxProbes, and returns the first cached result found. Self
// is skipped: the caller already missed its local cache. A transient
// failure (5xx, timeout, connection refused) earns the peer one jittered
// retry; a definitive 4xx moves straight to the next preference member.
func (c *Cache) Get(ctx context.Context, key string) ([]byte, bool) {
	probed := 0
	for _, m := range c.t.Preference(key) {
		if probed >= c.maxProbes {
			break
		}
		if m.Rank == c.t.Self() || !c.t.Live(m.Rank) {
			continue
		}
		probed++
		b, outcome := c.probe(ctx, m.URL, key)
		c.metrics.CacheProbe(outcome)
		if outcome == probeTransient {
			// One jittered retry before giving up on this peer: flaky is
			// not dead, and the owner is by far the most likely holder.
			select {
			case <-time.After(time.Duration(rand.Int63n(int64(50 * time.Millisecond)))):
			case <-ctx.Done():
				return nil, false
			}
			b, outcome = c.probe(ctx, m.URL, key)
			c.metrics.CacheProbe(outcome)
		}
		if outcome == probeHit {
			return b, true
		}
		if ctx.Err() != nil {
			return nil, false
		}
	}
	return nil, false
}

// probe outcomes.
type probeOutcome int

const (
	probeHit       probeOutcome = iota // cached bytes returned
	probeMiss                          // definitive miss (404/other 4xx) — skip peer
	probeTransient                     // 5xx or transport error — retry once
)

func (c *Cache) probe(ctx context.Context, base, key string) ([]byte, probeOutcome) {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cacheURL(base, key), nil)
	if err != nil {
		return nil, probeMiss
	}
	StampEpoch(req.Header, c.t.Epoch())
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, probeTransient
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		b, err := io.ReadAll(io.LimitReader(resp.Body, c.maxBody+1))
		if err != nil || int64(len(b)) > c.maxBody || len(b) == 0 {
			// A cut-off or oversized body is transient damage, not a miss.
			return nil, probeTransient
		}
		return b, probeHit
	case IsEpochMismatch(resp):
		// The peer runs a different view; adopt it when newer and treat
		// the probe as transient — the retry goes out under the repaired
		// epoch.
		if v, ok := DecodeViewError(resp.Body); ok {
			c.t.AdoptIfNewer(v)
		}
		return nil, probeTransient
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
		return nil, probeMiss
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
		return nil, probeTransient
	}
}

// Put pushes a freshly computed result to the first k live members of
// the key's preference chain in the background (fire-and-forget with a
// bounded timeout per target). Self is skipped — the result already
// sits in the local LRU — but still counts toward k, so with k=1 an
// owner that computed its own key pushes nothing, exactly the pre-
// replication behavior.
func (c *Cache) Put(key string, body []byte) {
	for _, m := range c.t.Replicas(key, c.replicas) {
		if m.Rank == c.t.Self() {
			continue
		}
		c.push(m.URL, key, body)
	}
}

// PushSuccessor hands key's cached bytes to the first live non-self
// member of its preference chain, synchronously — the drain path's
// cache pre-warming, where "fire and forget" would race the process
// exit. Reports whether a successor accepted the entry.
func (c *Cache) PushSuccessor(key string, body []byte) bool {
	for _, m := range c.t.Preference(key) {
		if m.Rank == c.t.Self() || !c.t.Live(m.Rank) {
			continue
		}
		return c.pushOnce(m.URL, key, body) == nil
	}
	return false
}

// Rank returns this node's rank in the table's current view.
func (c *Cache) Rank() int { return c.t.Self() }

// push enqueues one background best-effort push.
func (c *Cache) push(base, key string, body []byte) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.wg.Add(1)
	c.mu.Unlock()
	go func() {
		defer c.wg.Done()
		c.pushOnce(base, key, body)
	}()
}

// pushOnce performs one epoch-stamped PUT, adopting the peer's view on
// an epoch-mismatch rejection and retrying once under the new epoch.
func (c *Cache) pushOnce(base, key string, body []byte) error {
	for attempt := 0; attempt < 2; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
		req, err := http.NewRequestWithContext(ctx, http.MethodPut, cacheURL(base, key), bytes.NewReader(body))
		if err != nil {
			cancel()
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		StampEpoch(req.Header, c.t.Epoch())
		resp, err := c.client.Do(req)
		if err != nil {
			cancel()
			return err
		}
		mismatch := IsEpochMismatch(resp)
		if mismatch {
			if v, ok := DecodeViewError(resp.Body); ok {
				c.t.AdoptIfNewer(v)
			}
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
		resp.Body.Close()
		cancel()
		if !mismatch {
			if resp.StatusCode >= 300 {
				return &url.Error{Op: "Put", URL: cacheURL(base, key), Err: errStatus(resp.StatusCode)}
			}
			return nil
		}
	}
	return &url.Error{Op: "Put", URL: cacheURL(base, key), Err: errStatus(http.StatusConflict)}
}

type errStatus int

func (e errStatus) Error() string { return "unexpected status " + http.StatusText(int(e)) }

// Close waits for in-flight background pushes; new pushes are dropped.
func (c *Cache) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.wg.Wait()
}
