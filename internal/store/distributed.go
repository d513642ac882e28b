package store

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"graphdiam/internal/bsp"
	"graphdiam/internal/bsp/transport"
	"graphdiam/internal/graph"
)

// DistributedConfig wires one daemon into a fixed fleet. Every daemon in
// the fleet is configured with the same Peers list (rank order matters —
// rank r owns the r-th contiguous worker range) and its own Rank.
type DistributedConfig struct {
	// Rank is this daemon's index into Peers.
	Rank int
	// Peers lists every daemon's base URL in rank order, self included.
	Peers []string
	// BarrierTimeout bounds each superstep's wait for remote frames; 0
	// selects transport.DefaultBarrierTimeout.
	BarrierTimeout time.Duration
	// Client performs peer POSTs; nil selects the transport default.
	Client *http.Client
}

func (dc *DistributedConfig) validate() error {
	if len(dc.Peers) == 0 {
		return fmt.Errorf("store: distributed config needs at least one peer URL")
	}
	if dc.Rank < 0 || dc.Rank >= len(dc.Peers) {
		return fmt.Errorf("store: rank %d out of range for %d peers", dc.Rank, len(dc.Peers))
	}
	return nil
}

// DistJobRequest is the fan-out payload the coordinator POSTs to every
// remote daemon: one fleet-wide run, fully specified, so each participant
// executes the identical deterministic driver on its own worker range.
// Params must already be normalized by the coordinator — all peers must
// agree on every knob, Workers above all.
type DistJobRequest struct {
	RunID  string `json:"runId"`
	Graph  string `json:"graph"`
	Op     string `json:"op"` // "decompose" or "diameter"
	Params Params `json:"params"`
}

func (r DistJobRequest) validate() error {
	if r.RunID == "" {
		return fmt.Errorf("store: distributed job needs a run ID")
	}
	if r.Graph == "" {
		return fmt.Errorf("store: distributed job needs a graph name")
	}
	if r.Op != "decompose" && r.Op != "diameter" {
		return fmt.Errorf("store: unknown distributed op %q", r.Op)
	}
	return nil
}

// BSPRegistry returns the daemon's frame inbox registry — the server mounts
// it at /v2/bsp/frames. Non-nil even when distribution is unconfigured, so
// the route can answer (with an empty registry) unconditionally.
func (s *Store) BSPRegistry() *transport.Registry { return s.bspReg }

// DistributedEnabled reports whether this daemon is part of a fleet.
func (s *Store) DistributedEnabled() bool { return s.cfg.Distributed != nil }

// DistributedInfo returns this daemon's rank and the fleet's peer URLs.
func (s *Store) DistributedInfo() (rank int, peers []string, ok bool) {
	dc := s.cfg.Distributed
	if dc == nil {
		return 0, nil, false
	}
	return dc.Rank, append([]string(nil), dc.Peers...), true
}

var distRunSeq atomic.Uint64

// normalizeDistParams pins every fleet-sensitive knob before fan-out. The
// worker count is the one parameter single-process callers may leave 0
// ("all cores") — that is machine-dependent and therefore illegal in a
// fleet, so it defaults to a deterministic function of the fleet size.
func (dc *DistributedConfig) normalizeDistParams(p Params) (Params, error) {
	p = p.normalized()
	peers := len(dc.Peers)
	if p.Workers == 0 {
		p.Workers = 4 * peers
	}
	if p.Workers < peers {
		return p, fmt.Errorf("store: %d workers cannot be split across %d daemons", p.Workers, peers)
	}
	return p, nil
}

// DistributedDecompose runs one decomposition across the whole fleet, this
// daemon acting as coordinator: it fans the job out to every remote daemon,
// participates as its own rank, and returns its replica of the result —
// which, by the transport-equivalence guarantee, is bit-identical on every
// peer and to a single-process run with the same worker count.
func (s *Store) DistributedDecompose(ctx context.Context, graphName string, p Params) (DecomposeResult, error) {
	val, err := s.coordinate(ctx, "decompose", graphName, p)
	if err != nil {
		return DecomposeResult{}, err
	}
	return val.(DecomposeResult), nil
}

// DistributedDiameter is DistributedDecompose for CL-DIAM diameter runs.
func (s *Store) DistributedDiameter(ctx context.Context, graphName string, p Params) (DiameterResult, error) {
	val, err := s.coordinate(ctx, "diameter", graphName, p)
	if err != nil {
		return DiameterResult{}, err
	}
	return val.(DiameterResult), nil
}

func (s *Store) coordinate(ctx context.Context, op, graphName string, p Params) (any, error) {
	dc := s.cfg.Distributed
	if dc == nil {
		return nil, fmt.Errorf("store: distributed mode is not configured")
	}
	p, err := dc.normalizeDistParams(p)
	if err != nil {
		return nil, err
	}
	req := DistJobRequest{
		RunID:  fmt.Sprintf("%s-%d-%d-%d", op, dc.Rank, s.now().UnixNano(), distRunSeq.Add(1)),
		Graph:  graphName,
		Op:     op,
		Params: p,
	}
	// Fan out to every remote daemon first: each starts a participant that
	// begins stepping immediately (frames arriving before our own
	// participant opens the run are buffered by the registry).
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	client := dc.Client
	if client == nil {
		client = http.DefaultClient
	}
	var wg sync.WaitGroup
	errs := make([]error, len(dc.Peers))
	for q, peer := range dc.Peers {
		if q == dc.Rank {
			continue
		}
		wg.Add(1)
		go func(q int, peer string) {
			defer wg.Done()
			errs[q] = postJSON(ctx, client, peer+"/v2/distributed/run", body)
		}(q, peer)
	}
	wg.Wait()
	for q, err := range errs {
		if err != nil {
			return nil, transport.Errorf(transport.ErrUnreachable, q, 0,
				"fan out to %s: %v", dc.Peers[q], err)
		}
	}
	return s.runDistributedJob(ctx, req)
}

func postJSON(ctx context.Context, client *http.Client, url string, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return nil
}

// StartDistributedParticipant launches this daemon's share of a fleet run
// in the background (the coordinator's fan-out endpoint). The goroutine is
// jobsWG-tracked: Close joins it, exactly like local async jobs, so daemon
// shutdown never abandons a run mid-superstep. The participant's result is
// a replica of the coordinator's and is dropped; failures count in the
// store's error counter.
func (s *Store) StartDistributedParticipant(req DistJobRequest) error {
	if s.cfg.Distributed == nil {
		return fmt.Errorf("store: distributed mode is not configured")
	}
	if err := req.validate(); err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("store: closed")
	}
	s.jobsWG.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.jobsWG.Done()
		if _, err := s.runDistributedJob(s.baseCtx, req); err != nil && !isContextErr(err) {
			s.mu.Lock()
			s.ctrs.Errors++
			s.mu.Unlock()
		}
	}()
	return nil
}

// runDistributedJob executes this daemon's rank of one fleet run: fault the
// graph in (datasets are adopted from the blob tier by content address, so
// every daemon materializes the identical graph), take a compute slot, and
// drive the algorithm on a network-backed engine.
func (s *Store) runDistributedJob(ctx context.Context, req DistJobRequest) (any, error) {
	dc := s.cfg.Distributed
	if err := req.validate(); err != nil {
		return nil, err
	}
	ge, err := s.faultIn(ctx, req.Graph)
	if err != nil {
		return nil, err
	}
	select {
	case s.sem <- struct{}{}:
		s.cfg.Metrics.slotAcquired()
		defer func() {
			s.cfg.Metrics.slotReleased()
			<-s.sem
		}()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	tr, err := transport.NewHTTP(ctx, transport.HTTPConfig{
		RunID:          req.RunID,
		Rank:           dc.Rank,
		PeerURLs:       dc.Peers,
		Registry:       s.bspReg,
		Client:         dc.Client,
		BarrierTimeout: dc.BarrierTimeout,
	})
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	e, err := bsp.NewDistributed(req.Params.Workers, tr)
	if err != nil {
		return nil, err
	}
	val, err := s.runOpWith(ctx, req, ge.g, e)
	if err != nil {
		return nil, err
	}
	return val, nil
}

func (s *Store) runOpWith(ctx context.Context, req DistJobRequest, g *graph.Graph, e *bsp.Engine) (any, error) {
	o, err := req.Params.optionsFor(e)
	if err != nil {
		e.Close()
		return nil, err
	}
	if req.Op == "diameter" {
		return s.diameterWith(ctx, req.Graph, g, req.Params, o, nil)
	}
	return s.decomposeWith(ctx, req.Graph, g, req.Params, o, nil)
}
