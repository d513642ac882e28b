package store

import (
	"context"
	"fmt"
	"time"

	"graphdiam/internal/core"
)

// JobKind names the computation a job runs.
type JobKind string

const (
	JobDecompose JobKind = "decompose"
	JobDiameter  JobKind = "diameter"
)

// JobState is the lifecycle state of a job.
//
//	queued → running → done | failed | cancelled
//
// "running" covers waiting for a compute slot as well as executing; the
// semaphore wait is observable as a running job whose progress is still
// empty.
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (st JobState) Terminal() bool {
	return st == JobDone || st == JobFailed || st == JobCancelled
}

// JobView is an immutable snapshot of a job, JSON-ready for the /v2 API.
type JobView struct {
	ID       string     `json:"id"`
	Kind     JobKind    `json:"kind"`
	Graph    string     `json:"graph"`
	Params   Params     `json:"params"`
	State    JobState   `json:"state"`
	Created  time.Time  `json:"createdAt"`
	Started  *time.Time `json:"startedAt,omitempty"`
	Finished *time.Time `json:"finishedAt,omitempty"`
	// Progress is the latest snapshot from the running computation; nil
	// until the first stage completes (or forever, for cache hits).
	Progress *core.Progress `json:"progress,omitempty"`
	// Cached reports that the result came from the LRU cache or by joining
	// a concurrent identical computation rather than a dedicated run.
	Cached bool `json:"cached"`
	// Error carries the failure message of a failed or cancelled job.
	Error string `json:"error,omitempty"`
	// Result is a DecomposeResult or DiameterResult once State is done.
	Result any `json:"result,omitempty"`
}

// JobEvent is one entry of a job's event stream.
type JobEvent struct {
	// Type is "progress" for a mid-run snapshot, "state" for a lifecycle
	// transition (including the terminal one).
	Type string  `json:"type"`
	Job  JobView `json:"job"`
}

// job is the registry's mutable record. All fields past the immutable
// header are guarded by the store mutex.
type job struct {
	id     string
	kind   JobKind
	graph  string
	params Params
	cancel context.CancelFunc
	done   chan struct{}

	state    JobState
	created  time.Time
	started  time.Time
	finished time.Time
	progress *core.Progress
	cached   bool
	result   any
	err      string
	errVal   error // typed original of err, for API error mapping
	subs     map[int]chan JobEvent
	nextSub  int
}

// viewLocked snapshots the job. Caller holds s.mu.
func (j *job) viewLocked() JobView {
	v := JobView{
		ID:      j.id,
		Kind:    j.kind,
		Graph:   j.graph,
		Params:  j.params,
		State:   j.state,
		Created: j.created,
		Cached:  j.cached,
		Error:   j.err,
		Result:  j.result,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if j.progress != nil {
		p := *j.progress
		v.Progress = &p
	}
	return v
}

// broadcastLocked fans an event out to subscribers. Sends never block: a
// subscriber whose buffer is full misses the event — progress is lossy by
// design, and terminal delivery is guaranteed separately by the channel
// close (consumers refetch the final view after the stream ends).
func (j *job) broadcastLocked(typ string) {
	if len(j.subs) == 0 {
		return
	}
	ev := JobEvent{Type: typ, Job: j.viewLocked()}
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// SubmitJob validates the request, registers a job, and starts it
// asynchronously. The graph must be registered and the parameters valid at
// submission time; later failures surface in the job's terminal state. The
// returned view is the job's initial (queued) snapshot.
func (s *Store) SubmitJob(kind JobKind, graphName string, p Params) (JobView, error) {
	_, view, err := s.submitJob(kind, graphName, p)
	return view, err
}

// RunJobSync submits a job and blocks until it finishes or ctx is done —
// the synchronous compatibility path of the v1 API. It waits on the job
// itself, not the registry, so the result survives even if the terminal
// job is evicted by a concurrent submission burst. The returned error is
// the typed original (e.g. *NotFoundError, context.Canceled), suitable for
// API status mapping; when ctx expires first the job is cancelled and
// ctx's error returned.
func (s *Store) RunJobSync(ctx context.Context, kind JobKind, graphName string, p Params) (JobView, error) {
	j, _, err := s.submitJob(kind, graphName, p)
	if err != nil {
		return JobView{}, err
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		j.cancel()
		return JobView{}, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.viewLocked(), j.errVal
}

// submitJob is the registration half shared by SubmitJob and RunJobSync.
func (s *Store) submitJob(kind JobKind, graphName string, p Params) (*job, JobView, error) {
	switch kind {
	case JobDecompose, JobDiameter:
	default:
		return nil, JobView{}, fmt.Errorf("store: unknown job kind %q (want decompose or diameter)", kind)
	}
	p = p.normalized()
	if _, err := p.options(); err != nil {
		return nil, JobView{}, err
	}

	if ge, id := s.resolve(graphName); ge == nil && id == "" {
		// Neither resident nor in the local manifest — still submittable
		// when the catalog can adopt a peer's record through a remote blob
		// backend (the job's compute path then faults the snapshot in
		// lazily). Like resolve's own lookup this runs outside s.mu: a
		// remote lookup adds network latency.
		known := false
		if s.cfg.Catalog != nil {
			_, ierr := s.cfg.Catalog.Resolve(graphName)
			known = ierr == nil
		}
		if !known {
			return nil, JobView{}, &NotFoundError{Name: graphName}
		}
	}

	s.mu.Lock()
	ctx, cancel := context.WithCancel(s.baseCtx)
	s.nextJob++
	// Fleet members mint rank-qualified IDs ("job-r<rank>-<seq>") so the
	// routing layer can send /v2/jobs/{id} requests home to the node that
	// owns the job's registry entry and event stream. The rank is read
	// from the current placement view, the same view routing resolves it
	// against.
	id := fmt.Sprintf("job-%06d", s.nextJob)
	if fc := s.cfg.FleetCache; fc != nil {
		id = fmt.Sprintf("job-r%d-%06d", fc.Rank(), s.nextJob)
	}
	j := &job{
		id:      id,
		kind:    kind,
		graph:   graphName,
		params:  p,
		cancel:  cancel,
		done:    make(chan struct{}),
		state:   JobQueued,
		created: s.now(),
		subs:    make(map[int]chan JobEvent),
	}
	s.jobs[j.id] = j
	s.jobOrder = append(s.jobOrder, j.id)
	s.evictJobsLocked()
	view := j.viewLocked()
	// Track the goroutine for Close's join — but never Add concurrently
	// with an in-progress Wait: post-Close submissions run untracked (they
	// cancel immediately under the already-dead baseCtx anyway).
	tracked := !s.closed
	if tracked {
		s.jobsWG.Add(1)
	}
	s.mu.Unlock()

	go s.runJob(ctx, j, tracked)
	return j, view, nil
}

// runJob executes one job to its terminal state.
func (s *Store) runJob(ctx context.Context, j *job, tracked bool) {
	if tracked {
		defer s.jobsWG.Done()
	}
	s.mu.Lock()
	j.state = JobRunning
	j.started = s.now()
	j.broadcastLocked("state")
	s.mu.Unlock()

	progress := func(p core.Progress) {
		s.mu.Lock()
		j.progress = &p
		j.broadcastLocked("progress")
		s.mu.Unlock()
	}

	var (
		result any
		cached bool
		err    error
	)
	switch j.kind {
	case JobDecompose:
		result, cached, err = s.DecomposeObserved(ctx, j.graph, j.params, progress)
	case JobDiameter:
		result, cached, err = s.DiameterObserved(ctx, j.graph, j.params, progress)
	}

	s.mu.Lock()
	j.finished = s.now()
	j.cached = cached
	j.errVal = err
	switch {
	case err == nil:
		j.state = JobDone
		j.result = result
	case isContextErr(err):
		j.state = JobCancelled
		j.err = err.Error()
	default:
		j.state = JobFailed
		j.err = err.Error()
	}
	j.broadcastLocked("state")
	for _, ch := range j.subs {
		close(ch)
	}
	j.subs = make(map[int]chan JobEvent)
	state, lifetime := j.state, j.finished.Sub(j.created)
	s.mu.Unlock()
	s.cfg.Metrics.jobFinished(state, lifetime)
	close(j.done)
}

// Job returns a snapshot of the job with the given id.
func (s *Store) Job(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return j.viewLocked(), true
}

// Jobs lists all retained jobs in submission order. Listings omit the
// Result payload — fetch the individual job for it — so enumerating a full
// registry stays cheap regardless of result sizes.
func (s *Store) Jobs() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.jobOrder))
	for _, id := range s.jobOrder {
		v := s.jobs[id].viewLocked()
		v.Result = nil
		out = append(out, v)
	}
	return out
}

// CancelJob requests cancellation of the job with the given id and returns
// its snapshot. Cancelling a terminal job is a no-op; the running BSP
// engine otherwise observes the cancellation at its next superstep barrier
// and the job transitions to cancelled shortly after.
func (s *Store) CancelJob(id string) (JobView, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobView{}, false
	}
	view := j.viewLocked()
	s.mu.Unlock()
	if !view.State.Terminal() {
		j.cancel()
	}
	return view, true
}

// WaitJob blocks until the job reaches a terminal state or ctx is
// cancelled, returning the job's (then-final) snapshot.
func (s *Store) WaitJob(ctx context.Context, id string) (JobView, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobView{}, fmt.Errorf("store: job %q is not registered", id)
	}
	select {
	case <-j.done:
		s.mu.Lock()
		defer s.mu.Unlock()
		return j.viewLocked(), nil
	case <-ctx.Done():
		return JobView{}, ctx.Err()
	}
}

// SubscribeJob registers an event subscriber for the job, returning the
// job's snapshot taken atomically with the registration: every event
// delivered on the channel is strictly newer than the snapshot, so a
// consumer that renders the snapshot first observes monotone progress.
// Events are delivered best-effort (slow consumers miss intermediate
// snapshots, never block the computation); the channel is closed when the
// job reaches a terminal state, after which the consumer should refetch
// the final view. The returned cancel function must be called to release
// the subscription. ok is false when the job id is unknown; an
// already-terminal job yields a closed channel.
func (s *Store) SubscribeJob(id string) (snapshot JobView, events <-chan JobEvent, cancel func(), ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, okJob := s.jobs[id]
	if !okJob {
		return JobView{}, nil, nil, false
	}
	snapshot = j.viewLocked()
	ch := make(chan JobEvent, 64)
	if j.state.Terminal() {
		close(ch)
		return snapshot, ch, func() {}, true
	}
	n := j.nextSub
	j.nextSub++
	j.subs[n] = ch
	return snapshot, ch, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, live := j.subs[n]; live {
			delete(j.subs, n)
		}
	}, true
}

// evictJobsLocked drops the oldest terminal jobs while the registry
// exceeds its retention bound. Live jobs are never evicted, so the
// registry can transiently exceed MaxJobs under a burst of submissions.
// Caller holds s.mu.
func (s *Store) evictJobsLocked() {
	if len(s.jobOrder) <= s.cfg.MaxJobs {
		return
	}
	kept := s.jobOrder[:0]
	excess := len(s.jobOrder) - s.cfg.MaxJobs
	for _, id := range s.jobOrder {
		if excess > 0 && s.jobs[id].state.Terminal() {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.jobOrder = kept
}

// jobCountsLocked tallies jobs by state. Caller holds s.mu.
func (s *Store) jobCountsLocked() JobCounts {
	var c JobCounts
	for _, j := range s.jobs {
		switch j.state {
		case JobQueued:
			c.Queued++
		case JobRunning:
			c.Running++
		case JobDone:
			c.Done++
		case JobFailed:
			c.Failed++
		case JobCancelled:
			c.Cancelled++
		}
	}
	return c
}
