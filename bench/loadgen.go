package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// newClient returns an HTTP client that keeps at most conns connections
// per daemon, so the load a phase offers is bounded by design and not by
// whatever the default transport would open.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        4 * conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// call is one request the load generator can send.
type call struct {
	method string
	url    string
	body   []byte
	id     string // X-Request-Id, set on traced runs
}

// do sends c and returns the status and the whole body.
func do(client *http.Client, c call) (int, []byte, error) {
	req, err := http.NewRequest(c.method, c.url, bytes.NewReader(c.body))
	if err != nil {
		return 0, nil, err
	}
	if c.id != "" {
		req.Header.Set("X-Request-Id", c.id)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// sample is one completed request of a load phase.
type sample struct {
	class   int           // caller-defined request class
	id      string        // the X-Request-Id sent, if any
	latency time.Duration // closed loop: send→reply; open loop: due→reply
	late    time.Duration // open loop: how long after its due time it was sent
	start   time.Time
	end     time.Time
	ok      bool
}

// closedLoop runs clients goroutines for d; each sends its next request
// only after the previous one completed, so a slow system receives less
// load. next produces request i of a client (and its class); check
// validates the reply.
func closedLoop(client *http.Client, clients int, d time.Duration,
	next func(client, i int) (call, int), check func(class int, status int, body []byte) bool) []sample {
	var (
		wg  sync.WaitGroup
		out = make([][]sample, clients)
	)
	stop := time.Now().Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(stop); i++ {
				req, class := next(c, i)
				t0 := time.Now()
				status, body, err := do(client, req)
				t1 := time.Now()
				ok := err == nil && check(class, status, body)
				out[c] = append(out[c], sample{class: class, id: req.id, latency: t1.Sub(t0), start: t0, end: t1, ok: ok})
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, s := range out {
		all = append(all, s...)
	}
	return all
}

// poissonSchedule returns the due offsets of a Poisson arrival process of
// the given rate over d: exponential gaps drawn from rng, so the same seed
// gives the same schedule.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	limit := d.Seconds()
	for {
		t += -math.Log(1-rng.Float64()) / rate
		if t >= limit {
			return due
		}
		due = append(due, time.Duration(t*float64(time.Second)))
	}
}

// openLoopSample turns the three instants of an open-loop request into
// its sample: latency counts from the due time, so the wait a stall
// imposes on later requests is charged to them, and late is how far
// behind schedule the generator sent it.
func openLoopSample(class int, due, sent, done time.Time, ok bool) sample {
	late := sent.Sub(due)
	if late < 0 {
		late = 0
	}
	return sample{class: class, latency: done.Sub(due), late: late, start: sent, end: done, ok: ok}
}

// maxInFlight bounds the goroutines an open-loop phase may have waiting
// on replies. Reaching it means the system fell hopelessly behind the
// schedule; such requests are recorded as failed instead of piling up.
const maxInFlight = 256

// openLoop sends request i at start+due[i] whether or not earlier ones
// have completed — independent users, not callers waiting for replies.
func openLoop(client *http.Client, due []time.Duration,
	next func(i int) (call, int), check func(class int, status int, body []byte) bool) []sample {
	out := make([]sample, len(due))
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	start := time.Now()
	for i, off := range due {
		dueAt := start.Add(off)
		if wait := time.Until(dueAt); wait > 0 {
			time.Sleep(wait)
		}
		req, class := next(i)
		select {
		case sem <- struct{}{}:
		default:
			now := time.Now()
			out[i] = openLoopSample(class, dueAt, now, now, false)
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			sent := time.Now()
			status, body, err := do(client, req)
			done := time.Now()
			out[i] = openLoopSample(class, dueAt, sent, done, err == nil && check(class, status, body))
			out[i].id = req.id
		}(i)
	}
	wg.Wait()
	return out
}

// latenciesMS extracts the latencies of one class (or all for class < 0)
// in milliseconds.
func latenciesMS(samples []sample, class int) []float64 {
	var out []float64
	for _, s := range samples {
		if class < 0 || s.class == class {
			out = append(out, float64(s.latency)/float64(time.Millisecond))
		}
	}
	return out
}

func countFailed(samples []sample) int64 {
	n := int64(0)
	for _, s := range samples {
		if !s.ok {
			n++
		}
	}
	return n
}

func requestID(phase string, i int) string { return fmt.Sprintf("bench-%s-%d", phase, i) }
