package fleet

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// ChaosTransport is a deterministic fault-injecting http.RoundTripper —
// PR 6's seeded-fault philosophy applied to the query plane. Every fault
// decision is a pure function of (seed, request key, per-key attempt
// number). The request key is method+host+path, so retries of the same
// logical call advance through the schedule while unrelated calls stay
// independent. A seed therefore replays the exact same drop/500/cut/delay
// schedule only for fixed hosts: against an httptest server, whose port
// changes every run, one seed is a different schedule each time. A test
// that asserts on the schedule serves its peers from an in-process Base
// under a fixed host.
type ChaosTransport struct {
	// Base performs the real requests; nil selects http.DefaultTransport.
	Base http.RoundTripper
	// Seed selects the fault schedule.
	Seed uint64
	// DropProb is the probability an attempt fails with a transport
	// error before reaching the wire.
	DropProb float64
	// FailProb is the probability a delivered response is replaced with
	// a synthetic 500.
	FailProb float64
	// CutProb is the probability a delivered response body is cut mid-
	// stream (the reader yields half the bytes, then an error).
	CutProb float64
	// DelayProb is the probability an attempt is delayed by Delay first.
	DelayProb float64
	// Delay is the injected latency for delayed attempts. Default 5ms.
	Delay time.Duration
	// Metrics observes injected faults by kind; nil disables.
	Metrics *Metrics

	mu       sync.Mutex
	attempts map[string]uint64
	faults   uint64 // total faults injected, for test assertions
}

// chaosRoll derives the nth uniform [0,1) variate for one attempt of one
// request key under one seed.
func chaosRoll(seed uint64, key string, attempt, n uint64) float64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	x := mix64(seed ^ mix64(h.Sum64()) ^ mix64(attempt*0x9e3779b97f4a7c15+n))
	return float64(x>>11) / float64(1<<53)
}

// Faults reports how many faults the transport has injected.
func (c *ChaosTransport) Faults() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.faults
}

func (c *ChaosTransport) recordFault(kind string) {
	c.mu.Lock()
	c.faults++
	c.mu.Unlock()
	c.Metrics.ChaosFault(kind)
}

// RoundTrip applies the seeded fault schedule to one attempt.
func (c *ChaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	key := req.Method + " " + req.URL.Host + req.URL.Path
	c.mu.Lock()
	if c.attempts == nil {
		c.attempts = make(map[string]uint64)
	}
	attempt := c.attempts[key]
	c.attempts[key] = attempt + 1
	c.mu.Unlock()

	if c.DelayProb > 0 && chaosRoll(c.Seed, key, attempt, 3) < c.DelayProb {
		d := c.Delay
		if d <= 0 {
			d = 5 * time.Millisecond
		}
		select {
		case <-time.After(d):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	if c.DropProb > 0 && chaosRoll(c.Seed, key, attempt, 0) < c.DropProb {
		c.recordFault("drop")
		return nil, fmt.Errorf("chaos: dropped %s (attempt %d)", key, attempt)
	}

	base := c.Base
	if base == nil {
		base = http.DefaultTransport
	}
	resp, err := base.RoundTrip(req)
	if err != nil {
		return nil, err
	}

	if c.FailProb > 0 && chaosRoll(c.Seed, key, attempt, 1) < c.FailProb {
		c.recordFault("500")
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		body := []byte(`{"error":"chaos: injected internal error"}`)
		return &http.Response{
			Status:        "500 Internal Server Error",
			StatusCode:    http.StatusInternalServerError,
			Proto:         resp.Proto,
			ProtoMajor:    resp.ProtoMajor,
			ProtoMinor:    resp.ProtoMinor,
			Header:        http.Header{"Content-Type": {"application/json"}, "Content-Length": {strconv.Itoa(len(body))}},
			Body:          io.NopCloser(bytes.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	}
	if c.CutProb > 0 && chaosRoll(c.Seed, key, attempt, 2) < c.CutProb {
		c.recordFault("cut")
		resp.Body = &cutBody{rc: resp.Body}
		resp.ContentLength = -1
		resp.Header.Del("Content-Length")
	}
	return resp, nil
}

// cutBody relays roughly half of the underlying body, then fails the
// stream — the mid-body network cut. The consumer sees a read error,
// never an EOF it could mistake for a complete response.
type cutBody struct {
	rc   io.ReadCloser
	read int
	done bool
}

func (c *cutBody) Read(p []byte) (int, error) {
	if c.done {
		return 0, fmt.Errorf("chaos: body cut after %d bytes", c.read)
	}
	if len(p) > 512 {
		p = p[:512]
	}
	n, err := c.rc.Read(p)
	c.read += n
	if c.read >= 512 || err == io.EOF {
		// Cut before a clean EOF can be observed.
		c.done = true
		if n > 0 {
			n /= 2
		}
		return n, fmt.Errorf("chaos: body cut after %d bytes", c.read)
	}
	return n, err
}

func (c *cutBody) Close() error { return c.rc.Close() }
