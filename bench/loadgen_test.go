package main

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoissonScheduleIsSeededAndHasTheRate(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(7)), 200, 10*time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 200, 10*time.Second)
	c := poissonSchedule(rand.New(rand.NewSource(8)), 200, 10*time.Second)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, arrival %d differs: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i] <= a[i-1] {
			t.Fatalf("arrivals not increasing at %d", i)
		}
		if a[i] >= 10*time.Second {
			t.Fatalf("arrival %d at %v is past the window", i, a[i])
		}
	}
	if len(c) == len(a) && c[0] == a[0] {
		t.Error("another seed gave the same schedule")
	}
	// 2000 expected, standard deviation ~45.
	if n := len(a); n < 1800 || n > 2200 {
		t.Errorf("%d arrivals in 10 s at 200/s", n)
	}
	// Exponential gaps: the median gap is ln2/rate, far below the mean.
	gaps := make([]float64, len(a)-1)
	for i := range gaps {
		gaps[i] = (a[i+1] - a[i]).Seconds()
	}
	if med := median(gaps); med < 0.0028 || med > 0.0042 {
		t.Errorf("median gap %v s, want about ln2/200 = 0.0035", med)
	}
}

func TestOpenLoopSampleCountsFromDueTime(t *testing.T) {
	base := time.Unix(1000, 0)
	s := openLoopSample(3, base, base.Add(4*time.Millisecond), base.Add(10*time.Millisecond), true)
	if s.latency != 10*time.Millisecond {
		t.Errorf("latency %v, want 10ms from the due time (not 6ms from the send)", s.latency)
	}
	if s.late != 4*time.Millisecond || s.class != 3 || !s.ok {
		t.Errorf("sample %+v", s)
	}
	early := openLoopSample(0, base, base.Add(-time.Millisecond), base.Add(time.Millisecond), true)
	if early.late != 0 {
		t.Errorf("a request sent early is %v late, want 0", early.late)
	}
}

// A stall on the first request must be charged to the requests queued
// behind it: with one connection, request 2 cannot be sent until request
// 1 returns, and its latency counts from when it was due.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	var n atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if n.Add(1) == 1 {
			time.Sleep(80 * time.Millisecond)
		}
	}))
	defer srv.Close()
	client := newClient(1)
	defer client.CloseIdleConnections()
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond}
	samples := openLoop(client, due,
		func(i int) (call, int) { return call{method: "GET", url: srv.URL}, i },
		func(_, status int, _ []byte) bool { return status == http.StatusOK })
	if failed := countFailed(samples); failed != 0 {
		t.Fatalf("%d requests failed", failed)
	}
	if samples[0].latency < 80*time.Millisecond {
		t.Errorf("stalled request took %v", samples[0].latency)
	}
	// Request 1 was due at 10 ms and could not complete before ~80 ms.
	if samples[1].latency < 60*time.Millisecond {
		t.Errorf("request behind the stall shows %v; the wait was not charged to it", samples[1].latency)
	}
	// The generator itself stayed on schedule: it handed request 1 over
	// close to its due time even though the connection was busy.
	if samples[1].late > 30*time.Millisecond {
		t.Errorf("generator ran %v late", samples[1].late)
	}
	if got := latenciesMS(samples, 1); len(got) != 1 {
		t.Errorf("class filter returned %d samples, want 1", len(got))
	}
}

func TestClosedLoopWaitsForEachReply(t *testing.T) {
	var inFlight, maxInFlight atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		cur := inFlight.Add(1)
		for {
			m := maxInFlight.Load()
			if cur <= m || maxInFlight.CompareAndSwap(m, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
	}))
	defer srv.Close()
	client := newClient(2)
	defer client.CloseIdleConnections()
	samples := closedLoop(client, 2, 100*time.Millisecond,
		func(c, i int) (call, int) { return call{method: "GET", url: srv.URL}, c },
		func(_, status int, _ []byte) bool { return status == http.StatusOK })
	if len(samples) < 10 || countFailed(samples) != 0 {
		t.Fatalf("%d samples, %d failed", len(samples), countFailed(samples))
	}
	if m := maxInFlight.Load(); m > 2 {
		t.Errorf("%d requests in flight with 2 closed-loop clients", m)
	}
}
