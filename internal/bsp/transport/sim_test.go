package transport

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// stepFleet drives one lockstep Step on every live peer concurrently and
// returns per-rank results.
func stepFleet(trs []Transport, step uint64, outs [][][]byte) ([][][]byte, []error) {
	ins := make([][][]byte, len(trs))
	errs := make([]error, len(trs))
	var wg sync.WaitGroup
	for r := range trs {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ins[r], errs[r] = trs[r].Step(step, outs[r])
		}(r)
	}
	wg.Wait()
	return ins, errs
}

func fleetOuts(peers int, step uint64) [][][]byte {
	outs := make([][][]byte, peers)
	for r := 0; r < peers; r++ {
		outs[r] = make([][]byte, peers)
		for q := 0; q < peers; q++ {
			outs[r][q] = []byte(fmt.Sprintf("s%d:%d->%d", step, r, q))
		}
	}
	return outs
}

func checkFleetIns(t *testing.T, peers int, step uint64, ins [][][]byte) {
	t.Helper()
	for r := 0; r < peers; r++ {
		for q := 0; q < peers; q++ {
			want := fmt.Sprintf("s%d:%d->%d", step, q, r)
			if got := string(ins[r][q]); got != want {
				t.Errorf("step %d: rank %d slot %d = %q, want %q", step, r, q, got, want)
			}
		}
	}
}

// TestSimExchangeDeliversByRank: every peer receives every sender's blob in
// the sender's slot — including its own, passed through verbatim — across
// consecutive steps, with and without seeded reordering.
func TestSimExchangeDeliversByRank(t *testing.T) {
	for _, reorder := range []bool{false, true} {
		net := NewSimNetwork(3, FaultPlan{Seed: 5, Reorder: reorder}, time.Second)
		trs := []Transport{net.Peer(0), net.Peer(1), net.Peer(2)}
		for step := uint64(0); step < 4; step++ {
			ins, errs := stepFleet(trs, step, fleetOuts(3, step))
			for r, err := range errs {
				if err != nil {
					t.Fatalf("reorder=%v step %d rank %d: %v", reorder, step, r, err)
				}
			}
			checkFleetIns(t, 3, step, ins)
		}
	}
}

// TestSimDropsRetryInvisibly: a lossy plan under the attempt budget changes
// nothing about delivery, only the retry counter.
func TestSimDropsRetryInvisibly(t *testing.T) {
	net := NewSimNetwork(2, FaultPlan{Seed: 3, DropRate: 0.5}, time.Second)
	trs := []Transport{net.Peer(0), net.Peer(1)}
	for step := uint64(0); step < 8; step++ {
		ins, errs := stepFleet(trs, step, fleetOuts(2, step))
		for r, err := range errs {
			if err != nil {
				t.Fatalf("step %d rank %d: %v", step, r, err)
			}
		}
		checkFleetIns(t, 2, step, ins)
	}
	if net.Retries() == 0 {
		t.Fatal("50% drop rate over 8 steps induced no retries")
	}
}

// TestSimExhaustedAttemptsFailEveryone: attempts beyond the budget fail the
// step with ErrUnreachable on all peers and poison the network for later
// steps.
func TestSimExhaustedAttemptsFailEveryone(t *testing.T) {
	net := NewSimNetwork(2, FaultPlan{MaxAttempts: 3, Partitions: []Partition{
		{FromStep: 1, ToStep: 2, Peer: 1, FailAttempts: 99}}}, time.Second)
	trs := []Transport{net.Peer(0), net.Peer(1)}
	if _, errs := stepFleet(trs, 0, fleetOuts(2, 0)); errs[0] != nil || errs[1] != nil {
		t.Fatalf("pre-partition step failed: %v", errs)
	}
	_, errs := stepFleet(trs, 1, fleetOuts(2, 1))
	for r, err := range errs {
		var terr *Error
		if !errors.As(err, &terr) || terr.Kind != ErrUnreachable {
			t.Fatalf("rank %d: got %v, want unreachable", r, err)
		}
	}
	// Sticky: the dead network refuses further steps instantly.
	if _, err := trs[0].Step(2, fleetOuts(2, 2)[0]); err == nil {
		t.Fatal("step after network failure succeeded")
	}
}

// TestSimBarrierTimeout: a peer that never arrives trips the wall-clock
// watchdog with a classified timeout, not a hang.
func TestSimBarrierTimeout(t *testing.T) {
	net := NewSimNetwork(2, FaultPlan{}, 30*time.Millisecond)
	tr := net.Peer(0)
	_, err := tr.Step(0, fleetOuts(2, 0)[0]) // peer 1 never steps
	var terr *Error
	if !errors.As(err, &terr) || terr.Kind != ErrBarrierTimeout {
		t.Fatalf("got %v, want barrier timeout", err)
	}
}

// TestSimKillFailsPendingBarrier: killing a peer releases a barrier that is
// already waiting on it, deterministically, with ErrPeerDown on both the
// waiter and the killed peer's own next Step.
func TestSimKillFailsPendingBarrier(t *testing.T) {
	net := NewSimNetwork(2, FaultPlan{}, 10*time.Second)
	trs := []Transport{net.Peer(0), net.Peer(1)}
	done := make(chan error, 1)
	go func() {
		_, err := trs[0].Step(0, fleetOuts(2, 0)[0])
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let rank 0 reach the barrier
	net.Kill(1)
	select {
	case err := <-done:
		var terr *Error
		if !errors.As(err, &terr) || terr.Kind != ErrPeerDown {
			t.Fatalf("waiter got %v, want peer-down", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("kill did not release the pending barrier")
	}
	if _, err := trs[1].Step(0, fleetOuts(2, 0)[1]); err == nil {
		t.Fatal("dead peer stepped successfully")
	}
}

// TestErrorClassificationString: classified errors render their kind, peer,
// and step — what operators grep for in daemon logs.
func TestErrorClassificationString(t *testing.T) {
	err := Errorf(ErrUnreachable, 2, 17, "boom: %d", 9)
	var terr *Error
	if !errors.As(err, &terr) {
		t.Fatal("Errorf did not produce *Error")
	}
	if terr.Kind != ErrUnreachable || terr.Peer != 2 || terr.Step != 17 {
		t.Fatalf("fields lost: %+v", terr)
	}
	for _, k := range []ErrKind{ErrProtocol, ErrUnreachable, ErrBarrierTimeout, ErrPeerDown} {
		if k.String() == "" || k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
}
