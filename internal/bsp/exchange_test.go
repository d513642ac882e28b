package bsp

import (
	"errors"
	"sync"
	"testing"
	"time"

	"graphdiam/internal/bsp/transport"
)

// TestExchangeRejectsForeignRecords forges well-formed records on a
// two-peer fleet (one worker each, 10 nodes: worker 0 owns [0, 5), worker
// 1 owns [5, 10)): a node past n, and a node worker 0 owns sent in a frame
// addressed to worker 1. Either must fail the receiver's exchange with a
// protocol error before the record reaches its mailbox, where the apply
// half would index past its arrays or write a slot another worker owns.
// An in-range record for the frame's own dst is delivered.
func TestExchangeRejectsForeignRecords(t *testing.T) {
	const nodes = 10
	for _, tc := range []struct {
		name string
		node uint32
		ok   bool
	}{
		{"owned", 7, true},
		{"past n", nodes, false},
		{"past n, far", 1 << 31, false},
		{"other worker's node", 3, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := transport.NewSimNetwork(2, transport.FaultPlan{}, 5*time.Second)
			var errs [2]error
			var got []fuzzMsg
			var wg sync.WaitGroup
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					e, err := NewDistributed(2, net.Peer(r))
					if err != nil {
						errs[r] = err
						return
					}
					defer e.Close()
					m := NewMailboxes[fuzzMsg](2)
					if r == 0 {
						m.Send(0, 1, fuzzMsg{tc.node, 42})
					}
					errs[r] = ExchangeMailboxes(e, m, fuzzCodec, e.Router(nodes))
					if r == 1 && errs[r] == nil {
						m.Recv(1, func(msg fuzzMsg) { got = append(got, msg) })
					}
				}(r)
			}
			wg.Wait()
			if errs[0] != nil {
				t.Fatalf("sender: %v", errs[0])
			}
			if tc.ok {
				if errs[1] != nil || len(got) != 1 || got[0] != (fuzzMsg{tc.node, 42}) {
					t.Fatalf("receiver: err %v, got %+v", errs[1], got)
				}
				return
			}
			var terr *transport.Error
			if !errors.As(errs[1], &terr) || terr.Kind != transport.ErrProtocol {
				t.Fatalf("receiver: got %v, want a protocol error", errs[1])
			}
		})
	}
}
