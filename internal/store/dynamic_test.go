package store

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"graphdiam/internal/dataset"
)

// appendTo runs one growing append through the catalog and returns the
// result (fatal on no-op: these tests need the head to move).
func appendTo(t *testing.T, cat *dataset.Catalog, name string, d *dataset.EdgeDelta) dataset.AppendResult {
	t.Helper()
	res, err := cat.AppendDelta(name, d, "test delta")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Applied {
		t.Fatal("test delta was a no-op; pick edges that change the graph")
	}
	return res
}

func TestApplyDeltaNoOpInvalidatesNothing(t *testing.T) {
	cat := newCatalogWith(t, map[string]string{"d": "mesh:12"})
	s := New(Config{Catalog: cat})
	defer s.Close()
	ctx := context.Background()
	if _, _, err := s.Decompose(ctx, "d", Params{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	in, err := cat.Info("d")
	if err != nil {
		t.Fatal(err)
	}
	if m := s.ApplyDelta(in.SHA256, in.SHA256); m != (MaintenanceResult{}) {
		t.Fatalf("no-op maintenance %+v, want no work", m)
	}
	// The cache is still warm.
	if _, cached, err := s.Decompose(ctx, "d", Params{Seed: 2}); err != nil || !cached {
		t.Fatalf("cache cold after no-op maintenance (cached=%v err=%v)", cached, err)
	}
}

// TestHeadMoveNeedsNoApplyDelta: the catalog alone owns name → head, so
// an append is never answered stale whether or not the store is told
// about it. Telling it (ApplyDelta) only frees the superseded head's
// slots; either way the first query on the new head is a cold compute
// equal to a fresh store's answer, for a shortcut insert and for an
// insert that grows the vertex set.
func TestHeadMoveNeedsNoApplyDelta(t *testing.T) {
	// mesh:12 has nodes 0..143.
	deltas := []struct {
		kind string
		ins  dataset.DeltaIns
	}{
		{"shortcut", dataset.DeltaIns{U: 0, V: 143, W: 0.5}},
		{"growth", dataset.DeltaIns{U: 143, V: 144, W: 1}},
	}
	for _, told := range []bool{true, false} {
		for _, op := range []string{"diameter", "decompose"} {
			for _, d := range deltas {
				t.Run(fmt.Sprintf("told=%v/%s/%s", told, op, d.kind), func(t *testing.T) {
					headMoveCase(t, told, op, d.ins)
				})
			}
		}
	}
}

func headMoveCase(t *testing.T, told bool, op string, ins dataset.DeltaIns) {
	cat := newCatalogWith(t, map[string]string{"d": "mesh:12"})
	s := New(Config{Catalog: cat})
	defer s.Close()
	ctx := context.Background()
	p := Params{Seed: 2}
	query := func(s *Store) (any, bool) {
		var (
			res    any
			cached bool
			err    error
		)
		if op == "diameter" {
			var r DiameterResult
			r, cached, err = s.Diameter(ctx, "d", p)
			r.WallMillis = 0
			res = r
		} else {
			var r DecomposeResult
			r, cached, err = s.Decompose(ctx, "d", p)
			r.WallMillis = 0
			res = r
		}
		if err != nil {
			t.Fatal(err)
		}
		return res, cached
	}

	before, _ := query(s)
	res := appendTo(t, cat, "d", &dataset.EdgeDelta{Ins: []dataset.DeltaIns{ins}})
	if want := max(144, int(ins.V)+1); res.Info.NumNodes != want {
		t.Fatalf("head has %d nodes, want %d", res.Info.NumNodes, want)
	}
	if told {
		m := s.ApplyDelta(res.PrevSHA, res.Info.SHA256)
		if m.Invalidated < 1 || m.Recomputed != 0 {
			t.Fatalf("maintenance %+v, want ≥ 1 invalidated and nothing recomputed", m)
		}
		if _, _, ok := s.Graph("d"); ok {
			t.Fatal("superseded graph still registered")
		}
	}

	if fkey, ok := s.FleetKeyFor("d", op, p); !ok || fkey != FleetKey(res.Info.SHA256, op, p) {
		t.Fatalf("fleet key %q (ok=%v) does not name the new head %s", fkey, ok, res.Info.SHA256)
	}
	after, cached := query(s)
	if cached {
		t.Fatal("first query on the new head claims cached")
	}
	fresh := New(Config{Catalog: cat})
	defer fresh.Close()
	want, _ := query(fresh)
	if after != want || after == before {
		t.Fatalf("answer after the append:\n got    %+v\n want   %+v\n before %+v", after, want, before)
	}
}

// TestQueriesRaceAppends: readers query while one writer appends in a
// loop. A reply to a query that started after an append was acked must be
// for that head or a later one, never an earlier one, and the result
// cache never outgrows its budget however many heads pass through it.
func TestQueriesRaceAppends(t *testing.T) {
	const (
		heads      = 6
		readers    = 4
		maxEntries = 3
	)
	cat := newCatalogWith(t, map[string]string{"d": "mesh:10"})
	s := New(Config{Catalog: cat, MaxEntries: maxEntries})
	defer s.Close()
	ctx := context.Background()
	p := Params{Seed: 9}
	delta := func(i int) *dataset.EdgeDelta { // each one shortens the mesh further
		return &dataset.EdgeDelta{Ins: []dataset.DeltaIns{{U: 0, V: uint32(99 - 11*i), W: 0.25}}}
	}

	// The oracle: head i's answer from a store that has only ever seen
	// head i, on a catalog of its own.
	want := make([]DiameterResult, heads)
	oracleCat := newCatalogWith(t, map[string]string{"d": "mesh:10"})
	for i := range want {
		if i > 0 {
			appendTo(t, oracleCat, "d", delta(i))
		}
		oracle := New(Config{Catalog: oracleCat})
		res, _, err := oracle.Diameter(ctx, "d", p)
		oracle.Close()
		if err != nil {
			t.Fatal(err)
		}
		res.WallMillis = 0
		want[i] = res
		if i > 0 && want[i] == want[i-1] {
			t.Fatalf("heads %d and %d have the same answer %+v; the test cannot tell them apart", i-1, i, want[i])
		}
	}

	var acked atomic.Int64 // index of the newest acked head
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				floor := acked.Load()
				res, _, err := s.Diameter(ctx, "d", p)
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				res.WallMillis = 0
				head := -1
				for i, w := range want {
					if res == w {
						head = i
					}
				}
				if int64(head) < floor {
					t.Errorf("query started after head %d was acked got head %d's answer (estimate %v)", floor, head, res.Estimate)
					return
				}
				if n := s.Stats().CacheEntries; n > maxEntries {
					t.Errorf("%d cache entries, budget %d", n, maxEntries)
					return
				}
			}
		}()
	}
	for i := 1; i < heads; i++ {
		res := appendTo(t, cat, "d", delta(i))
		if i%2 == 0 { // the store hears about every other append only
			s.ApplyDelta(res.PrevSHA, res.Info.SHA256)
		}
		acked.Store(int64(i))
		if res, _, err := s.Diameter(ctx, "d", p); err != nil || res.Estimate != want[i].Estimate {
			t.Errorf("after acked append %d: estimate %v (err %v), want %v", i, res.Estimate, err, want[i].Estimate)
		}
	}
	close(done)
	wg.Wait()
}
