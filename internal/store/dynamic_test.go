package store

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"graphdiam/internal/dataset"
	"graphdiam/internal/obs"
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

// zeroWall strips the one nondeterministic field so results compare ==.
func zeroWall(r DecomposeResult) DecomposeResult {
	r.WallMillis = 0
	return r
}

// TestApplyDeltaIncrementalMatchesFullRecompute is the acceptance pin:
// after a delta, the incrementally-maintained decomposition must be
// byte-identical to a full recompute on the materialized graph — same
// clustering, same radius, same round/message/update accounting.
func TestApplyDeltaIncrementalMatchesFullRecompute(t *testing.T) {
	cat := newCatalogWith(t, map[string]string{"dyn": "mesh:24"})
	// ChurnThreshold 1.0: any churn qualifies for eager maintenance, so
	// the "incremental" path is taken deterministically.
	s := New(Config{Catalog: cat, ChurnThreshold: 1.0})
	defer s.Close()
	ctx := context.Background()
	p := Params{Seed: 5}

	before, cached, err := s.Decompose(ctx, "dyn", p)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first decompose reported cached")
	}

	res := appendTo(t, cat, "dyn", &dataset.EdgeDelta{
		Ins: []dataset.DeltaIns{{U: 0, V: 575, W: 0.5}},
		Rem: []dataset.DeltaRem{{U: 0, V: 1}},
	})
	m := s.ApplyDelta(ctx, "dyn", res.PrevSHA, res.Info.SHA256, res.Touched)
	if m.Mode != "incremental" {
		t.Fatalf("maintenance mode %q, want incremental (churn %d/%d)", m.Mode, m.TouchedClusters, m.TotalClusters)
	}
	if m.Recomputed != 1 {
		t.Fatalf("recomputed %d decompositions, want 1", m.Recomputed)
	}
	if m.Invalidated == 0 {
		t.Fatal("head moved but nothing was invalidated")
	}
	if m.TouchedClusters == 0 || m.TotalClusters == 0 {
		t.Fatalf("churn not measured: %+v", m)
	}

	// The eager recompute left the cache warm for the NEW head...
	after, cached, err := s.Decompose(ctx, "dyn", p)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("query after incremental maintenance missed the cache")
	}
	// ...and its result is not the stale pre-delta one.
	if zeroWall(after) == zeroWall(before) {
		t.Fatal("post-delta result identical to pre-delta result (stale cache?)")
	}

	// Byte-identity: a completely fresh store over the same catalog runs
	// the full algorithm cold on the new head and must agree exactly.
	fresh := New(Config{Catalog: cat})
	defer fresh.Close()
	full, cached, err := fresh.Decompose(ctx, "dyn", p)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("cold store reported cached")
	}
	if zeroWall(after) != zeroWall(full) {
		t.Fatalf("incremental maintenance diverged from full recompute:\n inc  %+v\n full %+v",
			zeroWall(after), zeroWall(full))
	}
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
	m := s.ApplyDelta(ctx, "d", in.SHA256, in.SHA256, nil)
	if m.Mode != "none" || m.Invalidated != 0 || m.Recomputed != 0 {
		t.Fatalf("no-op maintenance %+v, want mode none with no work", m)
	}
	// The cache is still warm.
	if _, cached, err := s.Decompose(ctx, "d", Params{Seed: 2}); err != nil || !cached {
		t.Fatalf("cache cold after no-op maintenance (cached=%v err=%v)", cached, err)
	}
}

// TestApplyDeltaHighChurnFallsBackToLazy pins the threshold fallback: a
// negative ChurnThreshold disables eager maintenance entirely, so a head
// movement invalidates and defers — mode "full", nothing recomputed,
// and the next query pays the cold cost but still sees the new graph.
func TestApplyDeltaHighChurnFallsBackToLazy(t *testing.T) {
	cat := newCatalogWith(t, map[string]string{"d": "mesh:12"})
	s := New(Config{Catalog: cat, ChurnThreshold: -1})
	defer s.Close()
	ctx := context.Background()
	p := Params{Seed: 2}
	if _, _, err := s.Decompose(ctx, "d", p); err != nil {
		t.Fatal(err)
	}
	res := appendTo(t, cat, "d", &dataset.EdgeDelta{
		Ins: []dataset.DeltaIns{{U: 0, V: 143, W: 0.5}},
	})
	m := s.ApplyDelta(ctx, "d", res.PrevSHA, res.Info.SHA256, res.Touched)
	if m.Mode != "full" || m.Recomputed != 0 {
		t.Fatalf("maintenance %+v, want lazy full invalidation", m)
	}
	next, cached, err := s.Decompose(ctx, "d", p)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("query after lazy invalidation claims cached")
	}
	// The lazy path converges to the same answer as any full recompute.
	fresh := New(Config{Catalog: cat})
	defer fresh.Close()
	full, _, err := fresh.Decompose(ctx, "d", p)
	if err != nil {
		t.Fatal(err)
	}
	if zeroWall(next) != zeroWall(full) {
		t.Fatalf("lazy recompute diverged from fresh store:\n lazy %+v\n full %+v", zeroWall(next), zeroWall(full))
	}
}

func TestApplyDeltaWithoutRetainedClusteringIsModeNone(t *testing.T) {
	cat := newCatalogWith(t, map[string]string{"d": "mesh:12"})
	s := New(Config{Catalog: cat})
	defer s.Close()
	ctx := context.Background()
	// Fault the graph in via a diameter query only — diameter retains no
	// decomposition under the decompose key the maintenance scans.
	if _, _, err := s.Diameter(ctx, "d", Params{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	res := appendTo(t, cat, "d", &dataset.EdgeDelta{
		Ins: []dataset.DeltaIns{{U: 0, V: 143, W: 0.5}},
	})
	m := s.ApplyDelta(ctx, "d", res.PrevSHA, res.Info.SHA256, res.Touched)
	if m.Mode != "none" {
		t.Fatalf("mode %q with no retained decomposition, want none", m.Mode)
	}
	// The stale graph and its cached results are still gone.
	if m.Invalidated == 0 {
		t.Fatal("stale diameter result survived the head movement")
	}
	if _, _, ok := s.Graph("d"); ok {
		t.Fatal("superseded graph still registered")
	}
	// And the next query serves the new head.
	if _, cached, err := s.Diameter(ctx, "d", Params{Seed: 2}); err != nil || cached {
		t.Fatalf("post-delta diameter (cached=%v err=%v), want cold recompute", cached, err)
	}
}

// TestApplyDeltaAfterNodeGrowth covers a delta whose inserted endpoint
// lies beyond the old vertex set: churn counts the growth as an extra
// touched cluster and maintenance still converges on the grown graph.
func TestApplyDeltaAfterNodeGrowth(t *testing.T) {
	cat := newCatalogWith(t, map[string]string{"d": "mesh:10"})
	s := New(Config{Catalog: cat, ChurnThreshold: 1.0})
	defer s.Close()
	ctx := context.Background()
	p := Params{Seed: 4}
	if _, _, err := s.Decompose(ctx, "d", p); err != nil {
		t.Fatal(err)
	}
	// mesh:10 has nodes 0..99; attach node 120 (and implicitly 100..120).
	res := appendTo(t, cat, "d", &dataset.EdgeDelta{
		Ins: []dataset.DeltaIns{{U: 99, V: 120, W: 1}},
	})
	if res.Info.NumNodes != 121 {
		t.Fatalf("grown node count %d, want 121", res.Info.NumNodes)
	}
	m := s.ApplyDelta(ctx, "d", res.PrevSHA, res.Info.SHA256, res.Touched)
	if m.Mode != "incremental" {
		t.Fatalf("maintenance mode %q, want incremental", m.Mode)
	}
	after, cached, err := s.Decompose(ctx, "d", p)
	if err != nil || !cached {
		t.Fatalf("decompose after growth (cached=%v): %v", cached, err)
	}
	if after.NumNodes != 121 {
		t.Fatalf("maintained decomposition has %d nodes, want 121", after.NumNodes)
	}
	fresh := New(Config{Catalog: cat})
	defer fresh.Close()
	full, _, err := fresh.Decompose(ctx, "d", p)
	if err != nil {
		t.Fatal(err)
	}
	if zeroWall(after) != zeroWall(full) {
		t.Fatalf("grown-graph maintenance diverged:\n inc  %+v\n full %+v", zeroWall(after), zeroWall(full))
	}
}

// TestDeltaRecomputeMetrics checks the counter family the maintenance
// path feeds: an "incremental" tick when eager recompute ran.
func TestDeltaRecomputeMetrics(t *testing.T) {
	cat := newCatalogWith(t, map[string]string{"d": "mesh:12"})
	reg := obs.NewRegistry()
	s := New(Config{Catalog: cat, ChurnThreshold: 1.0, Metrics: NewMetrics(reg)})
	defer s.Close()
	ctx := context.Background()
	if _, _, err := s.Decompose(ctx, "d", Params{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	res := appendTo(t, cat, "d", &dataset.EdgeDelta{
		Ins: []dataset.DeltaIns{{U: 0, V: 143, W: 0.5}},
	})
	if m := s.ApplyDelta(ctx, "d", res.PrevSHA, res.Info.SHA256, res.Touched); m.Mode != "incremental" {
		t.Fatalf("mode %q, want incremental", m.Mode)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `graphdiam_store_delta_recomputes_total{mode="incremental"} 1`
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("exposition missing %q", want)
	}
}

// TestHeadMoveNeedsNoApplyDelta: the catalog alone owns name → head, so an
// append the store is never told about is still never answered stale.
func TestHeadMoveNeedsNoApplyDelta(t *testing.T) {
	cat := newCatalogWith(t, map[string]string{"d": "mesh:12"})
	s := New(Config{Catalog: cat})
	defer s.Close()
	ctx := context.Background()
	p := Params{Seed: 2}
	before, _, err := s.Diameter(ctx, "d", p)
	if err != nil {
		t.Fatal(err)
	}
	res := appendTo(t, cat, "d", &dataset.EdgeDelta{
		Ins: []dataset.DeltaIns{{U: 0, V: 143, W: 0.5}},
	}) // and no ApplyDelta

	if fkey, ok := s.FleetKeyFor("d", "diameter", p); !ok || fkey != FleetKey(res.Info.SHA256, "diameter", p) {
		t.Fatalf("fleet key %q (ok=%v) does not name the new head %s", fkey, ok, res.Info.SHA256)
	}
	after, cached, err := s.Diameter(ctx, "d", p)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first query on the new head claims cached")
	}
	fresh := New(Config{Catalog: cat})
	defer fresh.Close()
	want, _, err := fresh.Diameter(ctx, "d", p)
	if err != nil {
		t.Fatal(err)
	}
	before.WallMillis, after.WallMillis, want.WallMillis = 0, 0, 0
	if after != want || after == before {
		t.Fatalf("answer after an untold append:\n got    %+v\n want   %+v\n before %+v", after, want, before)
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
	s := New(Config{Catalog: cat, MaxEntries: maxEntries, ChurnThreshold: 1.0})
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
			s.ApplyDelta(ctx, "d", res.PrevSHA, res.Info.SHA256, res.Touched)
		}
		acked.Store(int64(i))
		if res, _, err := s.Diameter(ctx, "d", p); err != nil || res.Estimate != want[i].Estimate {
			t.Errorf("after acked append %d: estimate %v (err %v), want %v", i, res.Estimate, err, want[i].Estimate)
		}
	}
	close(done)
	wg.Wait()
}
