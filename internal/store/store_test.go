package store

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphdiam/internal/gen"
	"graphdiam/internal/graph"
)

func newTestStore(t *testing.T, cfg Config, graphs ...string) *Store {
	t.Helper()
	s := New(cfg)
	for i, name := range graphs {
		g, err := gen.FromSpec("mesh:12", uint64(i+1))
		if err != nil {
			t.Fatalf("FromSpec: %v", err)
		}
		if _, err := s.AddGraph(name, g, "test"); err != nil {
			t.Fatalf("AddGraph(%q): %v", name, err)
		}
	}
	return s
}

func TestRegistry(t *testing.T) {
	s := newTestStore(t, Config{}, "a", "b")
	if _, _, ok := s.Graph("a"); !ok {
		t.Fatal("graph a not found")
	}
	if _, _, ok := s.Graph("zzz"); ok {
		t.Fatal("unexpected graph zzz")
	}
	infos := s.Graphs()
	if len(infos) != 2 || infos[0].Name != "a" || infos[1].Name != "b" {
		t.Fatalf("Graphs() = %+v", infos)
	}
	if infos[0].NumNodes != 144 {
		t.Fatalf("mesh:12 should have 144 nodes, got %d", infos[0].NumNodes)
	}
	if !s.RemoveGraph("a") || s.RemoveGraph("a") {
		t.Fatal("RemoveGraph semantics wrong")
	}
	if _, err := s.AddGraph("", nil, ""); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestNotFound(t *testing.T) {
	s := newTestStore(t, Config{})
	_, _, err := s.Diameter(context.Background(), "nope", Params{})
	var nf *NotFoundError
	if !errors.As(err, &nf) || nf.Name != "nope" {
		t.Fatalf("want NotFoundError{nope}, got %v", err)
	}
}

func TestHitMiss(t *testing.T) {
	s := newTestStore(t, Config{}, "g")
	ctx := context.Background()
	p := Params{Tau: 8, Seed: 7, Workers: 2}

	r1, cached, err := s.Diameter(ctx, "g", p)
	if err != nil || cached {
		t.Fatalf("first query: cached=%v err=%v", cached, err)
	}
	r2, cached, err := s.Diameter(ctx, "g", p)
	if err != nil || !cached {
		t.Fatalf("second query: cached=%v err=%v", cached, err)
	}
	if r1.Estimate != r2.Estimate || r1.Metrics != r2.Metrics {
		t.Fatalf("cached result differs: %+v vs %+v", r1, r2)
	}
	if r1.Estimate <= 0 {
		t.Fatalf("nonpositive diameter estimate %v", r1.Estimate)
	}

	// A different parameter set is a different slot.
	if _, cached, err = s.Diameter(ctx, "g", Params{Tau: 8, Seed: 8}); err != nil || cached {
		t.Fatalf("distinct params: cached=%v err=%v", cached, err)
	}
	// Decompose with the same knobs is also a different slot.
	if _, cached, err = s.Decompose(ctx, "g", p); err != nil || cached {
		t.Fatalf("decompose after diameter: cached=%v err=%v", cached, err)
	}

	st := s.Stats()
	if st.Counters.Hits != 1 || st.Counters.Misses != 3 || st.Counters.Computations != 3 {
		t.Fatalf("counters = %+v", st.Counters)
	}
	if st.TotalCost.Rounds <= 0 || st.TotalCost.Work() <= 0 {
		t.Fatalf("total cost not accumulated: %+v", st.TotalCost)
	}
}

func TestDecomposeResultShape(t *testing.T) {
	s := newTestStore(t, Config{}, "g")
	r, _, err := s.Decompose(context.Background(), "g", Params{Tau: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumClusters <= 0 || r.NumClusters > r.NumNodes {
		t.Fatalf("bad cluster count %d for n=%d", r.NumClusters, r.NumNodes)
	}
	if r.Radius < 0 || r.Stages <= 0 || r.Metrics.Rounds <= 0 {
		t.Fatalf("implausible result %+v", r)
	}
	if r.MinCluster < 1 || r.MaxCluster < r.MinCluster {
		t.Fatalf("bad size extremes %d/%d", r.MinCluster, r.MaxCluster)
	}
}

func TestParamValidation(t *testing.T) {
	s := newTestStore(t, Config{}, "g")
	ctx := context.Background()
	cases := []Params{
		{Cluster2: true, WeightOblivious: true},
		{DeltaInit: "bogus"},
		{DeltaInit: "fixed"}, // missing FixedDelta
	}
	for _, p := range cases {
		if _, _, err := s.Diameter(ctx, "g", p); err == nil {
			t.Fatalf("params %+v accepted", p)
		}
	}
	if st := s.Stats(); st.Counters.Misses != 0 {
		t.Fatalf("invalid params touched the cache: %+v", st.Counters)
	}
}

// TestConcurrentDedup is the acceptance-criterion test: many identical
// concurrent queries share one underlying BSP run.
func TestConcurrentDedup(t *testing.T) {
	s := newTestStore(t, Config{MaxConcurrent: 4}, "g")
	const N = 16
	p := Params{Tau: 10, Seed: 42, Workers: 2}

	var (
		start   = make(chan struct{})
		wg      sync.WaitGroup
		results [N]DiameterResult
		errs    [N]error
	)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], _, errs[i] = s.Diameter(context.Background(), "g", p)
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < N; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("request %d returned a different result", i)
		}
	}
	st := s.Stats()
	if st.Counters.Computations != 1 {
		t.Fatalf("want exactly 1 BSP run, got %d (counters %+v)",
			st.Counters.Computations, st.Counters)
	}
	if st.Counters.Hits+st.Counters.Dedups != N-1 {
		t.Fatalf("want %d shared requests, got hits=%d dedups=%d",
			N-1, st.Counters.Hits, st.Counters.Dedups)
	}
}

func TestEviction(t *testing.T) {
	s := newTestStore(t, Config{MaxEntries: 2}, "g")
	ctx := context.Background()
	q := func(seed uint64) {
		t.Helper()
		if _, _, err := s.Diameter(ctx, "g", Params{Tau: 8, Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	q(1)
	q(2)
	q(1) // refresh seed=1 so seed=2 is the LRU victim
	q(3) // evicts seed=2
	st := s.Stats()
	if st.Counters.Evictions != 1 || st.CacheEntries != 2 {
		t.Fatalf("evictions=%d entries=%d", st.Counters.Evictions, st.CacheEntries)
	}
	q(1) // still cached
	q(2) // recomputed
	st = s.Stats()
	if st.Counters.Computations != 4 {
		t.Fatalf("want 4 computations (seed 2 twice), got %d", st.Counters.Computations)
	}
}

func TestReplaceGraphDropsCache(t *testing.T) {
	s := newTestStore(t, Config{}, "g")
	ctx := context.Background()
	p := Params{Tau: 8, Seed: 1}
	r1, _, err := s.Diameter(ctx, "g", p)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := gen.FromSpec("mesh:20", 9)
	if _, err := s.AddGraph("g", g2, "replacement"); err != nil {
		t.Fatal(err)
	}
	r2, cached, err := s.Diameter(ctx, "g", p)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("replaced graph served a stale cached result")
	}
	if r2.Estimate == r1.Estimate {
		t.Fatal("result does not reflect the replacement graph")
	}
	if st := s.Stats(); st.CacheEntries != 1 {
		t.Fatalf("old graph's entries not purged: %d", st.CacheEntries)
	}
}

// TestConcurrencyCap drives the generic compute path with instrumented
// functions and asserts the semaphore never admits more than MaxConcurrent
// computations at once.
func TestConcurrencyCap(t *testing.T) {
	const cap = 2
	s := newTestStore(t, Config{MaxConcurrent: cap}, "g")
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, err := s.do(context.Background(), "g", fmt.Sprintf("op%d", i), nil,
				func(context.Context, *graph.Graph) (any, error) {
					c := cur.Add(1)
					for {
						p := peak.Load()
						if c <= p || peak.CompareAndSwap(p, c) {
							break
						}
					}
					time.Sleep(5 * time.Millisecond)
					cur.Add(-1)
					return i, nil
				})
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if p := peak.Load(); p > cap {
		t.Fatalf("observed %d concurrent computations, cap is %d", p, cap)
	}
}

func TestFollowerContextCancel(t *testing.T) {
	s := newTestStore(t, Config{}, "g")
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, _, err := s.do(context.Background(), "g", "slow", nil, func(context.Context, *graph.Graph) (any, error) {
			<-release
			return 1, nil
		})
		if err != nil {
			t.Error(err)
		}
	}()
	// Wait until the flight is registered.
	for {
		if s.Stats().InFlight == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := s.do(ctx, "g", "slow", nil, func(context.Context, *graph.Graph) (any, error) {
		t.Error("follower must not compute")
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	close(release)
	<-leaderDone
}

// TestParamNormalization: equivalent spellings of the same parameters must
// share one cache slot.
func TestParamNormalization(t *testing.T) {
	s := newTestStore(t, Config{}, "g")
	ctx := context.Background()
	if _, cached, err := s.Diameter(ctx, "g", Params{Tau: 8, DeltaInit: "avg"}); err != nil || cached {
		t.Fatalf("first: cached=%v err=%v", cached, err)
	}
	for _, di := range []string{"AVG", "", "Avg"} {
		_, cached, err := s.Diameter(ctx, "g", Params{Tau: 8, DeltaInit: di})
		if err != nil || !cached {
			t.Fatalf("deltaInit=%q: cached=%v err=%v", di, cached, err)
		}
	}
	// FixedDelta only matters under deltaInit=fixed.
	if _, cached, err := s.Diameter(ctx, "g", Params{Tau: 8, FixedDelta: 3}); err != nil || !cached {
		t.Fatalf("fixedDelta without deltaInit=fixed: cached=%v err=%v", cached, err)
	}
	if c := s.Stats().Counters.Computations; c != 1 {
		t.Fatalf("equivalent params ran %d computations", c)
	}
}

// TestFleetCachePutRejectsMalformedKeys: a pushed key must be a fleet key
// — lowercase hex SHA-256, a computed op, then params — or a peer could
// insert arbitrary slots into the LRU and evict real results.
func TestFleetCachePutRejectsMalformedKeys(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	sha := strings.Repeat("0123456789abcdef", 4)
	good := FleetKey(sha, "diameter", Params{Seed: 1})
	params := strings.TrimPrefix(good, sha+"|diameter")
	for _, key := range []string{
		"",
		"a|b",
		sha,
		sha + "|",
		"#1|diameter" + params,
		strings.ToUpper(sha) + "|diameter" + params,
		sha[:63] + "|diameter" + params,
		sha + "0|diameter" + params,
		sha + "|sssp" + params,
		sha + "|diameter",
		"x" + good,
	} {
		if err := s.FleetCachePut(key, []byte(`{}`)); err == nil {
			t.Errorf("key %q accepted", key)
		}
	}
	if n := s.Stats().CacheEntries; n != 0 {
		t.Fatalf("%d cache entries after malformed pushes, want 0", n)
	}
	for _, op := range []string{"decompose", "diameter"} {
		if err := s.FleetCachePut(FleetKey(sha, op, Params{Seed: 1}), []byte(`{}`)); err != nil {
			t.Errorf("%s fleet key rejected: %v", op, err)
		}
	}
}

// TestLeaderCancelPromotesFollower: a follower must not inherit the
// leader's cancellation; it retries and one retrier recomputes.
func TestLeaderCancelPromotesFollower(t *testing.T) {
	// MaxConcurrent 1 with the slot held hostage lets us cancel a leader
	// while it waits for the semaphore.
	s := newTestStore(t, Config{MaxConcurrent: 1}, "g")
	release := make(chan struct{})
	hostageDone := make(chan struct{})
	go func() {
		defer close(hostageDone)
		s.do(context.Background(), "g", "hostage", nil, func(context.Context, *graph.Graph) (any, error) {
			<-release
			return 0, nil
		})
	}()
	for s.Stats().InFlight != 1 {
		time.Sleep(time.Millisecond)
	}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, _, err := s.do(leaderCtx, "g", "contested", nil, func(context.Context, *graph.Graph) (any, error) {
			t.Error("cancelled leader must not compute")
			return nil, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("leader: want Canceled, got %v", err)
		}
	}()
	for s.Stats().InFlight != 2 {
		time.Sleep(time.Millisecond)
	}

	followerDone := make(chan struct{})
	go func() {
		defer close(followerDone)
		v, _, err := s.do(context.Background(), "g", "contested", nil, func(context.Context, *graph.Graph) (any, error) {
			return "recomputed", nil
		})
		if err != nil || v != "recomputed" {
			t.Errorf("follower: v=%v err=%v (must survive leader cancellation)", v, err)
		}
	}()

	cancelLeader()
	<-leaderDone
	close(release) // free the semaphore so the promoted follower can run
	<-hostageDone
	<-followerDone
	if e := s.Stats().Counters.Errors; e != 0 {
		t.Fatalf("client cancellation counted as %d store errors", e)
	}
}

// TestRemoveGraphDuringFlight: a computation finishing after its graph was
// removed must not occupy a cache slot under the dead graph id.
func TestRemoveGraphDuringFlight(t *testing.T) {
	s := newTestStore(t, Config{}, "g")
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, err := s.do(context.Background(), "g", "k", nil, func(context.Context, *graph.Graph) (any, error) {
			close(started)
			<-release
			return 1, nil
		})
		if err != nil {
			t.Error(err)
		}
	}()
	<-started
	if !s.RemoveGraph("g") {
		t.Fatal("RemoveGraph failed")
	}
	close(release)
	<-done
	if n := s.Stats().CacheEntries; n != 0 {
		t.Fatalf("dead graph's result occupies %d cache entries", n)
	}
}

func TestComputeErrorNotCached(t *testing.T) {
	s := newTestStore(t, Config{}, "g")
	boom := errors.New("boom")
	calls := 0
	fn := func(context.Context, *graph.Graph) (any, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return "ok", nil
	}
	if _, _, err := s.do(context.Background(), "g", "k", nil, fn); !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	v, cached, err := s.do(context.Background(), "g", "k", nil, fn)
	if err != nil || cached || v != "ok" {
		t.Fatalf("retry after error: v=%v cached=%v err=%v", v, cached, err)
	}
	if st := s.Stats(); st.Counters.Errors != 1 || st.Counters.Computations != 1 {
		t.Fatalf("counters %+v", st.Counters)
	}
}
