package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"graphdiam/internal/bsp"
	"graphdiam/internal/bsp/transport"
	"graphdiam/internal/core"
	"graphdiam/internal/gen"
	"graphdiam/internal/graph"
	"graphdiam/internal/rng"
	"graphdiam/internal/sssp"
)

// equivGraphs builds the transport-equivalence instances: one of each weight
// regime the paper's benchmarks cover (road-network, power-law RMat, bimodal
// mesh). Deterministic — every call yields bit-identical graphs.
func equivGraphs() []struct {
	name string
	g    *graph.Graph
} {
	road := gen.RoadNetwork(gen.DefaultRoadNetworkOptions(24), rng.New(7))
	rmat := gen.UniformWeights(gen.RMatDefault(8, rng.New(11)), rng.New(12))
	bimodal := gen.BimodalWeights(gen.Mesh(20), 1, 40, 0.12, rng.New(13))
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"road", road},
		{"rmat", rmat},
		{"bimodal", bimodal},
	}
}

var equivAlgos = []string{"cluster", "cluster2", "unweighted", "deltastep"}

// algoRun is one algorithm execution's observable outcome: the paper's
// platform-independent accounting plus a digest of the full result arrays.
// Bit-identity across transports means equal algoRuns.
type algoRun struct {
	snap snap
	fp   string
}

// runAlgo executes algo on g with the given engine and returns the outcome.
// The engine may be single-process or distributed; options are identical
// either way, which is the whole point.
func runAlgo(g *graph.Graph, algo string, e *bsp.Engine) (algoRun, error) {
	ctx := context.Background()
	opts := core.Options{Tau: 16, Seed: 42, Engine: e}
	h := sha256.New()
	put64 := func(x uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	var s snap
	switch algo {
	case "cluster", "unweighted":
		run := core.Cluster
		if algo == "unweighted" {
			run = core.ClusterUnweighted
		}
		cl, err := run(ctx, g, opts)
		if err != nil {
			return algoRun{}, err
		}
		s = snap{cl.Metrics.Rounds, cl.Metrics.Messages, cl.Metrics.Updates}
		for u := range cl.Center {
			put64(uint64(uint32(cl.Center[u])))
			put64(math.Float64bits(cl.Dist[u]))
		}
		put64(math.Float64bits(cl.Radius))
		put64(uint64(len(cl.Centers)))
	case "cluster2":
		c2, err := core.Cluster2(ctx, g, opts)
		if err != nil {
			return algoRun{}, err
		}
		s = snap{c2.Metrics.Rounds, c2.Metrics.Messages, c2.Metrics.Updates}
		for u := range c2.Center {
			put64(uint64(uint32(c2.Center[u])))
			put64(math.Float64bits(c2.Dist[u]))
		}
		put64(math.Float64bits(c2.Radius))
		put64(math.Float64bits(c2.RCL))
	case "deltastep":
		src := graph.NodeID(g.NumNodes() / 2)
		ds, err := sssp.DeltaStepping(ctx, g, src, sssp.SuggestDelta(g), e)
		if err != nil {
			return algoRun{}, err
		}
		s = snap{ds.Rounds, ds.Relaxations, ds.Updates}
		for _, d := range ds.Dist {
			put64(math.Float64bits(d))
		}
	default:
		return algoRun{}, fmt.Errorf("unknown algo %q", algo)
	}
	return algoRun{snap: s, fp: hex.EncodeToString(h.Sum(nil))}, nil
}

// runFleet runs algo on every peer of the fleet concurrently, each peer
// driving its own distributed engine over its transport, and returns the
// per-peer outcomes and errors.
func runFleet(t *testing.T, g *graph.Graph, algo string, workers int, peers []transport.Transport) ([]algoRun, []error) {
	t.Helper()
	outs := make([]algoRun, len(peers))
	errs := make([]error, len(peers))
	var wg sync.WaitGroup
	for r, tr := range peers {
		wg.Add(1)
		go func(r int, tr transport.Transport) {
			defer wg.Done()
			e, err := bsp.NewDistributed(workers, tr)
			if err != nil {
				errs[r] = err
				return
			}
			defer e.Close()
			outs[r], errs[r] = runAlgo(g, algo, e)
		}(r, tr)
	}
	wg.Wait()
	return outs, errs
}

// simFleet returns one simulated transport per peer over a fresh hub.
func simFleet(peers int, plan transport.FaultPlan) (*transport.SimNetwork, []transport.Transport) {
	net := transport.NewSimNetwork(peers, plan, 30*time.Second)
	trs := make([]transport.Transport, peers)
	for r := range trs {
		trs[r] = net.Peer(r)
	}
	return net, trs
}

// TestTransportEquivalenceSimulated is the tentpole's proof obligation: for
// every algorithm, graph, and worker count, the distributed run over the
// simulated network — at several peer counts — produces bit-identical
// rounds/messages/updates and bit-identical result arrays on every peer,
// all equal to the single-process run with the same total worker count.
func TestTransportEquivalenceSimulated(t *testing.T) {
	for _, tg := range equivGraphs() {
		for _, algo := range equivAlgos {
			for _, workers := range []int{1, 4, 8} {
				// Single-process reference.
				ref := func() algoRun {
					e := bsp.New(workers)
					defer e.Close()
					out, err := runAlgo(tg.g, algo, e)
					if err != nil {
						t.Fatalf("%s/%s P=%d single-process: %v", tg.name, algo, workers, err)
					}
					return out
				}()
				for _, peers := range []int{1, 2, 3} {
					if peers > workers {
						continue
					}
					name := fmt.Sprintf("%s/%s/P=%d/peers=%d", tg.name, algo, workers, peers)
					_, trs := simFleet(peers, transport.FaultPlan{})
					outs, errs := runFleet(t, tg.g, algo, workers, trs)
					for r := range outs {
						if errs[r] != nil {
							t.Fatalf("%s: peer %d failed: %v", name, r, errs[r])
						}
						if outs[r] != ref {
							t.Errorf("%s: peer %d diverged: %+v vs single-process %+v",
								name, r, outs[r].snap, ref.snap)
						}
					}
				}
			}
		}
	}
}
