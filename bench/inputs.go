package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"
)

// dataText is one graph rendered as DIMACS text: what a client uploads.
type dataText struct {
	text         []byte
	nodes, edges int
}

// inputs is everything a run feeds the program, generated from the seed
// alone: the same seed gives the same graphs, texts, keys and deltas.
type inputs struct {
	kernel *Graph  // graph of the in-process kernel phase
	lower  float64 // validate.LowerBound(kernel, 0, 4): the ratio's base
	delta  float64 // Δ-stepping bucket width, tuned once
	tau    int

	served   []dataText // datasets the fleet serves
	ingested []dataText // texts posted during the ingest phase

	// layer holds the set-up steps timed on their own (seconds).
	layer map[string]float64
}

// makeGraph builds one graph of the workload's family. R-MAT follows
// exp.BenchmarkGraphs: raw R-MAT → largest component → uniform weights,
// so every node is reachable and the lower-bound sweeps see the whole
// graph. Everything else goes through gen.FromSpec.
func makeGraph(spec string, seed uint64, layer map[string]float64) (*Graph, error) {
	family, param, _ := strings.Cut(spec, ":")
	if family != "rmat" {
		t0 := time.Now()
		g, err := genFromSpec(spec, seed)
		layer["gen.build_s"] += time.Since(t0).Seconds()
		return g, err
	}
	scale, err := strconv.Atoi(param)
	if err != nil || scale < 1 || scale > 22 {
		return nil, fmt.Errorf("bad R-MAT scale in spec %q", spec)
	}
	r := rngNew(seed)
	t0 := time.Now()
	raw := genRMatDefault(scale, r.Split())
	t1 := time.Now()
	sub, _ := ccLargest(raw)
	t2 := time.Now()
	g := genUniform(sub, r.Split())
	layer["gen.build_s"] += t1.Sub(t0).Seconds() + time.Since(t2).Seconds()
	layer["cc.largest_s"] += t2.Sub(t1).Seconds()
	return g, nil
}

func renderDIMACS(g *Graph) (dataText, error) {
	var buf bytes.Buffer
	buf.Grow(g.NumEdges() * 40)
	if err := gioWriteDIMACS(&buf, g); err != nil {
		return dataText{}, err
	}
	return dataText{text: buf.Bytes(), nodes: g.NumNodes(), edges: g.NumEdges()}, nil
}

// seedFor derives an independent generator seed per purpose and index.
func seedFor(seed uint64, purpose, i int) uint64 {
	return seed*1_000_003 + uint64(purpose)*10_007 + uint64(i) + 1
}

const (
	purposeKernel = iota + 1
	purposeServed
	purposeIngested
	purposeDelta
	purposeTraffic
	purposeAlgo
)

// generate builds the run's inputs. It is the first half of set-up and
// is timed as part of setup_s.
func generate(p params, seed uint64, ingestCount int) (*inputs, error) {
	in := &inputs{layer: map[string]float64{}}
	for i := 0; i < p.datasets; i++ {
		g, err := makeGraph(p.dataSpec, seedFor(seed, purposeServed, i), in.layer)
		if err != nil {
			return nil, err
		}
		d, err := renderDIMACS(g)
		if err != nil {
			return nil, err
		}
		in.served = append(in.served, d)
	}
	for i := 0; i < ingestCount; i++ {
		g, err := makeGraph(p.ingestSpec, seedFor(seed, purposeIngested, i), in.layer)
		if err != nil {
			return nil, err
		}
		d, err := renderDIMACS(g)
		if err != nil {
			return nil, err
		}
		in.ingested = append(in.ingested, d)
	}
	var err error
	if p.kernelSpec != "" {
		in.kernel, err = makeGraph(p.kernelSpec, seedFor(seed, purposeKernel, 0), in.layer)
	} else {
		// The kernel phase runs on the first served dataset as the
		// daemons will see it: parsed from the uploaded text.
		in.kernel, err = gioReadDIMACS(bytes.NewReader(in.served[0].text))
	}
	if err != nil {
		return nil, err
	}
	n := in.kernel.NumNodes()
	t0 := time.Now()
	in.lower, _ = validateLowerBd(in.kernel, 0, 4)
	in.layer["validate.lowerbound_s"] = time.Since(t0).Seconds()
	avg := in.kernel.AvgEdgeWeight()
	t0 = time.Now()
	in.delta = ssspTuneDelta(in.kernel, NodeID(n/2), []float64{avg / 4, avg, 4 * avg})
	in.layer["sssp.tune_s"] = time.Since(t0).Seconds()
	in.tau = coreTauForTarget(n, 2000)
	return in, nil
}

// makeDelta renders an append body of the given number of insertions:
// random shortcut edges with weights around the graph's average. Only
// insertions, so the graph stays connected and no operation can fail.
func makeDelta(rng *rand.Rand, nodes, records int, avgWeight float64) []byte {
	var b bytes.Buffer
	for i := 0; i < records; i++ {
		u := rng.Intn(nodes)
		v := rng.Intn(nodes - 1)
		if v >= u {
			v++
		}
		w := avgWeight * (1 + 3*rng.Float64())
		fmt.Fprintf(&b, "+ %d %d %v\n", u, v, w)
	}
	return b.Bytes()
}
