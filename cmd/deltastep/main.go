// Command deltastep runs the Δ-stepping SSSP baseline (Meyer & Sanders) and
// reports the paper's SSSP-based diameter 2-approximation (2·ecc from the
// source), together with the round and work accounting used in Table 2.
//
// Usage:
//
//	deltastep -graph road.gr -delta 1200
//	deltastep -spec mesh:512 -tune
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"graphdiam/cmd/internal/cli"
	"graphdiam/internal/bsp"
	"graphdiam/internal/sssp"
	"graphdiam/internal/validate"
)

func main() {
	var (
		path    = flag.String("graph", "", "input graph file (.gr, .bin, or edge list)")
		spec    = flag.String("spec", "", "generator spec (e.g. mesh:256, rmat:14, road:128)")
		workers = flag.Int("workers", 0, "parallel workers (0 = all cores)")
		delta   = flag.Float64("delta", 0, "bucket width Δ (0 = average edge weight)")
		tune    = flag.Bool("tune", false, "sweep Δ over {avg/4, avg, 4avg} picking fewest rounds")
		source  = flag.Int("source", -1, "SSSP source (-1 = node n/2)")
		seed    = flag.Uint64("seed", 1, "random seed for -spec generation")
		verify  = flag.Bool("verify", false, "report ratio against an iterated-sweep lower bound")
	)
	flag.Parse()

	g, err := cli.Load(*path, *spec, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deltastep:", err)
		os.Exit(1)
	}
	fmt.Printf("graph: n=%d m=%d avg-weight=%.4g\n", g.NumNodes(), g.NumEdges(), g.AvgEdgeWeight())

	src, err := cli.Source(g, *source)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deltastep:", err)
		os.Exit(1)
	}
	d := *delta
	if d <= 0 {
		d = sssp.SuggestDelta(g)
	}
	if *tune {
		avg := g.AvgEdgeWeight()
		d = sssp.TuneDelta(g, src, []float64{avg / 4, avg, 4 * avg})
		fmt.Printf("tuned delta: %.6g\n", d)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	e := bsp.New(*workers)
	defer e.Close()
	start := time.Now()
	ub, res, err := sssp.DiameterUpperBound(ctx, g, src, d, e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deltastep:", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)

	ecc, far := sssp.Eccentricity(res.Dist)
	fmt.Printf("source:    %d   ecc: %.6g   farthest: %d\n", src, ecc, far)
	fmt.Printf("estimate:  %.6g   (2-approximation: 2·ecc)\n", ub)
	fmt.Printf("rounds:    %d   work: %d (relaxations %d + updates %d)\n",
		res.Rounds, res.Work(), res.Relaxations, res.Updates)
	fmt.Printf("wall time: %s\n", elapsed)

	if *verify {
		lb, _ := validate.LowerBound(g, src, 4)
		fmt.Printf("lower bound: %.6g   ratio: %.4f\n", lb, ub/lb)
	}
}
