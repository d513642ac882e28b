// Command bench is the repository's one benchmark: it builds the daemons
// from the checkout it sits in, feeds one workload through the whole
// system — the in-process kernels, a two-daemon fleet behind graphdiamlb,
// and a solo daemon's write path — checks every answer, and prints every
// metric by name. See README.md.
//
//	bash bench/run.sh --workload road --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --seed 1                 all four workloads, one child process each
//	bash bench/run.sh --seed 1 --trace 1       … each followed by its traced run
//	bash bench/run.sh --selfcheck              two full sets, compared against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

// metricValue is one reported measurement.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// watchdog is how long a single-workload run may take before it gives up,
// stops its daemons and exits non-zero.
const watchdog = 170 * time.Second

// scratch is this process's directory under bench/out, removed on every
// exit path.
var scratch string

// die stops every daemon, removes the scratch directory, then exits
// non-zero without printing a result.
func die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	stopAll()
	if scratch != "" {
		os.RemoveAll(scratch)
	}
	os.Exit(2)
}

func main() {
	var (
		workload  = flag.String("workload", "", "run one workload (road, rmat, serve, ingest) and print its result as the last line; empty runs all four")
		seed      = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds   = flag.Float64("seconds", defaultSeconds, "how long the timed phases of one run measure")
		trace     = flag.Int("trace", 0, "1 records spans around the calls into each layer, writes bench/out/trace-<workload>.json and reports the per-layer metrics instead of the end-to-end ones")
		selfcheck = flag.Bool("selfcheck", false, "run two full sets back to back and compare every end-to-end metric against its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	e, err := newEnv()
	if err != nil {
		die("%v", err)
	}
	scratch = e.tmp

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		die("interrupted")
	}()

	if err := e.buildDaemons(); err != nil {
		die("%v", err)
	}

	code := 0
	switch {
	case *selfcheck:
		code = runSelfcheck(*seed, *seconds)
	case *workload == "":
		code = runAll(*seed, *seconds, *trace == 1)
	default:
		p, ok := workloadByName(*workload)
		if !ok {
			die("unknown workload %q", *workload)
		}
		code = runOne(e, p, *seed, *seconds, *trace == 1)
	}
	stopAll()
	os.RemoveAll(e.tmp)
	os.Exit(code)
}

// nproc is the parallelism every part of a run is sized for: BSP workers
// per engine, closed-loop clients, oracle goroutines. The benchmark is
// designed for a two-core box and does not grow with a bigger one, so
// numbers from different machines differ in speed but not in shape.
func nproc() int { return min(runtime.NumCPU(), 2) }

// runOne executes one workload in this process and prints its result as
// the last line of standard output.
func runOne(e *env, p params, seed uint64, seconds float64, traced bool) int {
	timer := time.AfterFunc(watchdog, func() {
		die("workload %s still running after %v", p.name, watchdog)
	})
	defer timer.Stop()

	r := &run{p: p, seed: seed, seconds: seconds, nproc: nproc(), env: e}
	specs := endToEnd
	if traced {
		r.rec = newRecorder(4000)
		specs = perLayer
	}
	values, err := r.execute()
	if err != nil {
		die("workload %s: %v", p.name, err)
	}
	res := result{Attempted: r.tally.attempted, Failed: r.tally.failed, Metrics: map[string]metricValue{}}
	res.Correct = res.Failed == 0
	for _, m := range specs {
		v, ok := values[m.Name]
		if !ok {
			die("workload %s did not measure %s", p.name, m.Name)
		}
		res.Metrics[m.Name] = metricValue{v, m.Unit}
	}
	printMetrics(os.Stderr, p.name, specs, res)
	line, err := json.Marshal(res)
	if err != nil {
		die("%v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func printMetrics(w *os.File, workload string, specs []metricSpec, res result) {
	fmt.Fprintf(w, "%s: attempted %d, failed %d\n", workload, res.Attempted, res.Failed)
	for _, spec := range specs {
		m := res.Metrics[spec.Name]
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", spec.Name, m.Value, m.Unit)
	}
}
