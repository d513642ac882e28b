package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
)

// defaultSeconds is run_seconds of BENCHMARK.json: what a run measures
// when --seconds is not given.
const defaultSeconds = 15

// runChild runs one workload in a child process of its own — so that
// peak memory, GC state and page cache effects of one workload cannot
// leak into the next — and parses the result off its last line.
func runChild(workload string, seed uint64, seconds float64, traced bool) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", t)
	cmd.Env = append(os.Environ(), prebuiltEnv+"=1")
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("workload %s printed no result (%v)", workload, runErr)
	}
	return res, nil
}

// runAll runs the four workloads one after the other, untraced, and —
// when asked — each once more with tracing. It exits non-zero if any
// operation or check failed.
func runAll(seed uint64, seconds float64, traced bool) int {
	code := 0
	for _, w := range workloads {
		for _, tr := range []bool{false, true} {
			if tr && !traced {
				continue
			}
			res, err := runChild(w.name, seed, seconds, tr)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				code = 1
				continue
			}
			if !res.Correct {
				code = 1
			}
			specs := endToEnd
			if tr {
				specs = perLayer
			}
			printMetrics(os.Stdout, w.name, specs, res)
		}
	}
	return code
}

// worse is the share by which b is worse than a, in the metric's own
// direction; negative when b is better.
func worse(m metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// runSelfcheck runs two full untraced sets of the same code on the same
// seed and compares them: every end-to-end metric of every workload must
// agree within its bound, in either direction. A metric that does not is
// reported unresolved — the benchmark cannot tell a regression of that
// size from its own noise.
func runSelfcheck(seed uint64, seconds float64) int {
	sets := make([]map[string]result, 2)
	for i := range sets {
		sets[i] = map[string]result{}
		for _, w := range workloads {
			res, err := runChild(w.name, seed, seconds, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			sets[i][w.name] = res
		}
	}
	code := 0
	fmt.Printf("%-8s %-18s %14s %14s %8s %6s  %s\n", "workload", "metric", "first", "second", "diff", "bound", "verdict")
	for _, w := range workloads {
		a, b := sets[0][w.name], sets[1][w.name]
		if !a.Correct || !b.Correct {
			fmt.Printf("%-8s failed operations: %d and %d\n", w.name, a.Failed, b.Failed)
			code = 1
		}
		for _, m := range endToEnd {
			va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			diff := math.Max(worse(m, va, vb), worse(m, vb, va))
			verdict := "ok"
			if diff > m.Bound {
				verdict = "unresolved"
				code = 1
			}
			fmt.Printf("%-8s %-18s %14.6g %14.6g %7.1f%% %5.0f%%  %s\n", w.name, m.Name, va, vb, 100*diff, 100*m.Bound, verdict)
		}
	}
	return code
}
