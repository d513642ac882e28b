package exp

import (
	"fmt"
	"io"
	"time"

	"graphdiam/internal/bsp"
	"graphdiam/internal/core"
	"graphdiam/internal/gen"
	"graphdiam/internal/rng"
	"graphdiam/internal/validate"
)

// Table3Row reports a CL-DIAM run on one of the "big" graphs.
type Table3Row struct {
	Name, PaperName string
	N, M            int
	Time            time.Duration
	Estimate        float64
	Rounds          int64
}

// Table3 runs CL-DIAM on the two largest instances — the stand-ins for the
// paper's R-MAT(29) and roads(32), on which the baseline would be
// impractically slow (Table 3's point).
func Table3(scale Scale, workers int, seed uint64) []Table3Row {
	r := rng.New(seed)
	var rmatScale, roadsS, roadsSide int
	switch scale {
	case ScaleTest:
		rmatScale, roadsS, roadsSide = 11, 3, 32
	default:
		rmatScale, roadsS, roadsSide = 17, 6, 96
	}
	graphs := []NamedGraph{
		{"rmat-huge", "R-MAT(29)", gen.UniformWeights(largestCC(gen.RMatDefault(rmatScale, r.Split())), r.Split())},
		{"roads-prod", "roads(32)", gen.Roads(roadsS, roadsSide, r.Split())},
	}
	rows := make([]Table3Row, 0, len(graphs))
	for _, ng := range graphs {
		e := bsp.New(workers)
		tau := core.TauForQuotientTarget(ng.G.NumNodes(), 4000)
		res := mustDiam(ng.G, core.DiamOptions{
			Options: core.Options{Tau: tau, Seed: seed, Engine: e},
		})
		e.Close()
		rows = append(rows, Table3Row{ng.Name, ng.PaperName, ng.G.NumNodes(), ng.G.NumEdges(),
			res.WallTime, res.Estimate, res.Metrics.Rounds})
	}
	return rows
}

// WriteTable3 renders Table 3.
func WriteTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintf(w, "%-12s %-12s %9s %10s %10s %8s %12s\n",
		"graph", "(paper)", "n", "m", "time", "rounds", "estimate")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-12s %9d %10d %10s %8d %12.4g\n",
			r.Name, r.PaperName, r.N, r.M, r.Time.Round(time.Millisecond), r.Rounds, r.Estimate)
	}
}

// Fig4Point is one point of the scalability curve.
type Fig4Point struct {
	Graph   string
	Workers int
	Time    time.Duration
	Speedup float64 // relative to the 1-worker run of the same graph
}

// Fig4 measures CL-DIAM wall time at increasing worker counts on an R-MAT
// graph and a roads product — the paper's Figure 4 pair (R-MAT(26) and
// roads(3): comparable node counts, very different topology).
func Fig4(scale Scale, workerCounts []int, seed uint64) []Fig4Point {
	r := rng.New(seed)
	var rmatScale, roadsS, roadsSide int
	switch scale {
	case ScaleTest:
		rmatScale, roadsS, roadsSide = 10, 2, 24
	default:
		rmatScale, roadsS, roadsSide = 15, 3, 72
	}
	graphs := []NamedGraph{
		{"rmat", "R-MAT(26)", gen.UniformWeights(largestCC(gen.RMatDefault(rmatScale, r.Split())), r.Split())},
		{"roads", "roads(3)", gen.Roads(roadsS, roadsSide, r.Split())},
	}
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 2, 4, 8, 16}
	}
	var points []Fig4Point
	for _, ng := range graphs {
		tau := core.TauForQuotientTarget(ng.G.NumNodes(), 2000)
		base := time.Duration(0)
		for _, p := range workerCounts {
			// Simulated engine: workers run sequentially and the
			// per-superstep maximum worker time accumulates into the
			// critical path — the compute time a P-machine cluster would
			// pay. This keeps Figure 4 meaningful on hosts with fewer
			// physical cores than simulated machines (run `cmd/experiments
			// -scale test fig4`; see the experiment index in DESIGN.md).
			e := bsp.NewSimulated(p)
			res := mustDiam(ng.G, core.DiamOptions{
				Options: core.Options{Tau: tau, Seed: seed, Engine: e},
			})
			simTime := e.CriticalPath()
			if base == 0 {
				base = simTime
			}
			speedup := float64(base) / float64(simTime)
			points = append(points, Fig4Point{ng.Name, p, simTime, speedup})
			_ = res
		}
	}
	return points
}

// WriteFig4 renders the scalability series.
func WriteFig4(w io.Writer, points []Fig4Point) {
	fmt.Fprintf(w, "%-8s %8s %12s %9s\n", "graph", "workers", "time", "speedup")
	for _, p := range points {
		fmt.Fprintf(w, "%-8s %8d %12s %8.2fx\n",
			p.Graph, p.Workers, p.Time.Round(time.Millisecond), p.Speedup)
	}
}

// DeltaSensRow is one configuration of the Section 5 Δ-sensitivity
// experiment on the bimodal-weight mesh.
type DeltaSensRow struct {
	Config   string
	Ratio    float64
	Estimate float64
	Rounds   int64
}

// DeltaSens reproduces the Section 5 experiment: a mesh with bimodal edge
// weights (heavy w.p. pHeavy, nearly-zero otherwise) where the initial Δ
// guess decides whether clusters swallow heavy edges. The paper reports a
// ratio of 1.0001 when Δ starts at the minimum weight and ~2.5 when it
// starts at the graph diameter, with the average weight a safe default.
func DeltaSens(scale Scale, seed uint64) []DeltaSensRow {
	r := rng.New(seed)
	side, pHeavy := 48, 0.3
	if scale != ScaleTest {
		side, pHeavy = 96, 0.2
	}
	g := gen.BimodalWeights(gen.Mesh(side), 1e-6, 1, pHeavy, r)
	eEx := bsp.New(0)
	exact := validate.ExactDiameter(g, eEx)
	eEx.Close()
	tau := core.TauForQuotientTarget(g.NumNodes(), 2000)
	run := func(name string, init core.DeltaInit, fixed float64) DeltaSensRow {
		e := bsp.New(0)
		defer e.Close()
		res := mustDiam(g, core.DiamOptions{
			Options: core.Options{Tau: tau, Seed: seed, InitialDelta: init, FixedDelta: fixed, Engine: e},
		})
		return DeltaSensRow{name, res.Estimate / exact, res.Estimate, res.Metrics.Rounds}
	}
	return []DeltaSensRow{
		run("delta=min-weight", core.DeltaMinWeight, 0),
		run("delta=avg-weight", core.DeltaAvgWeight, 0),
		run("delta=diameter", core.DeltaFixed, exact),
	}
}

// WriteDeltaSens renders the Δ-sensitivity rows.
func WriteDeltaSens(w io.Writer, rows []DeltaSensRow) {
	fmt.Fprintf(w, "%-18s %9s %12s %8s\n", "config", "ratio", "estimate", "rounds")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %9.4f %12.4g %8d\n", r.Config, r.Ratio, r.Estimate, r.Rounds)
	}
}

// StepCapRow is one configuration of the Section 4.1 step-cap ablation.
type StepCapRow struct {
	Config string
	Ratio  float64
	Rounds int64
	Steps  int64
	// MaxSteps is the largest single PartialGrowth invocation, which the
	// cap bounds directly.
	MaxSteps int
}

// StepCap measures the Section 4.1 tradeoff on a road network (large ℓ):
// capping the growing steps per PartialGrowth reduces rounds at a bounded
// approximation cost.
func StepCap(scale Scale, seed uint64) []StepCapRow {
	r := rng.New(seed)
	side := 40
	if scale != ScaleTest {
		side = 128
	}
	g := gen.RoadNetwork(gen.DefaultRoadNetworkOptions(side), r)
	lb, _ := validate.LowerBound(g, 0, 4)
	// Small τ makes clusters deep (large ℓ_R) so the cap has bite.
	tau := 8
	run := func(name string, cap int) StepCapRow {
		e := bsp.New(0)
		defer e.Close()
		res := mustDiam(g, core.DiamOptions{
			Options: core.Options{Tau: tau, Seed: seed, StepCap: cap, Engine: e},
		})
		return StepCapRow{name, res.Estimate / lb, res.Metrics.Rounds,
			res.Clustering.GrowingSteps, res.Clustering.MaxPartialGrowthSteps}
	}
	capN := g.NumNodes() / tau
	if capN < 1 {
		capN = 1
	}
	return []StepCapRow{
		run("uncapped", 0),
		run(fmt.Sprintf("cap=n/tau=%d", capN), capN),
		run("cap=2", 2),
	}
}

// WriteStepCap renders the ablation rows.
func WriteStepCap(w io.Writer, rows []StepCapRow) {
	fmt.Fprintf(w, "%-18s %9s %8s %8s %9s\n", "config", "ratio", "rounds", "steps", "maxsteps")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %9.4f %8d %8d %9d\n", r.Config, r.Ratio, r.Rounds, r.Steps, r.MaxSteps)
	}
}
