package exp

import (
	"bytes"
	"strings"
	"testing"
)

func TestBenchmarkGraphsShapes(t *testing.T) {
	graphs := BenchmarkGraphs(ScaleTest, 1)
	if len(graphs) != 6 {
		t.Fatalf("want 6 benchmark graphs, got %d", len(graphs))
	}
	names := map[string]bool{}
	for _, ng := range graphs {
		if ng.G.NumNodes() == 0 || ng.G.NumEdges() == 0 {
			t.Fatalf("%s: empty graph", ng.Name)
		}
		if names[ng.Name] {
			t.Fatalf("duplicate graph name %s", ng.Name)
		}
		names[ng.Name] = true
	}
	// Determinism in seed.
	again := BenchmarkGraphs(ScaleTest, 1)
	for i := range graphs {
		if graphs[i].G.NumEdges() != again[i].G.NumEdges() {
			t.Fatalf("%s: benchmark graphs not deterministic", graphs[i].Name)
		}
	}
}

func TestCompareProducesSaneRow(t *testing.T) {
	graphs := BenchmarkGraphs(ScaleTest, 1)
	for _, ng := range graphs[:3] { // roads-big, roads-small, mesh
		row := Compare(ng, CompareOptions{Workers: 4, Seed: 2})
		if row.LowerBound <= 0 {
			t.Fatalf("%s: lower bound %v", ng.Name, row.LowerBound)
		}
		// Conservative estimates: both at least the lower bound.
		if row.RatioCL < 1-1e-9 || row.RatioDS < 1-1e-9 {
			t.Fatalf("%s: ratios below 1: CL %v DS %v", ng.Name, row.RatioCL, row.RatioDS)
		}
		// Δ-stepping is a 2-approximation against the LB.
		if row.RatioDS > 2+1e-9 {
			t.Fatalf("%s: Δ-stepping ratio %v exceeds 2", ng.Name, row.RatioDS)
		}
		if row.RoundsCL <= 0 || row.RoundsDS <= 0 || row.WorkCL <= 0 || row.WorkDS <= 0 {
			t.Fatalf("%s: empty accounting %+v", ng.Name, row)
		}
	}
}

func TestPaperShapeRoadGraphs(t *testing.T) {
	// The paper's headline (Table 2, Figures 2-3): on road-type graphs
	// CL-DIAM needs far fewer rounds and less work than Δ-stepping.
	graphs := BenchmarkGraphs(ScaleTest, 1)
	row := Compare(graphs[0], CompareOptions{Workers: 4, Seed: 3}) // roads-big
	if row.RoundsCL*3 > row.RoundsDS {
		t.Fatalf("roads: CL-DIAM rounds %d not well below Δ-stepping %d",
			row.RoundsCL, row.RoundsDS)
	}
	// Work parity or better. (The paper's Spark work counter includes
	// per-round RDD rescans and shows a larger gap; our counters include
	// only algorithmically necessary relaxations — run `cmd/experiments
	// -scale test table2`; see the experiment index in DESIGN.md.)
	if row.WorkCL > 3*row.WorkDS/2 {
		t.Fatalf("roads: CL-DIAM work %d well above Δ-stepping %d", row.WorkCL, row.WorkDS)
	}
	// Approximation stays practical (paper: < 1.4; generous margin here).
	if row.RatioCL > 2.0 {
		t.Fatalf("roads: CL-DIAM ratio %v too large", row.RatioCL)
	}
}

func TestWriteTable2Renders(t *testing.T) {
	graphs := BenchmarkGraphs(ScaleTest, 1)
	rows := []Row{Compare(graphs[1], CompareOptions{Workers: 2, Seed: 1})}
	var buf bytes.Buffer
	WriteTable2(&buf, rows)
	out := buf.String()
	if !strings.Contains(out, "roads-small") || !strings.Contains(out, "workDS") {
		t.Fatalf("table output malformed:\n%s", out)
	}
}

func TestTable1(t *testing.T) {
	rows := Table1(ScaleTest)
	if len(rows) != 6 {
		t.Fatalf("table 1 rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Diameter <= 0 {
			t.Fatalf("%s: diameter estimate %v", r.Name, r.Diameter)
		}
	}
	var buf bytes.Buffer
	WriteTable1(&buf, rows)
	if !strings.Contains(buf.String(), "roads-USA") {
		t.Fatal("table 1 missing paper names")
	}
}

func TestTable3(t *testing.T) {
	rows := Table3(ScaleTest, 4, 1)
	if len(rows) != 2 {
		t.Fatalf("table 3 rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Estimate <= 0 || r.Rounds <= 0 {
			t.Fatalf("%s: %+v", r.Name, r)
		}
	}
	var buf bytes.Buffer
	WriteTable3(&buf, rows)
	if !strings.Contains(buf.String(), "R-MAT(29)") {
		t.Fatal("table 3 missing paper names")
	}
}

func TestFig4(t *testing.T) {
	points := Fig4(ScaleTest, []int{1, 2, 4}, 1)
	if len(points) != 6 {
		t.Fatalf("fig4 points = %d, want 6", len(points))
	}
	for _, p := range points {
		if p.Time <= 0 || p.Speedup <= 0 {
			t.Fatalf("bad point %+v", p)
		}
	}
	var buf bytes.Buffer
	WriteFig4(&buf, points)
	if !strings.Contains(buf.String(), "workers") {
		t.Fatal("fig4 output malformed")
	}
}

func TestDeltaSens(t *testing.T) {
	rows := DeltaSens(ScaleTest, 77)
	if len(rows) != 3 {
		t.Fatalf("delta-sens rows = %d", len(rows))
	}
	var minRow, diamRow DeltaSensRow
	for _, r := range rows {
		switch r.Config {
		case "delta=min-weight":
			minRow = r
		case "delta=diameter":
			diamRow = r
		}
	}
	if minRow.Ratio > 1.1 {
		t.Fatalf("min-weight ratio %v, want ~1 (paper: 1.0001)", minRow.Ratio)
	}
	if diamRow.Ratio < 1.5*minRow.Ratio {
		t.Fatalf("diameter-init ratio %v should be much worse than %v (paper: ~2.5 vs 1.0001)",
			diamRow.Ratio, minRow.Ratio)
	}
	var buf bytes.Buffer
	WriteDeltaSens(&buf, rows)
	if !strings.Contains(buf.String(), "ratio") {
		t.Fatal("delta-sens output malformed")
	}
}

func TestStepCap(t *testing.T) {
	rows := StepCap(ScaleTest, 3)
	if len(rows) != 3 {
		t.Fatalf("step-cap rows = %d", len(rows))
	}
	uncapped, tight := rows[0], rows[2]
	if tight.MaxSteps > 2 {
		t.Fatalf("cap=2 violated: max PartialGrowth steps %d", tight.MaxSteps)
	}
	if uncapped.MaxSteps <= 2 {
		t.Fatalf("uncapped max steps %d too small for the ablation to bite", uncapped.MaxSteps)
	}
	for _, r := range rows {
		if r.Ratio < 1-1e-9 {
			t.Fatalf("%s: ratio %v below 1", r.Config, r.Ratio)
		}
	}
	var buf bytes.Buffer
	WriteStepCap(&buf, rows)
	if !strings.Contains(buf.String(), "uncapped") {
		t.Fatal("step-cap output malformed")
	}
}
