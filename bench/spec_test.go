package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// BENCHMARK.json states for the driver what spec.go states for the
// program; this keeps them identical.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, default --seconds %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v vs %s / %s", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
	same := func(kind string, a, b []metricSpec) {
		if len(a) != len(b) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s metric %d: %+v vs %+v", kind, i, a[i], b[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

func TestSpecIsWellFormed(t *testing.T) {
	seen := map[string]bool{}
	hasSetup := false
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s named twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better=%q", m.Name, m.Better)
		}
		if len(m.Name) > 64 || len(m.Unit) > 16 || m.Unit == "" {
			t.Errorf("metric %s: name or unit out of limits", m.Name)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range perLayer {
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	for _, w := range workloads {
		sum := w.shareKernel + w.shareWarm + w.shareRouted + w.shareMixed + w.shareAppend + w.shareFault
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("workload %s: phase shares sum to %v", w.name, sum)
		}
		if w.chain >= 8 {
			t.Errorf("workload %s: a chain of %d is compacted in the background before fault-in can measure it", w.name, w.chain)
		}
	}
}
