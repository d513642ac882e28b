package main

import "testing"

func TestMedian(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	in := []float64{5, 1, 4}
	median(in)
	if in[0] != 5 || in[1] != 1 || in[2] != 4 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestTailPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, unsorted
	}
	v, beyond := tailPercentile(xs, 99)
	if v != 990 || beyond != 10 {
		t.Errorf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", v, beyond)
	}
	v, beyond = tailPercentile(xs[:10], 99)
	if v != 1000 || beyond != 0 {
		t.Errorf("p99 of 10 samples = %v with %d beyond, want the maximum with 0", v, beyond)
	}
}

// The guide's rule: report the highest percentile that still has at
// least ten samples beyond it.
func TestSupportedPercentileTenBeyond(t *testing.T) {
	cands := []float64{90, 95, 99, 99.9}
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{50, 50},      // p90 leaves only 5 beyond
		{100, 90},     // p90 leaves exactly 10
		{199, 90},     // p95 would leave 9
		{200, 95},     // p95 leaves exactly 10
		{999, 95},     // p99 would leave 9
		{1000, 99},    // p99 leaves exactly 10
		{10000, 99.9}, // p99.9 leaves exactly 10
		{9999, 99},    // p99.9 would leave 9
	} {
		if got := supportedPercentile(tc.n, cands); got != tc.want {
			t.Errorf("n=%d: supported percentile %v, want %v", tc.n, got, tc.want)
		}
	}
}
