package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// nearestRank is the 1-based rank of percentile p among n sorted samples.
// The small slack keeps 99.9 % of 10 000 at rank 9990, which floating
// point would otherwise push to 9991.
func nearestRank(p float64, n int) int {
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// tailPercentile returns the value at percentile p (0 < p < 100) by the
// nearest-rank rule, and how many samples lie beyond that rank. The
// choosing-metrics guide asks for the highest percentile with at least
// ten samples beyond it; supportedPercentile picks that percentile.
func tailPercentile(xs []float64, p float64) (value float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := nearestRank(p, n)
	return s[rank-1], n - rank
}

// supportedPercentile returns the highest of the candidate percentiles
// (given in increasing order) that still has at least ten samples beyond
// its rank, or 50 when the sample supports none of them.
func supportedPercentile(n int, candidates []float64) float64 {
	best := 50.0
	for _, p := range candidates {
		if n-nearestRank(p, n) >= 10 {
			best = p
		}
	}
	return best
}
