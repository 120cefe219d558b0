package main

import (
	"math"
	"slices"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count); NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the method
// Python's statistics.quantiles(xs, n=4) uses (the "exclusive" method),
// so spreads printed here match the ones the acceptance check computes.
// Fewer than two samples give (x, x).
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// tailPercentiles are the percentiles tailPercentile chooses among.
var tailPercentiles = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile returns the highest of tailPercentiles that still has
// at least 10 samples beyond it, and its nearest-rank value. ok is false
// when even the median has fewer than 10 samples above it.
func tailPercentile(xs []float64) (pct, value float64, ok bool) {
	s := slices.Clone(xs)
	slices.Sort(s)
	for _, p := range tailPercentiles {
		rank := nearestRank(p, len(s))
		if len(s)-rank < 10 {
			break
		}
		pct, value, ok = p, s[rank-1], true
	}
	return pct, value, ok
}

// nearestRank is the 1-based nearest-rank index of percentile p in n
// sorted samples.
func nearestRank(p float64, n int) int {
	return max(int(math.Ceil(p/100*float64(n))), 1)
}

// geomean returns the geometric mean of xs; NaN when xs is empty or
// holds a non-positive value.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// pairedRatio returns the median of the per-pair ratios a[i]/b[i]. Each
// pair ran back to back, so host-speed drift between pairs cancels.
func pairedRatio(a, b []float64) float64 {
	n := min(len(a), len(b))
	r := make([]float64, 0, n)
	for i := range n {
		if b[i] > 0 {
			r = append(r, a[i]/b[i])
		}
	}
	return median(r)
}
