package main

import (
	"math"
	"sort"
)

// tailLadder lists the tail percentiles the benchmark may report,
// highest first. tailPercentile picks from it.
var tailLadder = []float64{99, 95, 90, 80, 75}

// minBeyond is the number of samples that must lie beyond a reported
// tail percentile: a p99 over 300 samples is the third-largest value and
// moves with every outlier, over 1000 it has ten samples above it.
const minBeyond = 10

// tailPercentile returns the highest percentile of tailLadder that still
// has at least minBeyond of n samples beyond it, or 50 when none has.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= minBeyond {
			return p
		}
	}
	return 50
}

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule, or NaN for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// sortedCopy returns v sorted ascending, leaving v untouched.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the median of v (mean of the two middle values for an
// even count), or NaN for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sortedCopy(v)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles returns the first and third quartile of v by the exclusive
// method Python's statistics.quantiles(v, n=4) uses, so the spreads the
// compare mode prints are the ones the acceptance check computes. It
// needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		// Position i*(n+1)/4 in 1-based ranks; like Python, clamp the
		// rank and keep interpolating (or extrapolating) from there.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spreadShare is the interquartile distance of v as a share of its median.
func spreadShare(v []float64) float64 {
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}
