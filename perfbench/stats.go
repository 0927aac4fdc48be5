package main

import (
	"math"
	"sort"
	"time"
)

// tailPercentiles are the candidate tail ranks, highest first. A tail metric
// reports the highest one that still has at least tailMinBeyond samples
// strictly beyond it, so a tail is never read off a handful of outliers.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

const tailMinBeyond = 10

// quantile returns the q-quantile (0 <= q <= 1) of sorted values by linear
// interpolation between closest ranks (the "R-7" rule). Empty input gives NaN.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= n {
		hi = n - 1
	}
	frac := pos - float64(lo)
	a, b := sorted[lo], sorted[hi]
	if frac == 0 || a == b {
		return a
	}
	return a + (b-a)*frac
}

// sortedCopy returns vals sorted ascending without touching the input.
func sortedCopy(vals []float64) []float64 {
	out := append([]float64(nil), vals...)
	sort.Float64s(out)
	return out
}

// median is the 0.5-quantile of unsorted values.
func median(vals []float64) float64 { return quantile(sortedCopy(vals), 0.5) }

// tailRank picks the tail percentile for n samples: the highest rank p with
// at least tailMinBeyond samples beyond it, i.e. n·(100−p)/100 ≥ tailMinBeyond
// (with a little slack for the rounding of 100−p). It reports false when even
// the median has fewer than that beyond it.
func tailRank(n int) (float64, bool) {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= tailMinBeyond-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// tail returns the tail latency of unsorted values under the tailRank rule,
// with the rank it used. With too few samples for any rank it returns the
// maximum and rank 100, so a short run still reports its worst case.
func tail(vals []float64) (value, rank float64) {
	s := sortedCopy(vals)
	if len(s) == 0 {
		return math.NaN(), 0
	}
	p, ok := tailRank(len(s))
	if !ok {
		return s[len(s)-1], 100
	}
	return quantile(s, p/100), p
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
