package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the sample-count rule for tail percentiles: a percentile
// is reported only when at least this many samples lie beyond it.
const minBeyond = 10

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between closest ranks (the numpy/R type-7 rule). xs need
// not be sorted and is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is the 0.5 quantile.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// mean is the arithmetic mean (NaN for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// supported reports whether n samples support the p-quantile: at least
// minBeyond samples must lie beyond it. The tolerance absorbs rounding
// in 1−p (100 × (1−0.9) is just under 10 in binary floating point).
func supported(n int, p float64) bool {
	return float64(n)*(1-p) >= minBeyond-1e-9
}

// tailPercentile is percentile with the sample-count rule enforced, so a
// tail figure is never printed from too few samples.
func tailPercentile(xs []float64, p float64) (float64, error) {
	if !supported(len(xs), p) {
		return 0, fmt.Errorf("p%g needs at least %d samples beyond it; have %d samples",
			p*100, minBeyond, len(xs))
	}
	return percentile(xs, p), nil
}

// msOf converts nanoseconds to milliseconds.
func msOf(ns int64) float64 { return float64(ns) / 1e6 }
