package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middle values for even
// lengths), 0 for an empty slice. xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs, 0 for an
// empty slice. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// quietQuartile is the estimate every bounded timing uses: the lower quartile
// of xs. The shared host only ever adds time — for stretches of seconds to
// minutes everything runs 20–50% slower (README.md, "Repeatability") — so the
// faster quarter of a run's samples says what the program costs more steadily
// than the middle does, and a real regression moves it just as far. For a
// rate it is the upper quartile.
func quietQuartile(xs []float64) float64 { return percentile(xs, 0.25) }

// ratio is a/b, 0 when b is 0 — for hit ratios over counters that may not
// have moved.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
