package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs,
// sorting xs in place; NaN when xs is empty.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median is percentile(xs, 0.5) on a copy.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 0.5)
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
