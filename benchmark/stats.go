package main

import (
	"math"
	"sort"
)

// percentile reads the p-quantile of xs by nearest rank (the rule
// internal/serve uses for /stats, so client and server views compare).
// xs is sorted in place; an empty sample reads 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// ratio is a/b, reading 0 when b is 0 (a share of nothing).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
