package main

import (
	"math"
	"sort"
)

// tailMinBeyond is the percentile rule: a tail percentile is reported
// only when at least this many samples lie beyond it.
const tailMinBeyond = 10

// quantile returns the nearest-rank q-quantile of xs (which it sorts
// in place), the number of samples strictly beyond that rank, and
// whether the sample supports the quantile under the percentile rule.
// The median is always supported once there is one sample.
func quantile(xs []float64, q float64) (v float64, beyond int, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, 0, false
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	beyond = n - 1 - rank
	return xs[rank], beyond, q <= 0.5 || beyond >= tailMinBeyond
}

// minSamplesFor is the smallest sample count that supports the
// q-quantile under the percentile rule.
func minSamplesFor(q float64) int {
	n := 1
	for ; n-int(math.Ceil(q*float64(n))) < tailMinBeyond; n++ {
	}
	return n
}

// median is the 0.5 quantile of a copy of xs (0 for no samples).
func median(xs []float64) float64 {
	v, _, _ := quantile(append([]float64(nil), xs...), 0.5)
	return v
}

// sum adds xs.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
