package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a
// percentile with fewer samples above it is one or two outliers, not a
// property of the distribution.
const minTail = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1):
// the smallest sample with at least q·n samples at or below it. It
// fails when fewer than minTail samples lie above that rank, so a
// caller can never report a p99 from 200 samples.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0, 1)", q)
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if beyond := n - rank - 1; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, beyond, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank], nil
}

// median is the middle of xs (mean of the two middles for even n); 0
// for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean of xs; 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
