package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile of xs: the smallest sample
// with at least p% of the samples at or below it; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	i := rank(p, n) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return s[i]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
// The tolerance keeps p/100*n from rounding up past an exact rank (99.9% of
// 10000 is rank 9990, not 9991).
func rank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// tailPercentile is the highest of p99.9, p99 and p90 that still has at
// least ten of n samples strictly beyond its rank, so a tail is never read
// off one or two outliers. ok is false when n is too small for any of them.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range []float64{99.9, 99, 90} {
		if n-rank(p, n) >= 10 {
			return p, true
		}
	}
	return 0, false
}
