package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles a tail is reported at, lowest first.
var tailLadder = []float64{50, 90, 99, 99.9}

// tailPercentile returns the highest percentile of tailLadder that leaves at
// least ten samples beyond it out of n, so a tail is never read off a handful
// of outliers. It never goes below the median, which it returns when no
// percentile qualifies.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// percentile returns the p-th percentile of xs (nearest rank on the sorted
// samples); xs need not be sorted and is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
