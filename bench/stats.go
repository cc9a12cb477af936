package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of xs by
// the rule of Python's statistics.quantiles(xs, n=4) (exclusive method), so
// a spread computed here equals the one the driver computes. One value is
// its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// tailCandidates are the percentiles tailPercentile chooses from.
var tailCandidates = []float64{50, 75, 90, 95, 99, 99.9, 99.99}

// tailPercentile reports the highest candidate percentile that still has at
// least ten samples beyond it, as a nearest-rank observation. With fewer
// than twenty samples no candidate qualifies: it then reports the maximum
// as percentile 100, which says the tail is not resolved at this n.
func tailPercentile(xs []float64) (pct, value float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	// rank is the nearest-rank index of percentile p; the epsilon keeps
	// 99.9 % of 10000 at 9990 despite floating point.
	rank := func(p float64) int { return int(math.Ceil(p/100*float64(n) - 1e-9)) }
	pct = 100
	for _, p := range tailCandidates {
		if n-rank(p) >= 10 {
			pct = p
		}
	}
	if pct == 100 {
		return 100, s[n-1]
	}
	return pct, s[rank(pct)-1]
}
