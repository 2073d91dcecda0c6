package main

import (
	"math"
	"sort"
)

// tailLadder lists the tail percentiles tried, highest first. The rule
// (choosing-metrics guide, ISSUE 13): report the highest percentile that
// still has at least tailBeyond samples beyond it, so the reported tail
// is never decided by a handful of outliers.
var tailLadder = []float64{99, 98, 95, 90, 75}

const tailBeyond = 10

// percentile returns the p-th percentile of sorted by nearest rank.
// sorted must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of percentile p among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile picks the highest ladder percentile with at least
// tailBeyond of n samples beyond it; with too few samples for any rung it
// falls back to the median.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-rank(n, p) >= tailBeyond {
			return p
		}
	}
	return 50
}

// median returns the median of vs (mean of the two middle values for an
// even count). vs is not modified; an empty input yields NaN.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// stat is one reported value: the median over the run's replicates (the
// "slices" of the issue) with the smallest and largest beside it.
type stat struct {
	Value float64
	Min   float64
	Max   float64
}

// overSlices reduces one value per replicate to the reported stat.
func overSlices(perSlice []float64) stat {
	if len(perSlice) == 0 {
		return stat{math.NaN(), math.NaN(), math.NaN()}
	}
	st := stat{Value: median(perSlice), Min: perSlice[0], Max: perSlice[0]}
	for _, v := range perSlice[1:] {
		st.Min = math.Min(st.Min, v)
		st.Max = math.Max(st.Max, v)
	}
	return st
}

// single wraps a value measured once per run.
func single(v float64) stat { return stat{v, v, v} }

// quartileSpread is the distance between the first and third quartile of
// vs as a share of their median, the run-to-run spread the regression
// bounds are sized against. It mirrors Python's
// statistics.quantiles(vs, n=4) (exclusive method), which the pipeline
// uses. Fewer than two values have no spread.
func quartileSpread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		// Exclusive method: position k*(n+1)/4, 1-based, interpolated.
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / med)
}
