package main

import (
	"math"
	"testing"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{100000, 99},
		{1000, 99}, // rank 990, exactly ten beyond
		{999, 98},  // rank 990 of 999 leaves nine
		{512, 98},  // the manager's task ring
		{400, 95},
		{40, 75},
		{30, 50}, // no rung has ten beyond: fall back to the median
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%v, want p%v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 500, 99: 990, 100: 1000, 0.01: 1} {
		if got := percentile(sorted, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
}

func TestMedianOfSlices(t *testing.T) {
	st := overSlices([]float64{3, 1, 2, 10, 4})
	if st.Value != 3 || st.Min != 1 || st.Max != 10 {
		t.Errorf("overSlices = %+v, want median 3 between 1 and 10", st)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v, want 2.5", m)
	}
	if st := overSlices(nil); !math.IsNaN(st.Value) {
		t.Errorf("no slices must not look like a measurement: %+v", st)
	}
}

// quartileSpread must agree with the pipeline's
// statistics.quantiles(values, n=4): for 1..10 Python gives
// [2.75, 5.5, 8.25].
func TestQuartileSpreadMatchesPython(t *testing.T) {
	vs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got, want := quartileSpread(vs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("a single run has no spread, got %v", got)
	}
}
