package main

import (
	"math"

	"testing"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.9, 4.6}, {0.25, 2},
	} {
		if got := quantile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(nil) = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestPercentileRule pins the sample counts at which a tail percentile
// becomes reportable: at least minBeyond samples must lie beyond it.
func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{0, 0.9, 0, false},
		{10, 0.5, 5, false},
		{12, 0.9, 2, false},
		{91, 0.9, 9, false},
		{92, 0.9, 10, true},
		{1000, 0.9, 100, true},
		{20, 0.5, 10, true},
		{1000, 0.99, 10, true},
	} {
		if got := beyond(c.n, c.p); got != c.beyond {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.p, got, c.beyond)
		}
		if got := tailOK(c.n, c.p); got != c.ok {
			t.Errorf("tailOK(%d, %v) = %v, want %v", c.n, c.p, got, c.ok)
		}
	}
}

func classed(groups ...any) []sample {
	var out []sample
	for i := 0; i < len(groups); i += 3 {
		for j := 0; j < groups[i+1].(int); j++ {
			out = append(out, sample{class: groups[i].(string), ms: groups[i+2].(float64)})
		}
	}
	return out
}

func TestClassAt(t *testing.T) {
	// Sorted by latency the classes hold ranks 0-30, 30-70 and 70-100: the
	// median and the 90th percentile each sit inside one class.
	s := classed("fast", 30, 1.0, "mid", 40, 2.0, "slow", 30, 3.0)
	if c, share := classAt(s, 0.5); c != "mid" || share != 1 {
		t.Errorf("p50 in %s with share %v, want mid with 1", c, share)
	}
	if c, share := classAt(s, 0.9); c != "slow" || share != 1 {
		t.Errorf("p90 in %s with share %v, want slow with 1", c, share)
	}
	// Two equal halves put the median on the boundary: its rank window is
	// split between the classes.
	s = classed("a", 50, 1.0, "b", 50, 2.0)
	if c, share := classAt(s, 0.5); c != "a" || share > 0.6 {
		t.Errorf("p50 in %s with share %v, want a with about half", c, share)
	}
	if c, share := classAt(nil, 0.5); c != "" || share != 0 {
		t.Errorf("classAt(nil) = %q, %v", c, share)
	}
}
