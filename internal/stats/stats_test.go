package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Errorf("different seeds produced identical streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnUniformish(t *testing.T) {
	r := NewRNG(7)
	buckets := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		buckets[r.Intn(10)]++
	}
	for i, b := range buckets {
		if b < n/10-n/50 || b > n/10+n/50 {
			t.Errorf("bucket %d count %d far from uniform %d", i, b, n/10)
		}
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(3)
	p := r.Perm(20)
	sorted := append([]int(nil), p...)
	sort.Ints(sorted)
	for i, v := range sorted {
		if v != i {
			t.Fatalf("Perm is not a permutation: %v", p)
		}
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("mean = %v, want 5", m)
	}
	if s := StdDev(xs); math.Abs(s-2.138) > 0.01 {
		t.Errorf("stddev = %v, want ~2.138", s)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Errorf("empty-slice mean/stddev should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	// Interpolation between ranks.
	if got := Percentile([]float64{0, 10}, 50); got != 5 {
		t.Errorf("interpolated median = %v, want 5", got)
	}
}

func TestFiveNumber(t *testing.T) {
	f := FiveNumber([]float64{7, 1, 3, 5, 9})
	if f.Min != 1 || f.Max != 9 || f.Median != 5 {
		t.Errorf("five-number = %+v", f)
	}
	if f.IQR() <= 0 {
		t.Errorf("IQR = %v, want > 0", f.IQR())
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 2x + 1
	slope, intercept, r2 := LinearFit(xs, ys)
	if math.Abs(slope-2) > 1e-12 || math.Abs(intercept-1) > 1e-12 {
		t.Errorf("fit = %v, %v, want 2, 1", slope, intercept)
	}
	if math.Abs(r2-1) > 1e-12 {
		t.Errorf("r2 = %v, want 1", r2)
	}
}

func TestCDFDescending(t *testing.T) {
	cdf := CDF([]float64{1, 3, 6})
	want := []float64{0.6, 0.9, 1.0}
	for i := range want {
		if math.Abs(cdf[i]-want[i]) > 1e-12 {
			t.Errorf("cdf[%d] = %v, want %v", i, cdf[i], want[i])
		}
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Errorf("clamp misbehaves")
	}
}

// Property: CDF output is sorted ascending and ends at 1 for any non-empty
// positive input.
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(ws []uint16) bool {
		if len(ws) == 0 {
			return true
		}
		xs := make([]float64, len(ws))
		anyPos := false
		for i, w := range ws {
			xs[i] = float64(w)
			if w > 0 {
				anyPos = true
			}
		}
		cdf := CDF(xs)
		for i := 1; i < len(cdf); i++ {
			if cdf[i] < cdf[i-1]-1e-12 {
				return false
			}
		}
		if anyPos && math.Abs(cdf[len(cdf)-1]-1) > 1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the five-number summary is ordered min<=Q1<=median<=Q3<=max.
func TestFiveNumberOrderedProperty(t *testing.T) {
	f := func(ws []int16) bool {
		if len(ws) == 0 {
			return true
		}
		xs := make([]float64, len(ws))
		for i, w := range ws {
			xs[i] = float64(w)
		}
		fn := FiveNumber(xs)
		return fn.Min <= fn.Q1 && fn.Q1 <= fn.Median &&
			fn.Median <= fn.Q3 && fn.Q3 <= fn.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
