package main

import (
	"math"
	"sort"
)

// minBeyond is the percentile rule: a percentile is reported as a tail
// figure only when at least this many samples lie beyond it.
const minBeyond = 10

// quantile returns the p-quantile (0 <= p <= 1) of sorted by linear
// interpolation between the two nearest ranks. It returns 0 for no samples.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// beyond returns how many of n samples lie strictly above the window the
// p-quantile interpolates in.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - int(math.Floor(p*float64(n-1)))
}

// tailOK reports whether n samples support reporting the p-quantile under
// the percentile rule.
func tailOK(n int, p float64) bool { return beyond(n, p) >= minBeyond }

// sortedCopy returns xs sorted ascending, leaving xs as it was.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the 0.5-quantile of unsorted samples.
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// sample is one op's latency tagged with its request class.
type sample struct {
	class string
	ms    float64
}

// classWindow is the half-width, as a share of all samples, of the rank
// window a percentile must share with its own class.
const classWindow = 0.05

// classAt reports which class the p-quantile of a mixed sample lands in:
// the class most of the samples ranked within classWindow of it belong to,
// and their share. A share near 1 means the percentile sits inside one
// class; a lower share means it sits between classes, where a small shift
// of either class moves it a long way.
func classAt(samples []sample, p float64) (class string, share float64) {
	n := len(samples)
	if n == 0 {
		return "", 0
	}
	s := append([]sample(nil), samples...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].ms < s[j].ms })
	at := int(math.Floor(p * float64(n-1)))
	w := int(classWindow * float64(n))
	lo, hi := max(at-w, 0), min(at+w, n-1)
	count := map[string]int{}
	var classes []string
	for _, x := range s[lo : hi+1] {
		if count[x.class] == 0 {
			classes = append(classes, x.class)
		}
		count[x.class]++
	}
	sort.Strings(classes)
	class = s[at].class // keeps ties
	for _, c := range classes {
		if count[c] > count[class] {
			class = c
		}
	}
	return class, float64(count[class]) / float64(hi-lo+1)
}
