package xsbench

import (
	"math"
	"testing"

	"repro/internal/machine"
)

func small() *XSBench {
	return &XSBench{Nuclides: 8, Gridpoints: 200, Lookups: 500, seed: 0x5b}
}

func TestChecksumDeterministic(t *testing.T) {
	run := func() float64 {
		x := small()
		m := machine.New(machine.Default())
		x.Run(m)
		return x.Checksum
	}
	if run() != run() {
		t.Errorf("non-deterministic checksum")
	}
}

func TestInterpolationExactForLinearChannels(t *testing.T) {
	// Channel c stores c*energy at every gridpoint, so the interpolated
	// channel-1 macro XS equals sum over nuclides of the queried energy
	// (clamped at grid edges). With many gridpoints the edge effect is
	// negligible; verify the checksum is close to sum of energies.
	x := &XSBench{Nuclides: 4, Gridpoints: 5000, Lookups: 2000, seed: 1}
	m := machine.New(machine.Default())
	x.Run(m)
	// Expected: checksum ~= sum over lookups of 4 * e (channel 1 = 1*e,
	// summed over 4 nuclides). The same RNG stream interleaves grid setup
	// and lookups, so just bound the per-lookup average within [0,4].
	avg := x.Checksum / float64(x.Lookups)
	if avg < 0.5 || avg > 4 {
		t.Errorf("average macro XS per lookup = %v, want within (0.5, 4)", avg)
	}
}

func TestPhaseProfile(t *testing.T) {
	x := New(1)
	x.Lookups = 2000
	m := machine.New(machine.Default())
	x.Run(m)
	p2, ok := m.Phase("p2")
	if !ok {
		t.Fatal("missing p2")
	}
	if p2.ArithmeticIntensity() > 2 {
		t.Errorf("XSBench p2 AI = %v, want low (memory/latency bound)", p2.ArithmeticIntensity())
	}
	// Random gathers defeat the prefetcher: coverage near zero (paper <1%).
	if cov := p2.Cache.Coverage(); cov > 0.10 {
		t.Errorf("prefetch coverage = %v, want < 0.10", cov)
	}
}

func TestLowRemoteAccessRatioUnderPooling(t *testing.T) {
	// The paper's standout XSBench result: remote access ratio below ~6%
	// in ALL pooling configurations, because the hot structures are small
	// and allocated first.
	probe := New(1)
	probe.Lookups = 3000
	mp := machine.New(machine.Default())
	probe.Run(mp)
	peak := mp.PeakFootprint()

	for _, localFrac := range []float64{0.25, 0.5, 0.75} {
		x := New(1)
		x.Lookups = 3000
		cfg := machine.Default().WithLocalCapacity(uint64(localFrac * float64(peak)))
		m := machine.New(cfg)
		x.Run(m)
		p2, _ := m.Phase("p2")
		if p2.RemoteAccessRatio > 0.10 {
			t.Errorf("local=%v: remote access ratio = %v, want <= 0.10",
				localFrac, p2.RemoteAccessRatio)
		}
	}
}

func TestIndexGridDominatesFootprint(t *testing.T) {
	x := New(1)
	x.Lookups = 100
	m := machine.New(machine.Default())
	x.Run(m)
	var indexBytes, total uint64
	_, regions := m.SplitAt(0)
	for _, rs := range regions {
		sz := rs.Region.Size
		total += sz
		if rs.Region.Name == "index-grid" {
			indexBytes = sz
		}
	}
	if float64(indexBytes)/float64(total) < 0.5 {
		t.Errorf("index grid is %d of %d bytes; should dominate", indexBytes, total)
	}
}

func TestScaleDoubling(t *testing.T) {
	g1, g2, g4 := New(1).Gridpoints, New(2).Gridpoints, New(4).Gridpoints
	if g2 != 2*g1 || g4 != 4*g1 {
		t.Errorf("gridpoint scaling %d:%d:%d, want 1:2:4", g1, g2, g4)
	}
}

func TestChecksumFinite(t *testing.T) {
	x := small()
	m := machine.New(machine.Default())
	x.Run(m)
	if math.IsNaN(x.Checksum) || math.IsInf(x.Checksum, 0) {
		t.Errorf("checksum = %v", x.Checksum)
	}
	if x.Checksum <= 0 {
		t.Errorf("checksum = %v, want > 0", x.Checksum)
	}
}

// TestChecksumPinned pins scale 1's checksum bit for bit. It moves if the
// grids, the random stream or the interpolation's arithmetic change (the
// form lo*(1-f) + hi*f already moves it by one ulp). It does not see the
// order of the sum over nuclides: channel 1 interpolates to the query
// energy itself, so the 64 terms of a lookup are nearly all equal.
func TestChecksumPinned(t *testing.T) {
	x := New(1)
	x.Run(machine.New(machine.Default()))
	if got, want := math.Float64bits(x.Checksum), uint64(0x4123acb5bd817a89); got != want {
		t.Errorf("checksum = %v (bits %#x), want %v (bits %#x)", x.Checksum, got, math.Float64frombits(want), want)
	}
}
