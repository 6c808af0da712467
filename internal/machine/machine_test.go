package machine

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/stats"
)

// streamPhase runs a simple streaming phase over size bytes and returns its
// stats.
func streamPhase(t *testing.T, cfg Config, size uint64) PhaseStats {
	t.Helper()
	m := New(cfg)
	r := m.Alloc("a", size)
	m.StartPhase("p1")
	m.Read(r.Base, size)
	m.AddFlops(float64(size) / 8)
	return m.EndPhase()
}

func TestSingleTierAllLocal(t *testing.T) {
	p := streamPhase(t, Default(), 1<<20)
	if p.RemoteBytes != 0 {
		t.Errorf("remote bytes on unbounded local = %d, want 0", p.RemoteBytes)
	}
	if p.LocalBytes == 0 {
		t.Errorf("no local traffic recorded")
	}
	if p.RemoteAccessRatio != 0 {
		t.Errorf("remote access ratio = %v, want 0", p.RemoteAccessRatio)
	}
}

func TestCapacitySpillProducesRemoteTraffic(t *testing.T) {
	cfg := Default().WithLocalCapacity(512 * 1024)
	p := streamPhase(t, cfg, 1<<20)
	if p.RemoteBytes == 0 {
		t.Fatalf("expected remote traffic with local capped at half the footprint")
	}
	// Streaming uniformly over a 50%-local footprint: remote access ratio
	// should be near the capacity ratio (0.5).
	if p.RemoteAccessRatio < 0.35 || p.RemoteAccessRatio > 0.65 {
		t.Errorf("remote access ratio = %v, want ~0.5", p.RemoteAccessRatio)
	}
	if p.RemoteCapacityRatio < 0.45 || p.RemoteCapacityRatio > 0.55 {
		t.Errorf("remote capacity ratio = %v, want ~0.5", p.RemoteCapacityRatio)
	}
}

func TestPhaseTimeComputeBound(t *testing.T) {
	cfg := Default()
	p := PhaseStats{Flops: 250e9, LocalBytes: 1000} // 1 s of compute
	tm := cfg.PhaseTime(p, 0)
	if tm < 0.99 || tm > 1.05 {
		t.Errorf("compute-bound time = %v, want ~1.0", tm)
	}
	// Compute-bound phases are insensitive to interference.
	if s := cfg.Sensitivity([]PhaseStats{p}, 0.5); s < 0.999 {
		t.Errorf("compute-bound sensitivity at LoI=50 = %v, want ~1", s)
	}
}

func TestPhaseTimeLocalBandwidthBound(t *testing.T) {
	cfg := Default()
	p := PhaseStats{LocalBytes: 73e9} // 1 s of local streaming
	tm := cfg.PhaseTime(p, 0)
	if tm < 0.99 || tm > 1.05 {
		t.Errorf("local-BW-bound time = %v, want ~1.0", tm)
	}
}

func TestInterferenceSlowsRemoteTraffic(t *testing.T) {
	cfg := Default()
	p := PhaseStats{
		RemoteBytes:      10e9,
		LocalBytes:       10e9,
		DemandMissRemote: 10e9 / 64 / 4, // 25% uncovered
	}
	t0 := cfg.PhaseTime(p, 0)
	t50 := cfg.PhaseTime(p, 0.5)
	if t50 <= t0 {
		t.Errorf("LoI=50 time %v should exceed LoI=0 time %v", t50, t0)
	}
	s := cfg.Sensitivity([]PhaseStats{p}, 0.5)
	if s >= 1 || s < 0.3 {
		t.Errorf("sensitivity = %v, want in [0.3, 1)", s)
	}
}

func TestSensitivityMonotoneInLoI(t *testing.T) {
	cfg := Default()
	p := PhaseStats{RemoteBytes: 20e9, LocalBytes: 30e9, DemandMissRemote: 50e6}
	prev := 1.01
	for _, loi := range []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5} {
		s := cfg.Sensitivity([]PhaseStats{p}, loi)
		if s > prev+1e-9 {
			t.Errorf("sensitivity increased at LoI=%v: %v > %v", loi, s, prev)
		}
		prev = s
	}
}

func TestZeroRemoteInsensitive(t *testing.T) {
	cfg := Default()
	p := PhaseStats{LocalBytes: 50e9, Flops: 1e9, DemandMissLocal: 1e6}
	if s := cfg.Sensitivity([]PhaseStats{p}, 0.5); s < 0.999 {
		t.Errorf("no-remote-traffic sensitivity = %v, want ~1", s)
	}
}

func TestTickTimeline(t *testing.T) {
	m := New(Default())
	r := m.Alloc("a", 1<<20)
	m.StartPhase("p")
	for i := 0; i < 4; i++ {
		m.Read(r.Base, 1<<18)
		m.AddFlops(100)
		m.Tick()
	}
	p := m.EndPhase()
	if len(p.Ticks) != 4 {
		t.Fatalf("ticks = %d, want 4", len(p.Ticks))
	}
	if p.Ticks[0].LinesIn == 0 {
		t.Errorf("first tick has no traffic")
	}
	// Later ticks re-stream cached data: traffic drops after the first.
	if p.Ticks[3].LinesIn > p.Ticks[0].LinesIn {
		t.Errorf("tick traffic should not grow when re-streaming: %v vs %v",
			p.Ticks[3].LinesIn, p.Ticks[0].LinesIn)
	}
	var sumFlops float64
	for _, tk := range p.Ticks {
		sumFlops += tk.Flops
	}
	if sumFlops != p.Flops {
		t.Errorf("tick flops sum %v != phase flops %v", sumFlops, p.Flops)
	}
}

func TestPhaseAccounting(t *testing.T) {
	m := New(Default())
	r := m.Alloc("a", 1<<20)
	m.StartPhase("init")
	m.Write(r.Base, 1<<20)
	m.EndPhase()
	m.StartPhase("compute")
	m.Read(r.Base, 1<<20)
	m.AddFlops(42)
	p2 := m.EndPhase()
	if p2.Flops != 42 {
		t.Errorf("phase flops = %v, want 42", p2.Flops)
	}
	phases := m.Phases()
	if len(phases) != 2 || phases[0].Name != "init" || phases[1].Name != "compute" {
		t.Fatalf("unexpected phases: %+v", phases)
	}
	if _, ok := m.Phase("compute"); !ok {
		t.Errorf("Phase lookup failed")
	}
}

func TestPrefetchReducesDemandMisses(t *testing.T) {
	run := func(pf bool) PhaseStats {
		m := New(Default().WithPrefetch(pf))
		r := m.Alloc("a", 4<<20)
		m.StartPhase("p")
		m.Read(r.Base, 4<<20)
		return m.EndPhase()
	}
	with := run(true)
	without := run(false)
	if with.Cache.DemandMisses >= without.Cache.DemandMisses {
		t.Errorf("prefetch should cut demand misses: with=%d without=%d",
			with.Cache.DemandMisses, without.Cache.DemandMisses)
	}
	// Without the prefetcher the sequential misses are still recognized as
	// stream misses (overlapped by OoO), not latency-exposed random misses.
	if without.StreamMissLocal == 0 {
		t.Error("sequential scan without prefetch should record stream misses")
	}
	if without.DemandMissLocal > without.StreamMissLocal/4 {
		t.Errorf("random misses (%d) should be a small fraction of stream misses (%d)",
			without.DemandMissLocal, without.StreamMissLocal)
	}
	// Latency-bound term shrinks, so the phase gets faster with prefetch.
	cfg := Default()
	if cfg.PhaseTime(with, 0) >= cfg.PhaseTime(without, 0) {
		t.Errorf("prefetch-enabled phase should be faster")
	}
}

func TestBandwidthRatioReference(t *testing.T) {
	cfg := Default()
	got := cfg.BandwidthRatio()
	want := 34e9 / (34e9 + 73e9)
	if got < want-1e-9 || got > want+1e-9 {
		t.Errorf("bandwidth ratio = %v, want %v", got, want)
	}
}

func TestArithmeticIntensity(t *testing.T) {
	p := PhaseStats{Flops: 640, LocalBytes: 64}
	if ai := p.ArithmeticIntensity(); ai != 10 {
		t.Errorf("AI = %v, want 10", ai)
	}
	if ai := (PhaseStats{}).ArithmeticIntensity(); ai != 0 {
		t.Errorf("empty AI = %v, want 0", ai)
	}
}

// Property: phase time is positive and non-decreasing in LoI for any stats.
func TestPhaseTimeMonotoneProperty(t *testing.T) {
	cfg := Default()
	f := func(localMB, remoteMB, missK uint16, flopsM uint32) bool {
		p := PhaseStats{
			Flops:            float64(flopsM) * 1e6,
			LocalBytes:       uint64(localMB) * 1e6,
			RemoteBytes:      uint64(remoteMB) * 1e6,
			DemandMissRemote: uint64(missK) * 1000,
		}
		prev := 0.0
		for _, loi := range []float64{0, 0.25, 0.5} {
			tm := cfg.PhaseTime(p, loi)
			if tm <= 0 || tm < prev-1e-12 {
				return false
			}
			prev = tm
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPlacedAllocation(t *testing.T) {
	m := New(Default().WithLocalCapacity(1 << 20))
	r := m.AllocPlaced("remote-only", 4096, mem.PlaceRemote)
	m.StartPhase("p")
	m.Read(r.Base, 4096)
	p := m.EndPhase()
	if p.RemoteBytes == 0 {
		t.Errorf("forced-remote region produced no remote traffic")
	}
}

// TestPeakFootprintCountsTouch checks that a page bound without a fill
// counts toward the peak, even when its region is freed before any fill.
func TestPeakFootprintCountsTouch(t *testing.T) {
	m := New(Default())
	r := m.Alloc("a", 2*4096)
	m.Space.Touch(r.Base)
	m.Free(r)
	if got := m.PeakFootprint(); got != 4096 {
		t.Errorf("peak footprint = %d, want 4096", got)
	}
}

// footprintRun streams over part of a region, writes an unaligned range,
// frees, then gathers at random from a new region: a footprint that rises
// and falls.
func footprintRun(m *Machine) {
	a := m.Alloc("a", 64<<10)
	b := m.Alloc("b", 32<<10)
	m.Read(a.Base, 40<<10+8)
	m.Write(b.Base+100, 3000)
	m.Free(a)
	c := m.Alloc("c", 128<<10)
	rng := stats.NewRNG(3)
	for i := 0; i < 2000; i++ {
		m.Read(c.Base+uint64(rng.Intn(128<<10-8)), 8)
	}
	m.Free(b)
	d := m.Alloc("d", 256<<10)
	for off := uint64(0); off < 256<<10; off += 8 << 10 {
		m.Write(d.Base+off, 1000)
	}
}

// TestPeakFootprintOfMatchesExecution compares the footprint pass with a
// full execution over two page sizes, with the prefetcher on and off.
func TestPeakFootprintOfMatchesExecution(t *testing.T) {
	for _, ps := range []uint64{4096, 256} {
		for _, pf := range []bool{true, false} {
			cfg := Default().WithPrefetch(pf)
			cfg.Mem.PageSize = ps
			m := New(cfg)
			footprintRun(m)
			if got, want := PeakFootprintOf(cfg, footprintRun), m.PeakFootprint(); got != want {
				t.Errorf("page %d B, prefetch %v: footprint pass %d, full execution %d", ps, pf, got, want)
			}
		}
	}
}
