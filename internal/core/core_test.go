package core

import (
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/scenario"
	"repro/internal/workloads/registry"
)

// sharedProf is one profiler shared by the read-only tests below: reports
// are memoized per (workload, scale[, fraction]) and treated as read-only,
// so sharing trims repeated workload executions without changing any
// assertion. Tests that exercise cache mechanics construct their own
// profiler with NewProfiler.
var (
	profOnce   sync.Once
	sharedProf *Profiler
)

func prof() *Profiler {
	profOnce.Do(func() { sharedProf = NewProfiler(machine.Default()) })
	return sharedProf
}

func entry(t *testing.T, name string) registry.Entry {
	t.Helper()
	e, err := registry.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestLevel1HPLProfile(t *testing.T) {
	p := prof()
	rep := p.Level1(entry(t, "HPL"), 1)
	if len(rep.Phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(rep.Phases))
	}
	// HPL p2 is the high-AI phase; p1 is a streaming init.
	if rep.Phases[1].AI <= rep.Phases[0].AI {
		t.Errorf("p2 AI %v should exceed p1 AI %v", rep.Phases[1].AI, rep.Phases[0].AI)
	}
	if rep.PeakFootprint == 0 {
		t.Errorf("no footprint recorded")
	}
	// Dense LU streams predictably: high prefetch accuracy.
	if rep.Accuracy < 0.7 {
		t.Errorf("HPL prefetch accuracy = %v, want >= 0.7 (paper >80%%)", rep.Accuracy)
	}
	if rep.PerformanceGain <= 0 {
		t.Errorf("HPL should gain from prefetching, got %v", rep.PerformanceGain)
	}
	if len(rep.TimelineOn) == 0 || len(rep.TimelineOff) == 0 {
		t.Errorf("missing prefetch timelines")
	}
}

func TestLevel1XSBenchLowCoverage(t *testing.T) {
	p := prof()
	rep := p.Level1(entry(t, "XSBench"), 1)
	hpl := p.Level1(entry(t, "HPL"), 1)
	if rep.Coverage >= hpl.Coverage {
		t.Errorf("XSBench coverage (%v) should be far below HPL (%v)", rep.Coverage, hpl.Coverage)
	}
}

func TestScalingCurveShapes(t *testing.T) {
	p := prof()
	// Figure 6: HPL accesses are near-uniform; BFS is skewed (a small
	// fraction of the footprint takes most accesses).
	hplCurve := p.ScalingCurve(entry(t, "HPL"), 1)
	bfsCurve := p.ScalingCurve(entry(t, "BFS"), 1)
	if len(hplCurve) != 101 || len(bfsCurve) != 101 {
		t.Fatalf("curves should have 101 points, got %d and %d", len(hplCurve), len(bfsCurve))
	}
	// Accesses captured by the hottest 30% of pages.
	at30 := func(c []ScalingPoint) float64 { return c[30].AccessPct }
	if at30(bfsCurve) <= at30(hplCurve) {
		t.Errorf("BFS (%v%%) should be more skewed than HPL (%v%%) at 30%% footprint",
			at30(bfsCurve), at30(hplCurve))
	}
	// CDF monotone and ending at 100.
	for i := 1; i < len(hplCurve); i++ {
		if hplCurve[i].AccessPct < hplCurve[i-1].AccessPct-1e-9 {
			t.Fatalf("HPL curve not monotone at %d", i)
		}
	}
	if last := hplCurve[100].AccessPct; last < 99.9 {
		t.Errorf("curve should end at 100%%, got %v", last)
	}
}

func TestLevel2ReferencesAndRatios(t *testing.T) {
	p := prof()
	rep := p.Level2(entry(t, "Hypre"), 1, 0.5)
	if rep.RCap != 0.5 {
		t.Errorf("RCap = %v, want 0.5", rep.RCap)
	}
	want := machine.Default().BandwidthRatio()
	if rep.RBW != want {
		t.Errorf("RBW = %v, want %v", rep.RBW, want)
	}
	// Hypre streams uniformly: remote access ratio near capacity ratio.
	var p2 Level2Phase
	found := false
	for _, ph := range rep.Phases {
		if ph.Name == "p2" {
			p2, found = ph, true
		}
	}
	if !found {
		t.Fatal("no p2 phase")
	}
	if p2.RemoteAccessRatio < 0.25 || p2.RemoteAccessRatio > 0.75 {
		t.Errorf("Hypre p2 remote access ratio = %v, want near the 0.5 capacity ratio",
			p2.RemoteAccessRatio)
	}
}

func TestLevel2XSBenchLowRemote(t *testing.T) {
	if testing.Short() {
		t.Skip("three capacity-bounded XSBench runs; the full tier covers the sweep")
	}
	p := prof()
	for _, frac := range []float64{0.25, 0.5, 0.75} {
		rep := p.Level2(entry(t, "XSBench"), 1, frac)
		for _, ph := range rep.Phases {
			if ph.Name == "p2" && ph.RemoteAccessRatio > 0.10 {
				t.Errorf("local=%v: XSBench p2 remote ratio = %v, want <= 0.10 (paper <6%%)",
					frac, ph.RemoteAccessRatio)
			}
		}
	}
}

func TestVerdictClassification(t *testing.T) {
	rep := Level2Report{RCap: 0.25, RBW: 0.32}
	cases := []struct {
		ratio float64
		want  TuningVerdict
	}{
		{0.9, ExcessRemote},
		{0.28, Balanced},
		{0.05, UnderusedRemote},
	}
	for _, c := range cases {
		got := rep.Verdict(Level2Phase{RemoteAccessRatio: c.ratio})
		if got != c.want {
			t.Errorf("ratio %v: verdict = %v, want %v", c.ratio, got, c.want)
		}
	}
}

func TestLevel3SensitivityOrdering(t *testing.T) {
	p := prof()
	lois := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}
	hypre := p.Level3(entry(t, "Hypre"), 1, 0.5, lois)
	hplR := p.Level3(entry(t, "HPL"), 1, 0.5, lois)
	xs := p.Level3(entry(t, "XSBench"), 1, 0.5, lois)

	last := func(r Level3Report) float64 { return r.Relative[len(r.Relative)-1] }
	// Paper Figure 10 ordering: Hypre most sensitive; HPL and XSBench least.
	if last(hypre) >= last(hplR) {
		t.Errorf("Hypre sensitivity (rel %v) should exceed HPL (rel %v)", last(hypre), last(hplR))
	}
	if last(hplR) < 0.90 {
		t.Errorf("HPL relative perf at LoI=50 = %v, paper shows <5%% loss", last(hplR))
	}
	if last(xs) < 0.90 {
		t.Errorf("XSBench relative perf at LoI=50 = %v, paper shows minimal loss", last(xs))
	}
	// Monotone non-increasing in LoI.
	for i := 1; i < len(hypre.Relative); i++ {
		if hypre.Relative[i] > hypre.Relative[i-1]+1e-9 {
			t.Errorf("sensitivity not monotone at LoI=%v", lois[i])
		}
	}
	// Relative performance at LoI=0 is exactly 1.
	if hypre.Relative[0] != 1 {
		t.Errorf("relative at LoI=0 = %v, want 1", hypre.Relative[0])
	}
}

func TestLevel3ICOrdering(t *testing.T) {
	p := prof()
	lois := []float64{0, 0.5}
	hypre := p.Level3(entry(t, "Hypre"), 1, 0.5, lois)
	xs := p.Level3(entry(t, "XSBench"), 1, 0.5, lois)
	// Figure 11 right: Hypre/NekRS induce the most interference, XSBench
	// and HPL the least.
	if hypre.ICHi <= xs.ICHi {
		t.Errorf("Hypre induced IC (%v) should exceed XSBench (%v)", hypre.ICHi, xs.ICHi)
	}
	if xs.ICLo < 1 || hypre.ICLo < 1 {
		t.Errorf("IC must be >= 1: %v %v", xs.ICLo, hypre.ICLo)
	}
}

func TestPeakUsageCached(t *testing.T) {
	p := prof()
	e := entry(t, "XSBench")
	a := p.PeakUsage(e, 1)
	b := p.PeakUsage(e, 1)
	if a != b || a == 0 {
		t.Errorf("peak usage cache broken: %d vs %d", a, b)
	}
}

// TestPeakUsageMatchesExecution pins PeakUsage, which binds pages without
// simulating the cache, to the peak footprint of a full execution: every
// registry workload on every registry platform at scale 1, and in the full
// tier also at scales 2 and 4, and at scale 1 with the prefetcher off and
// with a 1 MiB local tier.
func TestPeakUsageMatchesExecution(t *testing.T) {
	type variant struct {
		cfg    machine.Config
		scales []int
	}
	scales := []int{1, 2, 4}
	if testing.Short() {
		scales = []int{1}
	}
	var variants []variant
	for _, sp := range scenario.All() {
		variants = append(variants, variant{sp.Platform, scales})
	}
	if !testing.Short() {
		base := machine.Default()
		variants = append(variants,
			variant{base.WithPrefetch(false), []int{1}},
			variant{base.WithLocalCapacity(1 << 20), []int{1}})
	}
	// Configurations with one execution key run identically, so each key
	// is checked once.
	checked := map[execKey]bool{}
	for _, v := range variants {
		for _, scale := range v.scales {
			for _, e := range registry.All() {
				key := execKeyFor(v.cfg, e.Name, scale)
				if checked[key] {
					continue
				}
				checked[key] = true
				want := Run(v.cfg, e.New(scale)).PeakFootprint()
				if got := NewProfiler(v.cfg).PeakUsage(e, scale); got != want {
					t.Errorf("%s x%d on %s (prefetch %v, local %d B): PeakUsage %d, full execution %d",
						e.Name, scale, v.cfg.Name, v.cfg.Cache.PrefetchEnabled, v.cfg.Mem.LocalCapacity, got, want)
				}
			}
		}
	}
}

func TestDeploymentAdvice(t *testing.T) {
	low := Level3Report{Relative: []float64{1, 0.99}}
	high := Level3Report{Relative: []float64{1, 0.7}}
	if low.DeploymentAdvice() == high.DeploymentAdvice() {
		t.Errorf("advice should differ between low and high sensitivity")
	}
}
