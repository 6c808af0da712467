package repro

import (
	"bytes"
	"context"
	"testing"
)

func TestFacadeWorkloadsTable(t *testing.T) {
	ws := Workloads()
	if len(ws) != 6 {
		t.Fatalf("want 6 workloads, got %d", len(ws))
	}
	if _, err := Workload("SuperLU"); err != nil {
		t.Fatal(err)
	}
	if _, err := Workload("bogus"); err == nil {
		t.Fatal("unknown workload should error")
	}
}

func TestFacadeThreeLevelWorkflow(t *testing.T) {
	p := NewProfiler(DefaultPlatform())
	entry, err := Workload("SuperLU")
	if err != nil {
		t.Fatal(err)
	}
	l1 := p.Level1(entry, 1)
	if l1.PeakFootprint == 0 || len(l1.Phases) == 0 {
		t.Fatalf("Level1 empty: %+v", l1)
	}
	l2 := p.Level2(entry, 1, 0.5)
	if l2.RBW <= 0 || l2.RCap != 0.5 {
		t.Fatalf("Level2 references wrong: %+v", l2)
	}
	l3 := p.Level3(entry, 1, 0.5, []float64{0, 0.5})
	if len(l3.Relative) != 2 || l3.Relative[0] != 1 {
		t.Fatalf("Level3 baseline should be 1: %+v", l3.Relative)
	}
	if l3.DeploymentAdvice() == "" {
		t.Fatal("advice should render")
	}
}

func TestFacadeBFSVariantsAndPlacement(t *testing.T) {
	platform := DefaultPlatform().WithLocalCapacity(4 << 20)
	m := Run(platform, NewBFS(1, BFSOptimized))
	if len(m.Phases()) != 2 {
		t.Fatalf("BFS should record 2 phases, got %d", len(m.Phases()))
	}
	_, live := m.SplitAt(platform.Mem.LocalCapacity)
	regions := SortRegionsHot(live)
	objs := PlacementFromRegions(regions)
	if len(objs) == 0 {
		t.Fatal("profiled regions should yield placement candidates")
	}
	g := GreedyPlacement(objs, 4<<20)
	e := ExactPlacement(objs, 4<<20, platform.Mem.PageSize)
	if g.RemoteAccessRatio() < 0 || g.RemoteAccessRatio() > 1 {
		t.Fatalf("greedy ratio out of range: %v", g.RemoteAccessRatio())
	}
	// Exact never leaves more accesses remote than greedy.
	if e.RemoteAccessRatio() > g.RemoteAccessRatio()+1e-9 {
		t.Fatalf("exact (%v) should not lose to greedy (%v)",
			e.RemoteAccessRatio(), g.RemoteAccessRatio())
	}
}

func TestFacadeLBench(t *testing.T) {
	md := NewLBench(DefaultPlatform())
	n, ok := md.Configure(0.3, 2)
	if !ok || n < 1 {
		t.Fatalf("2 threads should reach 30%%: n=%d ok=%v", n, ok)
	}
	loi := md.MeasuredLoI(LBenchConfig{Threads: 2, FlopsPerElement: n})
	if loi < 0.2 || loi > 0.4 {
		t.Fatalf("measured LoI %.2f should be near the 0.3 target", loi)
	}
	if ic := md.IC(0); ic != 1 {
		t.Fatalf("idle IC should be 1, got %v", ic)
	}
}

func TestFacadeSchedulers(t *testing.T) {
	platform := DefaultPlatform()
	phases := []PhaseStats{{
		Name: "p2", Flops: 1e8,
		LocalBytes: 1 << 28, RemoteBytes: 1 << 29,
		DemandMissRemote: 1 << 15,
	}}
	s, err := CompareSchedulers(context.Background(), "synthetic", platform, phases, 40, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.MeanSpeedup < 0 {
		t.Fatalf("aware scheduler should not slow a pool-heavy job: %v", s.MeanSpeedup)
	}
	res := Schedule(RackConfig{Nodes: 2, Machine: platform},
		[]Job{{Name: "a", Phases: phases, IC: 1.2}, {Name: "b", Phases: phases, IC: 1.1}},
		InterferenceAware)
	if len(res.Jobs) != 2 {
		t.Fatalf("both jobs should finish: %+v", res)
	}
}

func TestFacadeInterleave(t *testing.T) {
	p := BandwidthInterleave(73e9, 34e9, 8)
	if p.AggregateBandwidth(73e9, 34e9) <= 73e9 {
		t.Fatal("matched interleave should beat local-only bandwidth")
	}
}

func TestFacadeExperimentIDs(t *testing.T) {
	ids := ExperimentIDs()
	// The paper's 12 artifacts plus the repo's cross-scenario comparison
	// and the two sweep-campaign views.
	if len(ids) != 15 {
		t.Fatalf("want 15 experiments, got %d", len(ids))
	}
	if ids[12] != "scenarios" || ids[13] != "sweep" || ids[14] != "sensitivity" {
		t.Fatalf("repo artifacts should come after the paper artifacts: %v", ids)
	}
	ids[0] = "mutated"
	if ExperimentIDs()[0] == "mutated" {
		t.Fatal("ExperimentIDs must return a copy")
	}
}

func TestFacadePlatforms(t *testing.T) {
	svc, err := New()
	if err != nil {
		t.Fatal(err)
	}
	ps := svc.Scenarios()
	if len(ps) < 5 {
		t.Fatalf("Scenarios() = %d entries, want >= 5", len(ps))
	}
	if ps[0].Name != "baseline" {
		t.Fatalf("first scenario = %q, want baseline", ps[0].Name)
	}
	if ps[0].Platform != DefaultPlatform() {
		t.Error("baseline scenario must be the default platform")
	}
	sp, err := PlatformNamed("cxl-gen5")
	if err != nil || sp.Name != "cxl-gen5" {
		t.Fatalf("PlatformNamed(cxl-gen5) = %v, %v", sp.Name, err)
	}
	if _, err := PlatformNamed("bogus"); err == nil {
		t.Fatal("unknown scenario should error")
	}
	// The Service's suite for a scenario carries its capacity protocol, not
	// just its platform — big-pool differs from baseline only in that
	// protocol.
	bp, err := PlatformNamed("big-pool")
	if err != nil {
		t.Fatal(err)
	}
	s, err := svc.suite(bp.Name)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cfg != bp.Platform || s.Headline != bp.HeadlineFraction {
		t.Errorf("suite headline = %v on %q, want %v on %q",
			s.Headline, s.Cfg.Name, bp.HeadlineFraction, bp.Platform.Name)
	}
	if len(s.Fractions) != len(bp.CapacityFractions) || s.Fractions[0] != bp.CapacityFractions[0] {
		t.Errorf("suite fractions = %v, want %v", s.Fractions, bp.CapacityFractions)
	}
}

func TestFacadeTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	platform := DefaultPlatform()
	entry, err := Workload("Hypre")
	if err != nil {
		t.Fatal(err)
	}
	orig, err := RecordTrace(platform, entry.New(1), &buf)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := ReplayTrace(platform, &buf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := orig.Phases(), replay.Phases()
	if len(a) != len(b) {
		t.Fatalf("phase count %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].TotalBytes() != b[i].TotalBytes() || a[i].Flops != b[i].Flops {
			t.Fatalf("replay diverged in phase %s", a[i].Name)
		}
	}
}
