package experiments

import (
	"context"
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/workloads/registry"
)

// smallSuite returns a fresh suite trimmed for determinism testing: three
// workloads spanning the interesting regimes (streaming, graph, skewed
// lookup) and a reduced Monte-Carlo run count. Entries and Runs only scale
// the work down — the engine code paths are identical to the full suite.
func smallSuite() *Suite {
	s := NewSuite(machine.Default())
	all := registry.All()
	var picked []registry.Entry
	for _, e := range all {
		switch e.Name {
		case "Hypre", "BFS", "XSBench":
			picked = append(picked, e)
		}
	}
	s.Entries = picked
	s.Runs = 10
	return s
}

// freshCheapSuite returns a suite trimmed to the two cheapest workloads
// with a reduced Monte-Carlo count — small enough for the quick tier to
// exercise the drivers and the engine end-to-end on one core.
func freshCheapSuite() *Suite {
	s := NewSuite(machine.Default())
	var picked []registry.Entry
	for _, e := range registry.All() {
		switch e.Name {
		case "HPL", "Hypre":
			picked = append(picked, e)
		}
	}
	s.Entries = picked
	s.Runs = 5
	return s
}

// quickSuite is the shared warm instance of freshCheapSuite for quick-tier
// tests that only read results (renders are pure functions of the cached
// profiles, so sharing changes nothing but the runtime).
var (
	quickOnce  sync.Once
	quickCache *Suite
)

func quickSuite() *Suite {
	quickOnce.Do(func() { quickCache = freshCheapSuite() })
	return quickCache
}

// quickIDs span the capacity sweep (figure9), the Monte-Carlo scheduling
// comparison (figure13) and the cross-scenario what-if sweep (scenarios).
var quickIDs = []string{"figure9", "figure13", "scenarios"}

// TestQuickTierDeterministic is the quick-tier (-short) version of the
// byte-identical guarantee: the quick driver subset must render the same
// bytes sequentially (shared warm suite), on a cold suite at 8 workers, and
// again on the warm parallel suite (scenario profilers memoized on it). It
// runs in both tiers so every PR still covers the engine plus the scenario
// subsystem end-to-end.
func TestQuickTierDeterministic(t *testing.T) {
	render := func(s *Suite) map[string]string {
		out := map[string]string{}
		for _, id := range quickIDs {
			r, err := s.Run(id)
			if err != nil {
				t.Fatalf("Run(%s): %v", id, err)
			}
			out[id] = r.Render()
		}
		return out
	}
	seq := render(quickSuite())
	par := freshCheapSuite()
	par.Workers = 8
	got := render(par)
	for _, id := range quickIDs {
		if seq[id] != got[id] {
			t.Errorf("%s: workers=8 render differs from sequential (%d vs %d bytes)",
				id, len(seq[id]), len(got[id]))
		}
		if len(seq[id]) == 0 {
			t.Errorf("%s renders empty", id)
		}
	}
	again := render(par)
	for _, id := range quickIDs {
		if again[id] != got[id] {
			t.Errorf("%s: warm re-render differs", id)
		}
	}
}

// TestSweepArtifactsShareOneCampaign pins the single-flight memo: the
// "sweep" and "sensitivity" drivers must reduce the same executed
// campaign, not run the grid twice — including when AllParallelContext
// requests both concurrently (the full tier exercises that path; here the
// two driver calls hit the memo sequentially on the warm quick suite).
func TestSweepArtifactsShareOneCampaign(t *testing.T) {
	s := quickSuite()
	sw := s.Sweep()
	se := s.Sensitivity()
	if sw.Campaign != se.Campaign {
		t.Error("sweep and sensitivity ran separate campaigns; want one shared execution")
	}
	if sw.Campaign == nil || len(sw.Campaign.Points) == 0 {
		t.Fatal("default campaign is empty")
	}
	if sw.Render() == "" || se.Render() == "" {
		t.Error("sweep artifacts render empty")
	}
	if sw.Report().Artifact != "sweep" || se.Report().Artifact != "sensitivity" {
		t.Errorf("artifact ids: %q, %q", sw.Report().Artifact, se.Report().Artifact)
	}
}

// TestAllParallelByteIdenticalToSequential is the engine's core guarantee:
// a parallel sweep renders exactly the bytes the sequential sweep renders,
// for any worker count. Two independent suites are used so the parallel run
// cannot lean on profiles the sequential run already cached; a third pass
// at a different worker count on the warm parallel suite then checks that
// neither worker count nor cache reuse changes the rendered output.
func TestAllParallelByteIdenticalToSequential(t *testing.T) {
	skipShort(t)
	seq := smallSuite().All()
	parSuite := smallSuite()
	par, err := parSuite.AllParallelContext(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("result counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].ID() != par[i].ID() {
			t.Fatalf("order differs at %d: %s vs %s", i, seq[i].ID(), par[i].ID())
		}
		a, b := seq[i].Render(), par[i].Render()
		if a != b {
			t.Errorf("%s: parallel render differs from sequential (%d vs %d bytes)",
				seq[i].ID(), len(a), len(b))
		}
	}
	if parSuite.limiter != nil {
		t.Error("AllParallelContext should uninstall the shared limiter when done")
	}
	two, err := parSuite.AllParallelContext(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range two {
		if two[i].Render() != par[i].Render() {
			t.Errorf("%s: workers=2 and workers=8 disagree", two[i].ID())
		}
	}
}
