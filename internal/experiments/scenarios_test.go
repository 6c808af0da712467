package experiments

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/scenario"
)

// TestNewSuiteForInstallsScenarioProtocol pins that a scenario suite runs
// the paper's pipeline at the scenario's capacity protocol: the sweep AND
// the headline point (Figures 11/13) — not the baseline's 50%-50%.
func TestNewSuiteForInstallsScenarioProtocol(t *testing.T) {
	sp, err := scenario.Get("skewed-split")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSuiteForShared(sp, nil)
	if s.headline() != sp.HeadlineFraction {
		t.Errorf("headline = %v, want the scenario's %v", s.headline(), sp.HeadlineFraction)
	}
	if len(s.fractions()) != len(sp.CapacityFractions) || s.fractions()[0] != sp.CapacityFractions[0] {
		t.Errorf("fractions = %v, want the scenario's %v", s.fractions(), sp.CapacityFractions)
	}
	if NewSuite(machine.Default()).headline() != 0.50 {
		t.Error("default headline must stay at the paper's 50%-50% split")
	}
}

// TestScenariosCrossPlatformShape checks the what-if sweep reproduces the
// qualitative platform orderings the model predicts. It runs on the cheap
// suite so the quick tier covers the scenario subsystem end-to-end.
func TestScenariosCrossPlatformShape(t *testing.T) {
	r := quickSuite().Scenarios()
	if len(r.Specs) < 5 {
		t.Fatalf("want >=5 scenarios, got %d", len(r.Specs))
	}
	si := map[string]int{}
	for i, sp := range r.Specs {
		si[sp.Name] = i
	}
	wi := map[string]int{}
	for i, w := range r.Workloads {
		wi[w] = i
	}
	if len(r.Cells) != len(r.Workloads) {
		t.Fatalf("cells rows %d != workloads %d", len(r.Cells), len(r.Workloads))
	}
	for _, row := range r.Cells {
		if len(row) != len(r.Specs) {
			t.Fatalf("cells cols %d != scenarios %d", len(row), len(r.Specs))
		}
	}

	hypre := r.Cells[wi["Hypre"]]
	base := hypre[si["baseline"]]
	// A pool-heavy capacity split pushes more of the streaming solver's
	// accesses remote than the balanced baseline; an almost-all-local skew
	// pulls them back.
	if hypre[si["big-pool"]].RemoteAccess <= base.RemoteAccess {
		t.Errorf("big-pool remote access %.3f should exceed baseline %.3f",
			hypre[si["big-pool"]].RemoteAccess, base.RemoteAccess)
	}
	if hypre[si["skewed-split"]].RemoteAccess >= base.RemoteAccess {
		t.Errorf("90%%-local skew remote access %.3f should undercut baseline %.3f",
			hypre[si["skewed-split"]].RemoteAccess, base.RemoteAccess)
	}
	// With almost everything local, interference barely bites.
	if hypre[si["skewed-split"]].RelPerf50 < base.RelPerf50 {
		t.Errorf("90%%-local skew (rel %.3f) should be less interference-sensitive than baseline (%.3f)",
			hypre[si["skewed-split"]].RelPerf50, base.RelPerf50)
	}
	// The weaker CXL gen5 link cannot beat gen6 under interference.
	if hypre[si["cxl-gen5"]].RelPerf50 > hypre[si["cxl-gen6"]].RelPerf50+1e-9 {
		t.Errorf("cxl-gen5 (rel %.3f) should not outperform cxl-gen6 (rel %.3f) under interference",
			hypre[si["cxl-gen5"]].RelPerf50, hypre[si["cxl-gen6"]].RelPerf50)
	}
	// Sanity on every cell: ratios and relative performance in range, IC >= 1.
	for w, row := range r.Cells {
		for s, c := range row {
			if c.RemoteAccess < 0 || c.RemoteAccess > 1 {
				t.Errorf("%s/%s: remote access %v out of range", r.Workloads[w], r.Specs[s].Name, c.RemoteAccess)
			}
			if c.RelPerf50 <= 0 || c.RelPerf50 > 1+1e-9 || c.RelPerf20 < c.RelPerf50-1e-9 {
				t.Errorf("%s/%s: relative perf out of order: @20=%v @50=%v",
					r.Workloads[w], r.Specs[s].Name, c.RelPerf20, c.RelPerf50)
			}
			if c.ICMean < 1 {
				t.Errorf("%s/%s: IC %v below 1", r.Workloads[w], r.Specs[s].Name, c.ICMean)
			}
		}
	}

	out := r.Render()
	for _, sp := range r.Specs {
		if !strings.Contains(out, sp.Name) {
			t.Errorf("render should mention scenario %s", sp.Name)
		}
	}
	if !strings.Contains(out, "Cross-scenario platform inventory") {
		t.Error("render should include the platform inventory")
	}
}
