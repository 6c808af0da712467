package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/units"
)

// ScenarioCell holds one workload's headline metrics on one scenario: the
// Level-2 remote access ratio against the scenario's references, the
// Level-3 sensitivity and induced interference, and the Figure 13
// scheduling comparison.
type ScenarioCell struct {
	// RemoteAccess is the compute phase's (p2) remote access ratio at the
	// scenario's headline capacity split.
	RemoteAccess float64
	// Verdict classifies RemoteAccess against the scenario's R_cap/R_BW.
	Verdict core.TuningVerdict
	// RelPerf20 and RelPerf50 are relative performance at LoI=20% and 50%.
	RelPerf20, RelPerf50 float64
	// ICMean is the induced interference coefficient.
	ICMean float64
	// MeanSpeedup and P75Reduction compare the baseline and
	// interference-aware schedulers (the Figure 13 protocol).
	MeanSpeedup, P75Reduction float64
}

// ScenariosResult is the cross-scenario what-if comparison: the paper's
// Level-2/Level-3 and scheduling analyses re-evaluated on every registered
// platform scenario, rendered as side-by-side tables.
type ScenariosResult struct {
	Specs     []scenario.Spec
	Workloads []string
	// RBW[si] is scenario si's bandwidth reference point.
	RBW []float64
	// Cells[wi][si] is workload wi on scenario si.
	Cells [][]ScenarioCell
	// Runs is the Monte-Carlo run count of the scheduling comparison.
	Runs int
}

// pct renders a fraction as a whole percentage (rounded, so 1-0.9 prints
// as 10, not the float-truncated 9).
func pct(f float64) int { return int(math.Round(f * 100)) }

// profilerFor returns the suite's profiler for a scenario platform: the
// shared suite profiler when the platform matches (so `memdis all` pays
// nothing extra for the baseline column), otherwise a profiler drawing
// from the suite's shared cache. Dependency keys make cross-platform
// sharing sound, so a scenario differing from the base only in link
// parameters reuses the base's link-independent profiles, and a profiler
// holds nothing else worth keeping.
func (s *Suite) profilerFor(sp scenario.Spec) *core.Profiler {
	if sp.Platform == s.Cfg {
		return s.Profiler
	}
	return core.NewProfilerShared(sp.Platform, s.Profiler.Cache())
}

// scenarioSeed derives the deterministic base seed of the (scenario,
// workload) scheduling comparison. It depends only on grid indices, so the
// sweep is byte-identical at any worker count.
func scenarioSeed(si, wi int) uint64 { return 4000 + uint64(si)*1000 + uint64(wi)*17 }

// Scenarios re-runs the profiling pipeline on every registered platform
// scenario at its headline capacity split and assembles the side-by-side
// comparison. The full per-scenario artifact set (Figure 9/10 panels over
// the scenario's own capacity sweep) is available by running the suite on
// that scenario via NewSuiteForShared (the CLI's -platform flag); this
// driver is the cross-platform summary.
//
// The baseline scenario reuses the suite's shared profiler, so a composite
// invocation such as `memdis all` pays nothing extra for it; every other
// scenario owns one profiler shared by all of its cells.
func (s *Suite) Scenarios() ScenariosResult {
	specs := scenario.All()
	profs := make([]*core.Profiler, len(specs))
	for i, sp := range specs {
		profs[i] = s.profilerFor(sp)
	}
	res := ScenariosResult{Specs: specs, Runs: s.Runs}
	for _, sp := range specs {
		res.RBW = append(res.RBW, sp.Platform.BandwidthRatio())
	}
	for _, e := range s.Entries {
		res.Workloads = append(res.Workloads, e.Name)
	}
	l := s.lim()
	// Flatten the scenario x workload grid; each cell's Monte-Carlo runs
	// draw from the same shared worker budget (the limiter is nesting-safe)
	// and from substreams keyed by grid indices, never completion order.
	flat := pool.Map(l, len(specs)*len(s.Entries), func(i int) ScenarioCell {
		si, wi := i/len(s.Entries), i%len(s.Entries)
		sp, e, p := specs[si], s.Entries[wi], profs[si]
		rep := p.Level2(e, 1, sp.HeadlineFraction)
		cell := ScenarioCell{}
		for _, ph := range rep.Phases {
			if ph.Name == "p2" {
				cell.RemoteAccess = ph.RemoteAccessRatio
				cell.Verdict = rep.Verdict(ph)
			}
		}
		l3 := p.Level3(e, 1, sp.HeadlineFraction, []float64{0.20, 0.50})
		cell.RelPerf20, cell.RelPerf50 = l3.Relative[0], l3.Relative[1]
		cell.ICMean = l3.ICMean
		cfg := p.ConfigForLocalFraction(e, 1, sp.HeadlineFraction)
		sum := sched.CompareLimited(e.Name, cfg, rep.Phase2Stats, s.Runs, scenarioSeed(si, wi), l)
		cell.MeanSpeedup, cell.P75Reduction = sum.MeanSpeedup, sum.P75Reduction
		return cell
	})
	for wi := range s.Entries {
		row := make([]ScenarioCell, len(specs))
		for si := range specs {
			row[si] = flat[si*len(s.Entries)+wi]
		}
		res.Cells = append(res.Cells, row)
	}
	return res
}

// ID implements Result.
func (ScenariosResult) ID() string { return "scenarios" }

// headers returns the table header row: a leading label then one column per
// scenario annotated with its headline split.
func (r ScenariosResult) headers(label string) []string {
	hs := []string{label}
	for _, sp := range r.Specs {
		hs = append(hs, fmt.Sprintf("%s @%d-%d", sp.Name,
			pct(sp.HeadlineFraction), pct(1-sp.HeadlineFraction)))
	}
	return hs
}

// Report builds the platform inventory and one side-by-side table per
// analysis: remote access vs the references, interference sensitivity and
// induced coefficient, and the scheduler comparison. Composite cells carry
// their numeric payloads in Vals, so machine consumers need not re-parse
// the "97.5% balanced"-style text.
func (r ScenariosResult) Report() report.Doc {
	pt := report.NewTable("Cross-scenario platform inventory",
		"Scenario", "Link data", "Link peak", "Latency", "Overhead", "R_BW", "Capacity sweep (local %)")
	for si, sp := range r.Specs {
		sweep := ""
		for i, f := range sp.CapacityFractions {
			if i > 0 {
				sweep += "/"
			}
			sweep += fmt.Sprintf("%d", pct(f))
		}
		pt.Row(report.Str(sp.Name),
			report.Bandwidth(sp.Platform.Link.DataBandwidth),
			report.Bandwidth(sp.Platform.Link.PeakTraffic),
			report.Seconds(sp.Platform.Link.Latency),
			report.FixedSuffix(sp.Platform.Link.Overhead, 2, "x"),
			report.Pct(r.RBW[si]),
			report.Str(sweep, sp.CapacityFractions...))
	}

	ra := report.NewTable(
		"Remote access ratio of the compute phase (verdict vs the scenario's R_cap..R_BW band)",
		r.headers("Workload (p2)")...)
	sens := report.NewTable(
		"Interference: relative perf @LoI=50% and induced IC",
		r.headers("Workload")...)
	sch := report.NewTable(
		fmt.Sprintf("Interference-aware scheduling: mean speedup over %d runs (P75 cut)", r.Runs),
		r.headers("Workload")...)
	for wi, w := range r.Workloads {
		raRow := []report.Cell{report.Str(w)}
		sensRow := []report.Cell{report.Str(w)}
		schRow := []report.Cell{report.Str(w)}
		for si := range r.Specs {
			c := r.Cells[wi][si]
			raRow = append(raRow, report.Str(
				fmt.Sprintf("%s %s", units.Percent(c.RemoteAccess), c.Verdict), c.RemoteAccess))
			sensRow = append(sensRow, report.Str(
				fmt.Sprintf("%.3f ic=%.2f", c.RelPerf50, c.ICMean), c.RelPerf50, c.ICMean))
			schRow = append(schRow, report.Str(
				fmt.Sprintf("%s (%s)", units.Percent(c.MeanSpeedup), units.Percent(c.P75Reduction)),
				c.MeanSpeedup, c.P75Reduction))
		}
		ra.Row(raRow...)
		sens.Row(sensRow...)
		sch.Row(schRow...)
	}
	return *report.New("scenarios").Append(
		pt.Block(), report.Gap(), ra.Block(), report.Gap(), sens.Block(), report.Gap(), sch.Block())
}

// Render implements Result.
func (r ScenariosResult) Render() string { return report.RenderText(r.Report()) }
