package experiments

import (
	"fmt"
	"math"

	"repro/internal/machine"
	"repro/internal/pool"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/units"
	"repro/internal/workloads"
	"repro/internal/workloads/bfs"
	"repro/internal/workloads/registry"
)

// Figure12Cell is the BFS case-study measurement for one (pooling level,
// variant) pair.
type Figure12Cell struct {
	PooledFraction float64 // remote share of capacity (0.5 or 0.75)
	Variant        bfs.Variant
	// Runtime is modeled run time on the idle system.
	Runtime float64
	// RemoteBytes is total remote traffic.
	RemoteBytes uint64
	// RemoteAccessRatio of the search phase (p2), the paper's headline
	// metric ("99% remote access" at 75% pooling).
	RemoteAccessRatio float64
	// Sensitivity[i] is relative performance at LoILevels[i].
	Sensitivity []float64
}

// Figure12Result is the §7.1 data-placement case study.
type Figure12Result struct {
	Cells []Figure12Cell
	LoIs  []float64
}

// bfsEntry wraps a BFS variant as a registry entry so the profiler's
// capacity protocol applies unchanged.
func bfsEntry(v bfs.Variant) registry.Entry {
	return registry.Entry{
		Name:   "BFS-" + v.String(),
		Phases: []string{"p1", "p2"},
		New: func(scale int) workloads.Workload {
			b := bfs.New(scale)
			b.Variant = v
			return b
		},
	}
}

// Figure12 profiles baseline and optimized BFS at 50% and 75% pooling.
// Unlike Figures 11/13, the two pooling levels are the case study's own
// protocol (§7.1 reports exactly these), so they stay fixed across
// scenarios; `-platform` still changes the link and timing underneath.
//
// The capacity protocol follows the paper: the local tier is sized against
// the baseline variant's peak usage in both cases, so the optimized variant
// is measured on the identical machine rather than a machine resized to its
// own (smaller) footprint. Each variant executes once and is split at both
// pooling levels; the baseline's execution records the peak both sizes
// come from.
func (s *Suite) Figure12() Figure12Result {
	baseline := bfsEntry(bfs.Baseline)
	pooleds := []float64{0.50, 0.75}
	variants := []bfs.Variant{bfs.Baseline, bfs.ReorderOnly, bfs.Optimized}
	l := s.lim()
	runs := pool.Map(l, len(variants), func(i int) *machine.Machine {
		m, _ := s.Profiler.Execute(bfsEntry(variants[i]), 1)
		return m
	})
	if l.Err() != nil {
		// Abandoned before every variant ran; the caller discards the
		// result.
		return Figure12Result{LoIs: LoILevels}
	}
	var cells []Figure12Cell
	for _, pooled := range pooleds {
		cfg := s.Profiler.ConfigForLocalFraction(baseline, 1, 1-pooled)
		for i, v := range variants {
			phases, _ := runs[i].SplitAt(cfg.Mem.LocalCapacity)
			cell := Figure12Cell{PooledFraction: pooled, Variant: v, Runtime: cfg.RunTime(phases, 0)}
			for _, ph := range phases {
				cell.RemoteBytes += ph.RemoteBytes
				if ph.Name == "p2" && ph.TotalBytes() > 0 {
					cell.RemoteAccessRatio = float64(ph.RemoteBytes) / float64(ph.TotalBytes())
				}
			}
			for _, loi := range LoILevels {
				cell.Sensitivity = append(cell.Sensitivity, cfg.Sensitivity(phases, loi))
			}
			cells = append(cells, cell)
		}
	}
	return Figure12Result{LoIs: LoILevels, Cells: cells}
}

// ID implements Result.
func (Figure12Result) ID() string { return "figure12" }

// Report builds runtime, remote traffic, and sensitivity per cell.
func (r Figure12Result) Report() report.Doc {
	tb := report.NewTable("Figure 12: BFS data-placement optimization",
		"Pooled", "Variant", "Runtime (s)", "Remote bytes", "%RemoteAccess", "Rel perf @LoI=50")
	for _, c := range r.Cells {
		last := 1.0
		if n := len(c.Sensitivity); n > 0 {
			last = c.Sensitivity[n-1]
		}
		tb.Row(
			report.Pct(c.PooledFraction),
			report.Str(c.Variant.String()),
			report.Fixed(c.Runtime, 4),
			report.Bytes(c.RemoteBytes),
			report.Pct(c.RemoteAccessRatio),
			report.Fixed(last, 3))
	}
	d := report.New("figure12").Append(tb.Block())
	// Improvement summary lines, matching the paper's headline numbers.
	// The lookup keys on a typed struct (cachekeys contract): exactly the
	// two inputs the headline pairing depends on, no formatted-string
	// drift.
	type fig12Key struct {
		pooledPct int
		variant   bfs.Variant
	}
	byKey := map[fig12Key]Figure12Cell{}
	for _, c := range r.Cells {
		byKey[fig12Key{int(math.Round(c.PooledFraction * 100)), c.Variant}] = c
	}
	for _, pooled := range []int{50, 75} {
		b, okB := byKey[fig12Key{pooled, bfs.Baseline}]
		o, okO := byKey[fig12Key{pooled, bfs.Optimized}]
		if !okB || !okO || o.Runtime <= 0 {
			continue
		}
		d.Append(report.NoteBlock(fmt.Sprintf("\n%d%% pooled: speedup %.1f%%, remote access %s -> %s, remote bytes -%.0f%%",
			pooled, 100*(b.Runtime/o.Runtime-1),
			units.Percent(b.RemoteAccessRatio), units.Percent(o.RemoteAccessRatio),
			100*(1-float64(o.RemoteBytes)/float64(b.RemoteBytes)))))
	}
	d.Append(report.NoteBlock("\n"))
	return *d
}

// Render implements Result.
func (r Figure12Result) Render() string { return report.RenderText(r.Report()) }

// Figure13Result is the interference-aware scheduling study.
type Figure13Result struct {
	Summaries []sched.Summary
}

// Figure13 runs every workload (at the suite's headline pooling split, 50%
// in the paper's protocol) s.Runs times under the baseline (LoI 0-50%) and
// interference-aware (LoI 0-20%) schedulers. Workloads and the Monte-Carlo
// runs inside each comparison draw from the same shared worker budget;
// every simulated run owns the RNG substream of its run index, so the
// summaries are byte-identical at any worker count.
func (s *Suite) Figure13() Figure13Result {
	l := s.lim()
	local := s.headline()
	return Figure13Result{
		Summaries: pool.Map(l, len(s.Entries), func(i int) sched.Summary {
			e := s.Entries[i]
			rep := s.Profiler.Level2(e, 1, local)
			cfg := s.Profiler.ConfigForLocalFraction(e, 1, local)
			return sched.CompareLimited(e.Name, cfg, rep.Phase2Stats, s.Runs, 1000+uint64(i)*17, l)
		}),
	}
}

// ID implements Result.
func (Figure13Result) ID() string { return "figure13" }

// Report builds five-number summaries and box distributions per workload.
func (r Figure13Result) Report() report.Doc {
	tb := report.NewTable("Figure 13: execution time over 100 runs, baseline vs interference-aware",
		"Workload", "Sched", "Min", "Q1", "Median", "Q3", "Max", "Mean speedup", "P75 cut")
	var boxes []report.Block
	for _, s := range r.Summaries {
		b, a := s.Baseline, s.Aware
		tb.Row(report.Str(s.Workload), report.Str("baseline"),
			report.Fixed(b.Min, 4), report.Fixed(b.Q1, 4), report.Fixed(b.Median, 4),
			report.Fixed(b.Q3, 4), report.Fixed(b.Max, 4), report.Str(""), report.Str(""))
		tb.Row(report.Str(""), report.Str("i-aware"),
			report.Fixed(a.Min, 4), report.Fixed(a.Q1, 4), report.Fixed(a.Median, 4),
			report.Fixed(a.Q3, 4), report.Fixed(a.Max, 4),
			report.Pct(s.MeanSpeedup), report.Pct(s.P75Reduction))
		lo, hi := a.Min, b.Max
		if b.Min < lo {
			lo = b.Min
		}
		if a.Max > hi {
			hi = a.Max
		}
		bd := &report.Dist{Label: fmt.Sprintf("%-8s baseline", s.Workload),
			Min: report.Float(b.Min), Q1: report.Float(b.Q1), Median: report.Float(b.Median),
			Q3: report.Float(b.Q3), Max: report.Float(b.Max),
			Lo: report.Float(lo), Hi: report.Float(hi), Width: 44}
		ad := &report.Dist{Label: fmt.Sprintf("%-8s i-aware ", s.Workload),
			Min: report.Float(a.Min), Q1: report.Float(a.Q1), Median: report.Float(a.Median),
			Q3: report.Float(a.Q3), Max: report.Float(a.Max),
			Lo: report.Float(lo), Hi: report.Float(hi), Width: 44}
		boxes = append(boxes, bd.Block(), ad.Block())
	}
	return *report.New("figure13").Append(tb.Block(), report.Gap()).Append(boxes...)
}

// Render implements Result.
func (r Figure13Result) Render() string { return report.RenderText(r.Report()) }
