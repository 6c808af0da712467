package sweep

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/pool"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workloads/registry"
)

// DefaultSeed is the campaign base seed when Runner.Seed is zero. It is
// deliberately outside the seed ranges of the experiment drivers (the
// scenarios driver derives from the 4000 range), so sweep substreams never
// coincide with a driver's.
const DefaultSeed uint64 = 7000

// Cell holds one workload's headline metrics on one grid cell: the Level-2
// remote access ratio and verdict at the cell's capacity split, the
// Level-3 interference sensitivity and induced coefficient, and the
// Figure 13 scheduling comparison.
type Cell struct {
	// Cell is the grid cell's canonical name ("base" for the reference
	// system); Workload is the application the row measures.
	Cell, Workload string
	// RemoteAccess is the compute phase's (p2) remote access ratio at the
	// cell's capacity split; Verdict classifies it against the cell
	// platform's R_cap/R_BW references.
	RemoteAccess float64
	Verdict      core.TuningVerdict
	// RelPerf20 and RelPerf50 are relative performance under link
	// interference at LoI=20% and LoI=50%.
	RelPerf20, RelPerf50 float64
	// ICMean is the induced interference coefficient.
	ICMean float64
	// MeanSpeedup and P75Reduction compare the baseline and
	// interference-aware schedulers (the Figure 13 protocol).
	MeanSpeedup, P75Reduction float64
}

// Runner executes a campaign: the paper's headline analysis pipeline on
// every (grid cell, workload) pair, fanned out through a shared pool
// limiter with one deterministic substream per cell.
type Runner struct {
	// Grid is the declarative campaign to run.
	Grid Grid
	// Entries is the workload table (registry.All when nil).
	Entries []registry.Entry
	// Runs is the Monte-Carlo run count of the per-cell scheduling
	// comparison (the paper's 100 when zero).
	Runs int
	// Seed is the campaign base seed (DefaultSeed when zero); every cell
	// derives its own substream from it via stats.SeedAt.
	Seed uint64
	// BaseProfiler, when set, profiles the base platform — the hook the
	// experiment suite uses to share its warm caches. Cell platforms equal
	// to the base reuse it; distinct platforms get their own profiler,
	// shared across all cells with identical physics.
	BaseProfiler *core.Profiler
	// Cache is the dependency-keyed shared cache backing every cell
	// profiler the campaign creates, so cells that differ only along axes a
	// sub-result cannot read (a link axis for peak/Level-1/curve, a latency
	// axis for Level-2) reuse each other's work. When nil, RunContext
	// installs the BaseProfiler's cache if there is one, else a fresh
	// private cache — either way every cell of the campaign shares one.
	Cache *core.SharedCache
	// Isolated disables cross-cell sharing: each distinct platform gets a
	// fully private cache, reproducing the pre-sharing behaviour. It is the
	// reference mode that TestIsolatedMatchesShared and
	// BenchmarkSharedCampaign compare the shared mode against — results are
	// byte-identical either way, only the work differs.
	Isolated bool
	// Progress, when set, is called after each finished cell with the
	// number of completed and total cells (from the streaming aggregator;
	// calls are serialized under the aggregator's lock but arrive in
	// completion order, so done is strictly increasing).
	Progress func(done, total int)
	// Skip, when set, short-circuits one task: returning (cell, true) for
	// task index i stores that cell verbatim instead of recomputing it.
	// This is the checkpoint-resume hook — every cell is a pure function
	// of its grid coordinates (stats.SeedAt), so replaying a previously
	// computed cell is byte-identical to recomputing it. Skip must be safe
	// for concurrent calls and must not call back into the runner.
	Skip func(i int) (Cell, bool)
	// OnCell, when set, receives each freshly *computed* cell (skipped
	// tasks never reach it) with its task index, under the aggregator lock
	// and before the Progress callback — the streaming checkpoint hook.
	// Like Progress, it must not call back into the runner.
	OnCell func(i int, c Cell)
}

// RunContext executes every cell of the campaign within the given
// limiter's budget (nil means sequential) and returns the aggregated
// campaign. The result is byte-identical for any limiter width: cells are
// seeded by grid coordinates, results land in index-addressed slots, and
// the aggregator's reductions are order-independent.
//
// Once ctx is done, no new (cell, workload) task — and no new Monte-Carlo
// run inside one, since the nested scheduling sweeps draw from the same
// context-carrying limiter — starts. The call then returns ctx.Err()
// within one task boundary (in-flight cells finish; none of their results
// are returned) and leaks no goroutines: the pool workers drain the
// cancelled claim counter and exit before RunContext returns.
func (r *Runner) RunContext(ctx context.Context, l *pool.Limiter) (*Campaign, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cl := l.WithContext(ctx)
	l = cl
	if err := r.Grid.Validate(); err != nil {
		return nil, err
	}
	points, err := r.Grid.Points()
	if err != nil {
		return nil, err
	}
	entries := r.Entries
	if entries == nil {
		entries = registry.All()
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("sweep: no workloads")
	}
	runs := r.Runs
	if runs <= 0 {
		runs = 100
	}
	seed := r.Seed
	if seed == 0 {
		seed = DefaultSeed
	}

	// One profiler per distinct platform physics, all backed by one shared
	// dependency-keyed cache: cells differing only in capacity fraction (or
	// sharing a generation preset) reuse the whole profile, and cells
	// differing along a link axis reuse every link-independent sub-result.
	// Isolated mode reverts to a private cache per distinct platform — the
	// no-sharing baseline the sweep benchmark compares against.
	shared := r.Cache
	if shared == nil && !r.Isolated {
		if r.BaseProfiler != nil {
			shared = r.BaseProfiler.Cache()
		} else {
			shared = core.NewSharedCache()
		}
		// Publish the effective cache so the caller can observe hit/miss
		// counters after (or during) the run.
		r.Cache = shared
	}
	profs := map[machine.Config]*core.Profiler{}
	if r.BaseProfiler != nil && r.BaseProfiler.Config() == r.Grid.Base.Platform {
		profs[r.Grid.Base.Platform] = r.BaseProfiler
	}
	profFor := func(cfg machine.Config) *core.Profiler {
		if p, ok := profs[cfg]; ok {
			return p
		}
		var p *core.Profiler
		if r.Isolated {
			p = core.NewProfiler(cfg)
		} else {
			p = core.NewProfilerShared(cfg, shared)
		}
		profs[cfg] = p
		return p
	}
	profFor(r.Grid.Base.Platform)
	for _, p := range points {
		profFor(p.Spec.Platform)
	}

	// Flat task space: row 0 is the base reference, rows 1..len(points)
	// are the grid cells; within a row, one task per workload.
	nw := len(entries)
	total := (len(points) + 1) * nw
	ag := newAggregator(total, r.Progress, r.OnCell)
	l.ForEach(total, func(i int) {
		if r.Skip != nil {
			if cell, ok := r.Skip(i); ok {
				ag.replay(i, cell)
				return
			}
		}
		pi, wi := i/nw, i%nw
		sp := r.Grid.Base
		name := "base"
		if pi > 0 {
			sp = points[pi-1].Spec
			name = sp.Name
		}
		e := entries[wi]
		p := profs[sp.Platform]
		cell := Cell{Cell: name, Workload: e.Name}
		rep := p.Level2(e, 1, sp.HeadlineFraction)
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
		sum := sched.CompareLimited(e.Name, cfg, rep.Phase2Stats, runs,
			stats.SeedAt(seed, uint64(pi), uint64(wi)), l)
		cell.MeanSpeedup, cell.P75Reduction = sum.MeanSpeedup, sum.P75Reduction
		if ctx.Err() != nil {
			// Cancelled while this cell was in flight: the nested
			// Monte-Carlo sweep drew from the cancelled limiter and may have
			// been cut short, so the cell's scheduling stats are not the
			// deterministic values an uncancelled run produces. Discard it —
			// announcing it through OnCell would poison a checkpoint with a
			// truncated distribution.
			return
		}
		ag.add(i, cell)
	})
	if err := cl.Err(); err != nil {
		// Abandoned mid-campaign: the slots for unstarted cells are zero,
		// so no partial campaign is returned.
		return nil, err
	}

	c := &Campaign{
		Grid:   r.Grid,
		Points: points,
		Runs:   runs,
		Base:   ag.cells[:nw:nw],
	}
	for _, e := range entries {
		c.Workloads = append(c.Workloads, e.Name)
	}
	for pi := range points {
		row := ag.cells[(pi+1)*nw : (pi+2)*nw : (pi+2)*nw]
		c.Cells = append(c.Cells, row)
		c.Scores = append(c.Scores, meanOf(row, func(cl Cell) float64 { return cl.RelPerf50 }))
	}
	c.BaseScore = meanOf(c.Base, func(cl Cell) float64 { return cl.RelPerf50 })
	c.Best, c.Worst = frontier(c.Scores)
	return c, nil
}

// aggregator receives finished cells as they stream out of the fan-out:
// each is stored into its index-addressed slot and counted for progress.
// Both reductions are order-independent (slot writes and a counter), so
// streaming never compromises the byte-identical guarantee; the
// order-sensitive reductions — floating-point score sums and the frontier
// — run over the slots in index order once the fan-out drains.
type aggregator struct {
	mu       sync.Mutex
	cells    []Cell
	done     int
	progress func(done, total int)
	onCell   func(i int, c Cell)
}

func newAggregator(total int, progress func(done, total int), onCell func(i int, c Cell)) *aggregator {
	return &aggregator{cells: make([]Cell, total), progress: progress, onCell: onCell}
}

// add streams one freshly computed cell into the aggregator. The OnCell
// and Progress callbacks run under the aggregator lock, which is what
// makes the documented "calls are serialized" contract hold — callbacks
// must not call back into the runner.
func (ag *aggregator) add(i int, c Cell) { ag.store(i, c, true) }

// replay stores a checkpoint-restored cell: counted for progress, never
// re-announced through OnCell (it was checkpointed by a previous run).
func (ag *aggregator) replay(i int, c Cell) { ag.store(i, c, false) }

func (ag *aggregator) store(i int, c Cell, computed bool) {
	ag.mu.Lock()
	defer ag.mu.Unlock()
	ag.cells[i] = c
	ag.done++
	if computed && ag.onCell != nil {
		ag.onCell(i, c)
	}
	if ag.progress != nil {
		ag.progress(ag.done, len(ag.cells))
	}
}

// frontier returns the best and worst grid-cell indices by score (ties to
// the lower index, so the result never depends on completion order).
func frontier(scores []float64) (best, worst int) {
	best, worst = -1, -1
	for pi, s := range scores {
		if best < 0 || s > scores[best] {
			best = pi
		}
		if worst < 0 || s < scores[worst] {
			worst = pi
		}
	}
	return best, worst
}

// Campaign is one executed sweep: every grid cell's headline metrics plus
// the base reference, reducible to the "sweep" and "sensitivity" artifact
// documents.
type Campaign struct {
	// Grid is the campaign declaration; Points its generated cells.
	Grid   Grid
	Points []Point
	// Workloads are the measured applications in table order.
	Workloads []string
	// Runs is the Monte-Carlo run count of each cell's scheduling
	// comparison.
	Runs int
	// Base holds the reference system's cells (one per workload); Cells
	// holds the grid: Cells[pi][wi] is grid cell pi measured on workload wi.
	Base  []Cell
	Cells [][]Cell
	// Scores[pi] is cell pi's campaign score — the mean RelPerf50 across
	// workloads (higher is better) — and BaseScore the reference's.
	Scores    []float64
	BaseScore float64
	// Best and Worst index the frontier cells by score (-1 when the grid
	// is empty).
	Best, Worst int
}

// meanOf averages f over cells in index order (deterministic summation).
func meanOf(cells []Cell, f func(Cell) float64) float64 {
	if len(cells) == 0 {
		return 0
	}
	var sum float64
	for _, c := range cells {
		sum += f(c)
	}
	return sum / float64(len(cells))
}

// Sweep reduces the campaign to the "sweep" artifact: the long-form
// per-cell table — base reference first, then one row per (cell, workload)
// in grid order — with one column per axis coordinate, CSV-friendly (every
// row is self-contained; the raw values ride in the cells).
func (c *Campaign) Sweep() report.Doc {
	headers := []string{"Cell"}
	for _, a := range c.Grid.Axes {
		headers = append(headers, a.Name)
	}
	headers = append(headers, "Workload", "%RemoteAccess", "Verdict",
		"RelPerf@20", "RelPerf@50", "IC", "MeanSpeedup", "P75 cut")
	tb := report.NewTable(fmt.Sprintf(
		"Campaign grid: %s (%d cells x %d workloads, %d scheduler runs/cell)",
		c.Grid.Key(), len(c.Points), len(c.Workloads), c.Runs), headers...)
	row := func(coords []Coord, cl Cell) {
		cells := []report.Cell{report.Str(cl.Cell)}
		for ai := range c.Grid.Axes {
			if coords == nil {
				cells = append(cells, report.Str("-"))
			} else {
				cells = append(cells, report.Num(coords[ai].Value))
			}
		}
		cells = append(cells,
			report.Str(cl.Workload),
			report.Pct(cl.RemoteAccess),
			report.Str(cl.Verdict.String()),
			report.Fixed(cl.RelPerf20, 3),
			report.Fixed(cl.RelPerf50, 3),
			report.Fixed(cl.ICMean, 2),
			report.Pct(cl.MeanSpeedup),
			report.Pct(cl.P75Reduction))
		tb.Row(cells...)
	}
	for _, cl := range c.Base {
		row(nil, cl)
	}
	for pi, p := range c.Points {
		for _, cl := range c.Cells[pi] {
			row(p.Coords, cl)
		}
	}
	return *report.New("sweep").Append(
		report.NoteBlock(fmt.Sprintf("== Parameter-sweep campaign over generated scenarios (base: %s) ==\n", c.Grid.Base.Name)),
		tb.Block(), report.Gap())
}

// marginal is the mean of a metric over every cell whose coordinate on one
// axis equals one value.
type marginal struct {
	cells                         int
	relPerf50, speedup, remoteAcc float64
}

// marginalAt computes the marginal mean at (axis index, value index) in
// deterministic grid order.
func (c *Campaign) marginalAt(ai, vi int) marginal {
	var m marginal
	v := c.Grid.Axes[ai].Values[vi]
	for pi, p := range c.Points {
		if p.Coords[ai].Value != v {
			continue
		}
		for _, cl := range c.Cells[pi] {
			m.cells++
			m.relPerf50 += cl.RelPerf50
			m.speedup += cl.MeanSpeedup
			m.remoteAcc += cl.RemoteAccess
		}
	}
	if m.cells > 0 {
		n := float64(m.cells)
		m.relPerf50 /= n
		m.speedup /= n
		m.remoteAcc /= n
	}
	return m
}

// Sensitivity reduces the campaign to the "sensitivity" artifact: per-axis
// marginal means of the headline metrics as deltas against the base
// reference, followed by the best/worst frontier cells — which corner of
// the design grid helps, which hurts, and by how much.
func (c *Campaign) Sensitivity() report.Doc {
	base := marginal{
		cells:     len(c.Base),
		relPerf50: c.BaseScore,
		speedup:   meanOf(c.Base, func(cl Cell) float64 { return cl.MeanSpeedup }),
		remoteAcc: meanOf(c.Base, func(cl Cell) float64 { return cl.RemoteAccess }),
	}
	mt := report.NewTable(
		"Per-axis marginal means (delta vs the base system)",
		"Axis", "Value", "Cells", "RelPerf@50", "dRelPerf@50",
		"MeanSpeedup", "dSpeedup", "%RemoteAccess", "dRemote")
	mt.Row(report.Str("(base)"), report.Str(c.Grid.Base.Name), report.Int(base.cells),
		report.Fixed(base.relPerf50, 3), report.Fixed(0, 3),
		report.Pct(base.speedup), report.Fixed(0, 3),
		report.Pct(base.remoteAcc), report.Fixed(0, 3))
	for ai, a := range c.Grid.Axes {
		for vi := range a.Values {
			m := c.marginalAt(ai, vi)
			mt.Row(report.Str(a.Name), report.Num(a.Values[vi]), report.Int(m.cells),
				report.Fixed(m.relPerf50, 3), report.Fixed(m.relPerf50-base.relPerf50, 3),
				report.Pct(m.speedup), report.Fixed(m.speedup-base.speedup, 3),
				report.Pct(m.remoteAcc), report.Fixed(m.remoteAcc-base.remoteAcc, 3))
		}
	}

	ft := report.NewTable(
		"Frontier cells by campaign score (mean RelPerf@50 across workloads)",
		"Rank", "Cell", "Score", "dScore vs base", "MeanSpeedup", "%RemoteAccess")
	frontierRow := func(rank string, pi int) {
		if pi < 0 {
			return
		}
		row := c.Cells[pi]
		ft.Row(report.Str(rank), report.Str(c.Points[pi].Spec.Name),
			report.Fixed(c.Scores[pi], 3), report.Fixed(c.Scores[pi]-c.BaseScore, 3),
			report.Pct(meanOf(row, func(cl Cell) float64 { return cl.MeanSpeedup })),
			report.Pct(meanOf(row, func(cl Cell) float64 { return cl.RemoteAccess })))
	}
	frontierRow("best", c.Best)
	frontierRow("worst", c.Worst)

	return *report.New("sensitivity").Append(
		report.NoteBlock(fmt.Sprintf("== Axis sensitivity: %s (%d cells, %d runs/cell) ==\n",
			c.Grid.Key(), len(c.Points), c.Runs)),
		mt.Block(), report.Gap(), ft.Block(), report.Gap())
}
