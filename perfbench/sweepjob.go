package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/pool"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// sweep-job: set-up warms the base profile with one job; each op submits a
// campaign job on a 42-cell link-latency grid it has never submitted and
// waits for it. Job ids hash the declaration, so a repeated grid would
// re-attach and do no work. Every cell hits the shared profile cache, so
// nothing executes on the emulated machine: the time goes to the
// Monte-Carlo scheduler, Level 3, aggregation, checkpoint, record and
// event writes, and the artifact renders. The in-memory job store keeps
// every job, so memory grows with each op.

const (
	// sweepCells is the grid size of every op.
	sweepCells = 42
	// sweepMemAt is the op after which memory is sampled.
	sweepMemAt = 50
	// sweepTraced is how many ops a traced run decomposes.
	sweepTraced = 10
	// sweepWarmAxis is set-up's grid; no op's axis contains 0.
	sweepWarmAxis = "lat=0"
)

// sweepEnv is a Service whose jobs persist through a counting store, and a
// reference runner sharing nothing with it.
type sweepEnv struct {
	svc   *repro.Service
	store *countingStore
	ref   *refRunner
}

// refRunner runs campaigns directly through sweep.Runner on a profile
// cache of its own, built the way the Service builds a job's runner.
type refRunner struct {
	es    []repro.WorkloadEntry
	cache *core.SharedCache
	base  *core.Profiler
}

func newRefRunner() (*refRunner, error) {
	es, err := entries()
	if err != nil {
		return nil, err
	}
	sp, err := repro.PlatformNamed("baseline")
	if err != nil {
		return nil, err
	}
	c := core.NewSharedCache()
	return &refRunner{es: es, cache: c, base: core.NewProfilerShared(sp.Platform, c)}, nil
}

func (rr *refRunner) runner(g repro.SweepGrid) *sweep.Runner {
	return &sweep.Runner{Grid: g, Entries: rr.es, BaseProfiler: rr.base, Cache: rr.cache}
}

// sweepJSON is the sweep artifact a job must store for a campaign.
func sweepJSON(g repro.SweepGrid, camp *repro.SweepCampaign) (string, error) {
	doc := camp.Sweep()
	doc.Platform = g.Base.Name
	return report.RenderJSON(doc)
}

// grid builds the op's grid on the default platform.
func (env *sweepEnv) grid(ax repro.SweepAxis) (repro.SweepGrid, error) {
	return env.svc.Grid("", ax)
}

// job submits g and waits for its job; it returns the latency and the
// finished record.
func (env *sweepEnv) job(ctx context.Context, g repro.SweepGrid) (time.Duration, repro.JobRecord, error) {
	start := time.Now()
	rec, err := env.svc.SubmitSweep(g)
	if err == nil {
		rec, err = env.svc.WaitJob(ctx, rec.ID)
	}
	return time.Since(start), rec, err
}

// check compares a finished job with a direct campaign on the same grid.
func (env *sweepEnv) check(g repro.SweepGrid, rec repro.JobRecord, camp *repro.SweepCampaign) error {
	if want := (g.Size() + 1) * len(table); rec.State != repro.JobDone || rec.Done != want || rec.Total != want {
		return fmt.Errorf("job %s ended %s with %d/%d cells, want done with %d", rec.ID, rec.State, rec.Done, rec.Total, want)
	}
	got, err := env.svc.JobArtifact(rec.ID, "sweep", repro.FormatJSON)
	if err != nil {
		return err
	}
	want, err := sweepJSON(g, camp)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("job %s: sweep JSON differs from a direct sweep.Runner campaign", rec.ID)
	}
	return nil
}

func runSweepJob(ctx context.Context, p params) (result, error) {
	ref, err := newRefRunner()
	if err != nil {
		return result{}, err
	}
	warmAx, err := repro.ParseSweepAxis(sweepWarmAxis)
	if err != nil {
		return result{}, err
	}
	var env *sweepEnv
	defer func() {
		if env != nil {
			env.svc.Close()
		}
	}()
	setups, err := setup(func() error {
		if env != nil {
			env.svc.Close()
		}
		store := newCountingStore()
		svc, err := newService(repro.WithJobStore(store))
		if err != nil {
			return err
		}
		env = &sweepEnv{svc: svc, store: store, ref: ref}
		g, err := env.grid(warmAx)
		if err != nil {
			return err
		}
		_, rec, err := env.job(ctx, g)
		if err != nil {
			return err
		}
		if rec.State != repro.JobDone {
			return fmt.Errorf("warm-up job %s ended %s: %s", rec.ID, rec.State, rec.Error)
		}
		return nil
	})
	if err != nil {
		return result{}, err
	}
	// Fill the reference runner's cache, outside set-up's clock.
	g, err := env.grid(warmAx)
	if err != nil {
		return result{}, err
	}
	if _, err := ref.runner(g).RunContext(ctx, pool.NewLimiter(1)); err != nil {
		return result{}, err
	}

	seen := map[string]bool{}
	opAxes := newAxes(p, sweepStream, seen)
	var firstErr error
	fail := func(err error) bool {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return err == nil
	}
	t := measure(p.seconds, sweepMemAt, func(i int) (time.Duration, bool) {
		g, err := env.grid(opAxes.next())
		if err != nil {
			return 0, fail(err)
		}
		dt, rec, err := env.job(ctx, g)
		if err != nil {
			return dt, fail(err)
		}
		camp, err := ref.runner(g).RunContext(ctx, pool.NewLimiter(1))
		if err != nil {
			return dt, fail(err)
		}
		return dt, fail(env.check(g, rec, camp))
	})
	if firstErr != nil {
		fmt.Fprintf(os.Stderr, "sweep-job: %v\n", firstErr)
	}
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed}
	if !p.trace {
		res.Metrics = endToEndMetrics("sweep-job", setups, t)
		return res, nil
	}
	traced := newAxes(p, sweepTracedStream, seen)
	axes := make([]repro.SweepAxis, sweepTraced)
	for i := range axes {
		axes[i] = traced.next()
	}
	vals, ok, err := traceSweepJob(ctx, p, env, axes)
	if err != nil {
		return result{}, err
	}
	res.Metrics = perLayerMetrics("sweep-job", vals, []string{
		"core.self_ms", "sched.ms", "sweep.self_ms", "sweep.doc_ms", "report.render_ms", "jobs.store_ms", "jobs.self_ms",
	})
	res.Correct = res.Correct && ok
	return res, nil
}

// traceSweepJob decomposes one job per axis. The job's wall time contains
// the runner (sweep), beneath it the profiler calls (core) and scheduler
// comparisons (sched) of every (cell, workload) task, then the two
// artifact documents (sweep.doc), their renders in every format (report)
// and the store calls (jobs.store); what remains is the job manager's own
// work (jobs.self).
func traceSweepJob(ctx context.Context, p params, env *sweepEnv, axes []repro.SweepAxis) (map[string]float64, bool, error) {
	led := newLedger()
	ok := true
	storeBefore, cacheBefore := env.store.stats(), env.svc.ProfileCacheStats()
	schedRuns, renderBytes := 0, 0
	for op, ax := range axes {
		g, err := env.grid(ax)
		if err != nil {
			return nil, false, err
		}
		st0 := env.store.stats()
		start := time.Now()
		dt, rec, err := env.job(ctx, g)
		if err != nil {
			return nil, false, err
		}
		root := led.add("op", op, -1, start, dt)
		led.add("jobs.store", op, root, start, env.store.stats().busy-st0.busy)

		var camp *repro.SweepCampaign
		runID := led.call("sweep", op, root, func() { camp, err = env.ref.runner(g).RunContext(ctx, pool.NewLimiter(1)) })
		if err != nil {
			return nil, false, err
		}
		n, err := traceTasks(ctx, led, op, runID, env.ref, g)
		if err != nil {
			return nil, false, err
		}
		schedRuns += n

		var docs []repro.Doc
		led.call("sweep.doc", op, root, func() { docs = []repro.Doc{camp.Sweep(), camp.Sensitivity()} })
		for _, doc := range docs {
			doc.Platform = g.Base.Name
			for _, f := range report.Formats {
				var out string
				led.call("report.render", op, root, func() { out, err = report.Render(doc, f) })
				if err != nil {
					return nil, false, err
				}
				renderBytes += len(out)
			}
		}
		if err := env.check(g, rec, camp); err != nil {
			fmt.Fprintf(os.Stderr, "sweep-job: %v\n", err)
			ok = false
		}
	}
	storeAfter, cacheAfter := env.store.stats(), env.svc.ProfileCacheStats()
	if err := led.write(spanDir, fmt.Sprintf("sweep-job-seed%d.jsonl", p.seed)); err != nil {
		return nil, false, err
	}

	ops := led.opTotals()
	vals := map[string]float64{
		"op_ms":             medianOver(ops, func(m map[string]float64) float64 { return m["op"] }),
		"core.self_ms":      medianOver(ops, func(m map[string]float64) float64 { return m["core"] }),
		"core.cache_hits":   float64(cacheAfter.Hits - cacheBefore.Hits),
		"core.cache_misses": float64(cacheAfter.Misses - cacheBefore.Misses),
		"core.cache_joins":  float64(cacheAfter.Joins - cacheBefore.Joins),
		"sched.ms":          medianOver(ops, func(m map[string]float64) float64 { return m["sched"] }),
		"sched.runs":        float64(schedRuns),
		"sweep.self_ms":     medianOver(ops, func(m map[string]float64) float64 { return m["sweep"] - m["core"] - m["sched"] }),
		"sweep.doc_ms":      medianOver(ops, func(m map[string]float64) float64 { return m["sweep.doc"] }),
		"report.render_ms":  medianOver(ops, func(m map[string]float64) float64 { return m["report.render"] }),
		"report.bytes":      float64(renderBytes),
		"jobs.store_ops":    float64(storeAfter.ops - storeBefore.ops),
		"jobs.store_bytes":  float64(storeAfter.bytes - storeBefore.bytes),
		"jobs.store_ms":     medianOver(ops, func(m map[string]float64) float64 { return m["jobs.store"] }),
		"jobs.self_ms": medianOver(ops, func(m map[string]float64) float64 {
			return m["op"] - m["sweep"] - m["sweep.doc"] - m["report.render"] - m["jobs.store"]
		}),
	}
	if vals["core.cache_misses"] != 0 {
		fmt.Fprintln(os.Stderr, "sweep-job: jobs after set-up missed the profile cache")
		ok = false
	}
	return vals, ok, nil
}

// traceTasks repeats, beneath the runner's span, the profiler calls and
// the scheduler comparison of every (cell, workload) task of g, and
// returns the number of Monte-Carlo runs simulated.
func traceTasks(ctx context.Context, led *ledger, op, parent int, rr *refRunner, g repro.SweepGrid) (int, error) {
	points, err := g.Points()
	if err != nil {
		return 0, err
	}
	specs := []repro.Scenario{g.Base}
	for _, pt := range points {
		specs = append(specs, pt.Spec)
	}
	profs := map[machine.Config]*core.Profiler{g.Base.Platform: rr.base}
	runs := 0
	for pi, sp := range specs {
		prof := profs[sp.Platform]
		if prof == nil {
			prof = core.NewProfilerShared(sp.Platform, rr.cache)
			profs[sp.Platform] = prof
		}
		h := sp.HeadlineFraction
		for wi, e := range rr.es {
			var phases []machine.PhaseStats
			var cfg machine.Config
			led.call("core", op, parent, func() {
				phases = prof.Level2(e, 1, h).Phase2Stats
				prof.Level3(e, 1, h, []float64{0.20, 0.50})
				cfg = prof.ConfigForLocalFraction(e, 1, h)
			})
			const mc = 100 // the paper's run count, the Service's default
			led.call("sched", op, parent, func() {
				_, err = sched.CompareContext(ctx, e.Name, cfg, phases, mc,
					stats.SeedAt(sweep.DefaultSeed, uint64(pi), uint64(wi)), pool.NewLimiter(1))
			})
			if err != nil {
				return 0, err
			}
			runs += 2 * mc
		}
	}
	return runs, nil
}
