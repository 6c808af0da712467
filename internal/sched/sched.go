// Package sched implements the system-level use case of §7.2:
// interference-aware job scheduling on a rack-scale memory pool.
//
// Two layers are provided. The first reproduces the paper's Figure 13
// protocol exactly: a profiled workload runs against background pool
// interference whose level re-rolls uniformly at random every Period
// seconds; the baseline scheduler draws from LoI 0–50% while the
// interference-aware scheduler, which keeps interference-inducing jobs off
// the shared pool, draws from LoI 0–20%. One hundred runs per configuration
// yield the five-number summaries of the figure.
//
// The second layer is an event-driven rack co-location simulator: a queue of
// profiled jobs is placed onto the nodes of a rack that share one memory
// pool, each running job injecting its own remote traffic onto the link.
// A placement policy decides which queued job starts when a node frees; the
// interference-aware policy uses the jobs' interference coefficients (the
// §6.2 hint the paper proposes adding to job descriptions) to avoid
// co-locating high-pressure jobs with sensitive ones.
//
// The Monte-Carlo sweeps are embarrassingly parallel and deterministic at
// the same time: every simulated run owns the RNG substream of its run
// index (stats.RNG.Stream), so DistributionLimited and CompareLimited
// produce byte-identical results whether executed sequentially or across a
// worker pool of any size.
package sched

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/machine"
	"repro/internal/pool"
	"repro/internal/stats"
)

// Interference describes the §7.2 background interference process: the level
// of interference is re-rolled uniformly in [0, MaxLoI] every Period seconds.
type Interference struct {
	// MaxLoI is the top of the uniform LoI range (0.5 baseline, 0.2 aware).
	MaxLoI float64
	// Period is the re-roll interval in seconds (60 in the paper).
	Period float64
}

// Baseline is the paper's random scheduler: LoI re-rolled in 0–50%.
func Baseline() Interference { return Interference{MaxLoI: 0.5, Period: 60} }

// Aware is the paper's interference-aware scheduler: LoI capped at 20%.
func Aware() Interference { return Interference{MaxLoI: 0.2, Period: 60} }

// SimulateRun executes one run of the profiled phases under the interference
// process, advancing the piecewise-constant interference level at every
// Period boundary. Within a constant-LoI window the phase progresses at rate
// 1/T(LoI); the run time is the total simulated wall clock.
//
// Distributions of many runs over the same (cfg, phases) should go through
// DistributionLimited/CompareLimited, which build the phase evaluator once
// and share it across runs instead of paying the timing-model setup per run.
func SimulateRun(cfg machine.Config, phases []machine.PhaseStats, pol Interference, rng *stats.RNG) float64 {
	return simulateRun(machine.NewEvaluator(cfg, phases), pol, rng)
}

// simulateRun is SimulateRun on a prebuilt evaluator: the Monte-Carlo hot
// path. The evaluator returns bit-identical times to Config.PhaseTime, so
// the simulated wall clock matches the direct implementation exactly.
func simulateRun(ev *machine.Evaluator, pol Interference, rng *stats.RNG) float64 {
	if pol.Period <= 0 {
		pol.Period = 60
	}
	now := 0.0
	loi := rng.Float64() * pol.MaxLoI
	nextRoll := pol.Period
	for pi, n := 0, ev.Len(); pi < n; pi++ {
		remaining := 1.0 // fraction of the phase left
		for remaining > 1e-12 {
			t := ev.PhaseTime(pi, loi)
			if t <= 0 {
				break
			}
			finish := remaining * t
			if now+finish <= nextRoll {
				now += finish
				remaining = 0
				break
			}
			// Progress until the next interference re-roll.
			dt := nextRoll - now
			remaining -= dt / t
			now = nextRoll
			loi = rng.Float64() * pol.MaxLoI
			nextRoll += pol.Period
		}
	}
	return now
}

// DistributionLimited runs n independent simulations, drawing workers from
// a shared concurrency limiter (nil runs sequentially) so callers that are
// themselves part of a parallel sweep (the Figure 13 driver) stay inside
// one global budget. Each run i owns the deterministic RNG substream
// stats.NewRNG(seed).Stream(i), so times[i] depends only on (seed, i): the
// returned slice is byte-identical for any limiter width.
func DistributionLimited(cfg machine.Config, phases []machine.PhaseStats, pol Interference, n int, seed uint64, l *pool.Limiter) []float64 {
	// Substreams derives all n substream states in one O(n) pass over the
	// jump chain and one allocation; substream i is identical to
	// stats.NewRNG(seed).Stream(i). The phase evaluator is built once and
	// shared read-only by every run.
	rngs := stats.NewRNG(seed).Substreams(n)
	times := make([]float64, n)
	ev := machine.NewEvaluator(cfg, phases)
	l.ForEach(n, func(i int) {
		times[i] = simulateRun(ev, pol, &rngs[i])
	})
	return times
}

// Summary compares baseline and interference-aware distributions for one
// workload (one panel of Figure 13).
type Summary struct {
	Workload string
	Baseline stats.FiveNum
	Aware    stats.FiveNum
	// MeanSpeedup is mean_baseline/mean_aware - 1.
	MeanSpeedup float64
	// P75Reduction is 1 - q3_aware/q3_baseline (the paper's variability
	// measure: the decrease of the 75th percentile).
	P75Reduction float64
}

// CompareContext is CompareLimited gated by ctx: once ctx is done no
// further Monte-Carlo run starts, and the call returns ctx.Err() with a
// zero Summary. The uncancelled summary is byte-identical to
// CompareLimited's for any limiter width.
func CompareContext(ctx context.Context, workload string, cfg machine.Config, phases []machine.PhaseStats, n int, seed uint64, l *pool.Limiter) (Summary, error) {
	cl := l.WithContext(ctx)
	s := CompareLimited(workload, cfg, phases, n, seed, cl)
	if err := cl.Err(); err != nil {
		return Summary{}, err
	}
	return s, nil
}

// CompareLimited runs the Figure 13 protocol: n runs under each
// scheduler, drawing workers from a shared concurrency limiter (nil runs
// sequentially). The summary is byte-identical for any limiter width.
func CompareLimited(workload string, cfg machine.Config, phases []machine.PhaseStats, n int, seed uint64, l *pool.Limiter) Summary {
	base := DistributionLimited(cfg, phases, Baseline(), n, seed, l)
	aware := DistributionLimited(cfg, phases, Aware(), n, seed+1, l)
	s := Summary{
		Workload: workload,
		Baseline: stats.FiveNumber(base),
		Aware:    stats.FiveNumber(aware),
	}
	mb, ma := stats.Mean(base), stats.Mean(aware)
	if ma > 0 {
		s.MeanSpeedup = mb/ma - 1
	}
	if s.Baseline.Q3 > 0 {
		s.P75Reduction = 1 - s.Aware.Q3/s.Baseline.Q3
	}
	return s
}

// ---------------------------------------------------------------------------
// Rack-level co-location simulator
// ---------------------------------------------------------------------------

// Job is one schedulable unit: a profiled workload plus the §6.2 hints a
// user would attach to the submission.
type Job struct {
	// Name identifies the job.
	Name string
	// Phases is the profiled execution (on the pooled configuration the
	// rack provides).
	Phases []machine.PhaseStats
	// IC is the interference coefficient hint (induced interference).
	IC float64
	// Sensitivity is 1 - relative performance at LoI=50% (0 = insensitive).
	Sensitivity float64
}

// InjectedRaw returns the job's time-averaged raw link traffic demand on an
// idle system, in bytes/s — the background pressure it puts on pool peers.
func (j Job) InjectedRaw(cfg machine.Config) float64 {
	var bytes, t float64
	for _, ph := range j.Phases {
		bytes += float64(ph.RemoteBytes) * cfg.Link.Overhead
		t += cfg.PhaseTime(ph, 0)
	}
	if t <= 0 {
		return 0
	}
	return bytes / t
}

// IdleTime returns the job's run time on an idle system.
func (j Job) IdleTime(cfg machine.Config) float64 { return cfg.RunTime(j.Phases, 0) }

// Policy selects the next queued job for a freed node.
type Policy int

const (
	// FIFO starts jobs in arrival order regardless of interference.
	FIFO Policy = iota
	// InterferenceAware starts the queued job with the lowest predicted
	// mutual-interference cost against the currently running set, using
	// the submitted IC and sensitivity hints: pairing a pressure-inducing
	// job (high IC) with a sensitive one — or two pressure-inducing jobs
	// with each other — is what the paper's aware scheduler prevents.
	InterferenceAware
)

// String names the policy.
func (p Policy) String() string {
	if p == InterferenceAware {
		return "interference-aware"
	}
	return "fifo"
}

// RackConfig describes one rack of Figure 2.
type RackConfig struct {
	// Nodes is the number of compute nodes sharing the pool.
	Nodes int
	// Machine is the per-node platform (link = the shared pool link of the
	// node; pool pressure is the sum of co-runners' injected traffic).
	Machine machine.Config
}

// JobResult records one completed job.
type JobResult struct {
	Name string
	// Start and End are simulated times.
	Start, End float64
	// IdleTime is the interference-free run time, so Slowdown can be
	// derived: End-Start vs IdleTime.
	IdleTime float64
}

// Slowdown is the job's stretch relative to an idle system.
func (r JobResult) Slowdown() float64 {
	if r.IdleTime <= 0 {
		return 1
	}
	return (r.End - r.Start) / r.IdleTime
}

// ScheduleResult is the outcome of one rack simulation.
type ScheduleResult struct {
	Policy   Policy
	Jobs     []JobResult
	Makespan float64
}

// MeanSlowdown averages the per-job slowdowns.
func (s ScheduleResult) MeanSlowdown() float64 {
	if len(s.Jobs) == 0 {
		return 1
	}
	sum := 0.0
	for _, j := range s.Jobs {
		sum += j.Slowdown()
	}
	return sum / float64(len(s.Jobs))
}

// MaxSlowdown is the worst per-job stretch — the tail the aware policy cuts.
func (s ScheduleResult) MaxSlowdown() float64 {
	max := 1.0
	for _, j := range s.Jobs {
		if sl := j.Slowdown(); sl > max {
			max = sl
		}
	}
	return max
}

type runningJob struct {
	job       Job
	node      int
	start     float64
	phase     int     // current phase index
	remaining float64 // fraction of current phase left
}

// Schedule simulates the queue on the rack under the policy. Jobs start in
// queue order (FIFO) or by the interference-aware selection rule; every
// running job sees a pool LoI equal to the sum of its co-runners' injected
// raw traffic over the link peak (clamped to 1). Rates are recomputed at
// every start/completion event.
func Schedule(rc RackConfig, queue []Job, pol Policy) ScheduleResult {
	if rc.Nodes <= 0 {
		rc.Nodes = 2
	}
	pending := append([]Job(nil), queue...)
	var running []*runningJob
	freeNodes := rc.Nodes
	now := 0.0
	res := ScheduleResult{Policy: pol}

	pick := func() int {
		if len(pending) == 0 {
			return -1
		}
		if pol == FIFO {
			return 0
		}
		// Interference-aware: minimize the predicted mutual cost of the
		// candidate against the running set. The candidate's induced
		// pressure (IC-1) hurts sensitive runners, and the runners'
		// induced pressure hurts a sensitive candidate; ties keep queue
		// order.
		cost := func(c Job) float64 {
			sum := 0.0
			for _, r := range running {
				sum += r.job.Sensitivity*(c.IC-1) + c.Sensitivity*(r.job.IC-1)
			}
			return sum
		}
		best := 0
		bestCost := cost(pending[0])
		for i := 1; i < len(pending); i++ {
			if c := cost(pending[i]); c < bestCost-1e-12 {
				best, bestCost = i, c
			}
		}
		return best
	}

	start := func(i int) {
		j := pending[i]
		pending = append(pending[:i], pending[i+1:]...)
		running = append(running, &runningJob{job: j, start: now, remaining: 1})
		freeNodes--
	}

	// loiFor computes the pool interference level job r experiences from its
	// co-runners' idle-rate injected traffic.
	loiFor := func(r *runningJob) float64 {
		bg := 0.0
		for _, o := range running {
			if o != r {
				bg += o.job.InjectedRaw(rc.Machine)
			}
		}
		loi := bg / rc.Machine.Link.PeakTraffic
		return stats.Clamp(loi, 0, 1)
	}

	for len(pending) > 0 || len(running) > 0 {
		for freeNodes > 0 {
			i := pick()
			if i < 0 {
				break
			}
			start(i)
		}
		if len(running) == 0 {
			break // nodes exist but nothing runnable
		}
		// Next event: the earliest phase completion at current rates.
		minDT := -1.0
		for _, r := range running {
			ph := r.job.Phases[r.phase]
			t := rc.Machine.PhaseTime(ph, loiFor(r))
			dt := r.remaining * t
			if minDT < 0 || dt < minDT {
				minDT = dt
			}
		}
		if minDT <= 0 {
			minDT = 1e-9
		}
		// Advance every running job by minDT.
		var still []*runningJob
		for _, r := range running {
			ph := r.job.Phases[r.phase]
			t := rc.Machine.PhaseTime(ph, loiFor(r))
			if t > 0 {
				r.remaining -= minDT / t
			}
			if r.remaining <= 1e-9 {
				r.phase++
				r.remaining = 1
			}
			if r.phase >= len(r.job.Phases) {
				res.Jobs = append(res.Jobs, JobResult{
					Name:     r.job.Name,
					Start:    r.start,
					End:      now + minDT,
					IdleTime: r.job.IdleTime(rc.Machine),
				})
				freeNodes++
			} else {
				still = append(still, r)
			}
		}
		running = still
		now += minDT
	}
	res.Makespan = now
	sort.Slice(res.Jobs, func(i, j int) bool { return res.Jobs[i].Start < res.Jobs[j].Start })
	return res
}

// String summarizes the schedule.
func (s ScheduleResult) String() string {
	return fmt.Sprintf("%s: %d jobs, makespan %.2fs, mean slowdown %.3f, max %.3f",
		s.Policy, len(s.Jobs), s.Makespan, s.MeanSlowdown(), s.MaxSlowdown())
}
