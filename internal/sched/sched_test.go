package sched

import (
	"context"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/pool"
	"repro/internal/stats"
)

// phaseRemote builds a synthetic phase with the given remote traffic share.
func phaseRemote(totalBytes uint64, remoteFrac float64, flops float64) machine.PhaseStats {
	remote := uint64(float64(totalBytes) * remoteFrac)
	return machine.PhaseStats{
		Name:             "p2",
		Flops:            flops,
		LocalBytes:       totalBytes - remote,
		RemoteBytes:      remote,
		DemandMissLocal:  (totalBytes - remote) / 64 / 4,
		DemandMissRemote: remote / 64 / 4,
	}
}

func testConfig() machine.Config { return machine.Default() }

// mcRuns scales a Monte-Carlo run count down in the quick tier: the
// simulations are analytic and cheap, but the tiered harness keeps every
// package's -short cost proportional to its signal.
func mcRuns(n int) int {
	if testing.Short() {
		if n = n / 5; n < 10 {
			n = 10
		}
	}
	return n
}

func TestSimulateRunIdleMatchesModel(t *testing.T) {
	cfg := testConfig()
	ph := phaseRemote(1<<30, 0.5, 1e9)
	rng := stats.NewRNG(1)
	got := SimulateRun(cfg, []machine.PhaseStats{ph}, Interference{MaxLoI: 0, Period: 60}, rng)
	want := cfg.PhaseTime(ph, 0)
	if rel := (got - want) / want; rel > 1e-6 || rel < -1e-6 {
		t.Fatalf("idle simulation %.6g != model %.6g", got, want)
	}
}

func TestSimulateRunInterferenceSlowsDown(t *testing.T) {
	cfg := testConfig()
	ph := phaseRemote(8<<30, 0.8, 1e9)
	idle := SimulateRun(cfg, []machine.PhaseStats{ph}, Interference{MaxLoI: 0}, stats.NewRNG(1))
	loaded := SimulateRun(cfg, []machine.PhaseStats{ph}, Interference{MaxLoI: 0.5}, stats.NewRNG(1))
	if loaded <= idle {
		t.Fatalf("interference should slow the run: idle=%.4g loaded=%.4g", idle, loaded)
	}
}

func TestSimulateRunCrossesRerollBoundaries(t *testing.T) {
	cfg := testConfig()
	// A run much longer than one period must survive many re-rolls.
	ph := phaseRemote(64<<30, 0.7, 1e9)
	pol := Interference{MaxLoI: 0.5, Period: 1} // tiny period: many boundaries
	got := SimulateRun(cfg, []machine.PhaseStats{ph}, pol, stats.NewRNG(7))
	idle := cfg.PhaseTime(ph, 0)
	if got < idle {
		t.Fatalf("run under interference finished faster than idle: %.4g < %.4g", got, idle)
	}
	if got > idle*3 {
		t.Fatalf("implausible slowdown %.2fx", got/idle)
	}
}

func TestDistributionDeterministicPerSeed(t *testing.T) {
	cfg := testConfig()
	ph := []machine.PhaseStats{phaseRemote(1<<30, 0.5, 1e9)}
	a := DistributionLimited(cfg, ph, Baseline(), 20, 42, nil)
	b := DistributionLimited(cfg, ph, Baseline(), 20, 42, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := DistributionLimited(cfg, ph, Baseline(), 20, 43, nil)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestCompareAwareImprovesSensitiveJob(t *testing.T) {
	cfg := testConfig()
	// High remote share, low AI: the Hypre-like sensitive case.
	ph := []machine.PhaseStats{phaseRemote(8<<30, 0.8, 1e8)}
	s := CompareLimited("hypre-like", cfg, ph, mcRuns(100), 5, nil)
	if s.MeanSpeedup <= 0 {
		t.Errorf("aware scheduling should speed up a sensitive job, got %.4f", s.MeanSpeedup)
	}
	if s.P75Reduction <= 0 {
		t.Errorf("aware scheduling should cut the 75th percentile, got %.4f", s.P75Reduction)
	}
	if s.Aware.Max-s.Aware.Min >= s.Baseline.Max-s.Baseline.Min {
		t.Errorf("aware range %.4g should be tighter than baseline %.4g",
			s.Aware.Max-s.Aware.Min, s.Baseline.Max-s.Baseline.Min)
	}
}

func TestCompareInsensitiveJobUnaffected(t *testing.T) {
	cfg := testConfig()
	// No remote traffic: interference cannot matter.
	ph := []machine.PhaseStats{phaseRemote(1<<30, 0, 1e9)}
	s := CompareLimited("local-only", cfg, ph, mcRuns(50), 9, nil)
	if s.MeanSpeedup > 0.001 {
		t.Errorf("local-only job should see ~0 speedup, got %.4f", s.MeanSpeedup)
	}
}

func TestJobInjectedRawScalesWithRemoteTraffic(t *testing.T) {
	cfg := testConfig()
	lo := Job{Name: "lo", Phases: []machine.PhaseStats{phaseRemote(1<<30, 0.1, 1e9)}}
	hi := Job{Name: "hi", Phases: []machine.PhaseStats{phaseRemote(1<<30, 0.9, 1e9)}}
	if lo.InjectedRaw(cfg) >= hi.InjectedRaw(cfg) {
		t.Fatalf("more remote traffic must inject more: lo=%.3g hi=%.3g",
			lo.InjectedRaw(cfg), hi.InjectedRaw(cfg))
	}
}

func TestScheduleRunsAllJobs(t *testing.T) {
	cfg := testConfig()
	rc := RackConfig{Nodes: 2, Machine: cfg}
	var queue []Job
	for i := 0; i < 5; i++ {
		queue = append(queue, Job{
			Name:   string(rune('a' + i)),
			Phases: []machine.PhaseStats{phaseRemote(1<<28, 0.5, 1e8)},
			IC:     1 + float64(i)*0.1,
		})
	}
	res := Schedule(rc, queue, FIFO)
	if len(res.Jobs) != 5 {
		t.Fatalf("completed %d/5 jobs", len(res.Jobs))
	}
	if res.Makespan <= 0 {
		t.Fatal("makespan must be positive")
	}
	for _, j := range res.Jobs {
		if j.End <= j.Start {
			t.Errorf("job %s has end %.4g <= start %.4g", j.Name, j.End, j.Start)
		}
		if j.Slowdown() < 1-1e-9 {
			t.Errorf("job %s ran faster than idle: slowdown %.4f", j.Name, j.Slowdown())
		}
	}
}

func TestScheduleRespectsNodeCount(t *testing.T) {
	cfg := testConfig()
	rc := RackConfig{Nodes: 1, Machine: cfg}
	queue := []Job{
		{Name: "a", Phases: []machine.PhaseStats{phaseRemote(1<<28, 0.5, 1e8)}},
		{Name: "b", Phases: []machine.PhaseStats{phaseRemote(1<<28, 0.5, 1e8)}},
	}
	res := Schedule(rc, queue, FIFO)
	// With one node the jobs must be serialized: second starts at first's end.
	if len(res.Jobs) != 2 {
		t.Fatalf("completed %d/2", len(res.Jobs))
	}
	if res.Jobs[1].Start < res.Jobs[0].End-1e-9 {
		t.Errorf("jobs overlapped on a single node: %v", res.Jobs)
	}
	// Serialized jobs see no co-runner interference.
	for _, j := range res.Jobs {
		if j.Slowdown() > 1+1e-6 {
			t.Errorf("job %s slowed down with no co-runner: %.4f", j.Name, j.Slowdown())
		}
	}
}

func TestScheduleAwareBeatsFIFOOnMixedQueue(t *testing.T) {
	cfg := testConfig()
	rc := RackConfig{Nodes: 2, Machine: cfg}
	// Two loud pool-heavy jobs (high IC, also sensitive — the Hypre/NekRS
	// regime) and two quiet mostly-local jobs. FIFO co-locates the two
	// loud jobs; the aware policy interleaves loud with quiet.
	loud := func(n string) Job {
		return Job{Name: n, Phases: []machine.PhaseStats{phaseRemote(4<<30, 0.9, 1e8)}, IC: 1.6, Sensitivity: 0.15}
	}
	quiet := func(n string) Job {
		return Job{Name: n, Phases: []machine.PhaseStats{phaseRemote(4<<30, 0.1, 1e8)}, IC: 1.05, Sensitivity: 0.05}
	}
	queue := []Job{loud("l1"), loud("l2"), quiet("q1"), quiet("q2")}
	fifo := Schedule(rc, queue, FIFO)
	aware := Schedule(rc, queue, InterferenceAware)
	if aware.MaxSlowdown() >= fifo.MaxSlowdown() {
		t.Errorf("aware max slowdown %.4f should beat fifo %.4f",
			aware.MaxSlowdown(), fifo.MaxSlowdown())
	}
	if aware.MeanSlowdown() > fifo.MeanSlowdown()+1e-9 {
		t.Errorf("aware mean slowdown %.4f should not exceed fifo %.4f",
			aware.MeanSlowdown(), fifo.MeanSlowdown())
	}
}

func TestScheduleEmptyQueue(t *testing.T) {
	res := Schedule(RackConfig{Nodes: 2, Machine: testConfig()}, nil, FIFO)
	if len(res.Jobs) != 0 || res.Makespan != 0 {
		t.Fatalf("empty queue should be a no-op: %+v", res)
	}
}

func TestPolicyString(t *testing.T) {
	if FIFO.String() != "fifo" || InterferenceAware.String() != "interference-aware" {
		t.Fatal("policy names wrong")
	}
}

// Property: simulated run time is always at least the idle-model time and at
// most the fully-loaded-model time, for any remote share and LoI cap.
func TestSimulateRunBoundedProperty(t *testing.T) {
	cfg := testConfig()
	f := func(remotePct uint8, maxLoIPct uint8, seed uint16) bool {
		remoteFrac := float64(remotePct%101) / 100
		maxLoI := float64(maxLoIPct%51) / 100
		ph := phaseRemote(1<<29, remoteFrac, 5e8)
		phs := []machine.PhaseStats{ph}
		got := SimulateRun(cfg, phs, Interference{MaxLoI: maxLoI, Period: 0.5}, stats.NewRNG(uint64(seed)+1))
		lo := cfg.PhaseTime(ph, 0)
		hi := cfg.PhaseTime(ph, maxLoI)
		return got >= lo*(1-1e-9) && got <= hi*(1+1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDistributionParallelByteIdentical(t *testing.T) {
	cfg := testConfig()
	ph := []machine.PhaseStats{phaseRemote(1<<30, 0.5, 1e9)}
	want := DistributionLimited(cfg, ph, Baseline(), 40, 42, nil)
	for _, workers := range []int{2, 4, 8, 16} {
		got := DistributionLimited(cfg, ph, Baseline(), 40, 42, pool.NewLimiter(workers))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: run %d diverged: %v vs %v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestCompareParallelByteIdentical(t *testing.T) {
	cfg := testConfig()
	ph := []machine.PhaseStats{phaseRemote(8<<30, 0.8, 1e8)}
	want := CompareLimited("x", cfg, ph, 60, 5, nil)
	for _, workers := range []int{2, 4, 8, 16} {
		if got := CompareLimited("x", cfg, ph, 60, 5, pool.NewLimiter(workers)); got != want {
			t.Fatalf("workers=%d: summary diverged:\nseq: %+v\npar: %+v", workers, want, got)
		}
	}
}

// TestCompareContext pins the ctx-first entry point: a pre-cancelled
// context starts no run and yields context.Canceled with a zero Summary,
// and an uncancelled call equals CompareLimited at every limiter width.
func TestCompareContext(t *testing.T) {
	cfg := testConfig()
	ph := []machine.PhaseStats{phaseRemote(8<<30, 0.8, 1e8)}
	want := CompareLimited("x", cfg, ph, 60, 5, nil)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := CompareContext(ctx, "x", cfg, ph, 60, 5, pool.NewLimiter(4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}
	if s != (Summary{}) {
		t.Fatalf("pre-cancelled: summary = %+v, want zero", s)
	}

	for i, l := range []*pool.Limiter{nil, pool.NewLimiter(1), pool.NewLimiter(8)} {
		got, err := CompareContext(context.Background(), "x", cfg, ph, 60, 5, l)
		if err != nil || got != want {
			t.Fatalf("limiter %d of [nil, 1, 8]: summary %+v, err %v; want %+v", i, got, err, want)
		}
	}
}

// Property: runs of a distribution are independent draws — permuting the
// run count must not change the values of earlier runs (substreams are
// keyed by run index, not consumed from one shared stream), at any width.
func TestDistributionPrefixStable(t *testing.T) {
	cfg := testConfig()
	ph := []machine.PhaseStats{phaseRemote(1<<30, 0.6, 1e9)}
	short := DistributionLimited(cfg, ph, Baseline(), 10, 7, nil)
	for _, workers := range []int{1, 2, 4, 8, 16} {
		long := DistributionLimited(cfg, ph, Baseline(), 30, 7, pool.NewLimiter(workers))
		for i := range short {
			if short[i] != long[i] {
				t.Fatalf("workers=%d: run %d changed when n grew: %v vs %v", workers, i, short[i], long[i])
			}
		}
	}
}
