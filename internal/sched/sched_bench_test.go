package sched

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/pool"
	"repro/internal/stats"
)

func benchPhases() []machine.PhaseStats {
	return []machine.PhaseStats{
		{Name: "p1", Flops: 2e11, LocalBytes: 6 << 30, DemandMissLocal: 1 << 19},
		{Name: "p2", Flops: 8e11, LocalBytes: 4 << 30, RemoteBytes: 3 << 30,
			DemandMissLocal: 1 << 18, DemandMissRemote: 1 << 17, StreamMissRemote: 1 << 14},
		{Name: "p3", Flops: 1e11, LocalBytes: 1 << 30, DemandMissLocal: 1 << 16},
	}
}

// BenchmarkDistribution measures the Monte-Carlo scheduler hot path: n
// simulated runs sharing one phase evaluator and one substream slice.
func BenchmarkDistribution(b *testing.B) {
	cfg := machine.Default()
	phases := benchPhases()
	l := pool.NewLimiter(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DistributionLimited(cfg, phases, Baseline(), 100, 7, l)
	}
}

// TestDistributionMatchesPerRunSimulate pins the refactoring invariant: the
// evaluator-shared distribution is bit-identical to simulating each run
// independently with the public SimulateRun and per-run Stream substreams.
func TestDistributionMatchesPerRunSimulate(t *testing.T) {
	cfg := machine.Default()
	phases := benchPhases()
	const n, seed = 40, 123
	got := DistributionLimited(cfg, phases, Baseline(), n, seed, nil)
	base := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		want := SimulateRun(cfg, phases, Baseline(), base.Stream(i))
		if got[i] != want {
			t.Fatalf("run %d: distribution %v != per-run SimulateRun %v", i, got[i], want)
		}
	}
}
