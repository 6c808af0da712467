package sched

import (
	"math"
	"testing"

	"repro/internal/machine"
	"repro/internal/pool"
	"repro/internal/stats"
)

// refSimulateRun is one run simulated alone on Config.PhaseTime: the
// per-run loop the lock-step simulateRuns replaced, kept as the reference
// TestDistributionMatchesReference holds DistributionLimited to. It also
// returns how many re-rolls the run crossed. Its logic must not change.
func refSimulateRun(cfg machine.Config, phases []machine.PhaseStats, pol Interference, rng *stats.RNG) (float64, int) {
	if pol.Period <= 0 {
		pol.Period = 60
	}
	rolls := 0
	now := 0.0
	loi := rng.Float64() * pol.MaxLoI
	nextRoll := pol.Period
	for _, p := range phases {
		remaining := 1.0 // fraction of the phase left
		for remaining > 1e-12 {
			t := cfg.PhaseTime(p, loi)
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
			rolls++
		}
	}
	return now, rolls
}

// TestDistributionMatchesReference holds the lock-step runs to runs
// simulated alone, run for run and bit for bit. The period is short
// against the phases, so runs cross different numbers of re-rolls and
// leave a phase in different rounds of their block; one phase takes no
// time. It covers blocks of one run, partial blocks, full blocks and a
// distribution of the paper's size, sequentially and on limiters.
func TestDistributionMatchesReference(t *testing.T) {
	cfg := machine.Default()
	phases := []machine.PhaseStats{
		phaseRemote(1<<30, 0.5, 1e9),
		{Name: "empty"},
		phaseRemote(8<<30, 0.8, 1e8),
		phaseRemote(1<<28, 0, 5e9),
		phaseRemote(2<<30, 0.3, 2e9),
	}
	pol := Interference{MaxLoI: 1, Period: 0.1 * cfg.PhaseTime(phases[0], 0)}
	for _, n := range []int{1, 7, 8, 9, 100} {
		want := make([]float64, n)
		rolls := map[int]bool{}
		base := stats.NewRNG(uint64(n))
		for i := range want {
			var r int
			want[i], r = refSimulateRun(cfg, phases, pol, base.Stream(i))
			rolls[r] = true
		}
		if n >= 7 && len(rolls) < 3 {
			t.Fatalf("n=%d: runs crossed only %d distinct re-roll counts; the period does not spread them", n, len(rolls))
		}
		for li, l := range []*pool.Limiter{nil, pool.NewLimiter(1), pool.NewLimiter(4)} {
			got := DistributionLimited(cfg, phases, pol, n, uint64(n), l)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d limiter %d of [nil, 1, 4]: run %d = %v, simulated alone %v", n, li, i, got[i], want[i])
				}
			}
		}
	}
}
