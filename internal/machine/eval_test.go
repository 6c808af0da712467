package machine

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/stats"
)

// fuzzPhases builds a deterministic mix of phase shapes: compute-bound,
// local-bandwidth-bound, remote-heavy, latency-bound, and fully empty, so
// both the precomputed fast path (no link traffic) and the full fixed-point
// loop are exercised.
func fuzzPhases(rng *stats.RNG, n int) []PhaseStats {
	phases := make([]PhaseStats, n)
	for i := range phases {
		p := &phases[i]
		p.Name = "f"
		p.Flops = rng.Float64() * 1e12
		p.LocalBytes = uint64(rng.Intn(1 << 30))
		p.DemandMissLocal = uint64(rng.Intn(1 << 20))
		switch i % 3 {
		case 0:
			// Link-free: the loi-independent fast path.
		case 1:
			p.RemoteBytes = uint64(rng.Intn(1 << 30))
			p.DemandMissRemote = uint64(rng.Intn(1 << 20))
			p.StreamMissRemote = uint64(rng.Intn(1 << 16))
		case 2:
			// Remote demand misses without remote payload bytes.
			p.DemandMissRemote = uint64(rng.Intn(1 << 18))
		}
		p.StreamMissLocal = uint64(rng.Intn(1 << 16))
	}
	return phases
}

// TestEvaluatorMatchesPhaseTimeBitExact checks the precomputed evaluator
// returns bit-identical times to Config.PhaseTime across phase shapes,
// interference levels, and config variations — the property that keeps
// golden artifacts byte-identical when the scheduler uses the evaluator.
func TestEvaluatorMatchesPhaseTimeBitExact(t *testing.T) {
	rng := stats.NewRNG(42)
	cfgs := []Config{Default()}
	weird := Default()
	weird.MLP = 0 // PhaseTime clamps this to 1; the evaluator must too
	weird.LatencyBWCoupling = 2.5
	cfgs = append(cfgs, weird)
	zeroPeak := Default()
	zeroPeak.Link.PeakTraffic = 0
	zeroPeak.PeakFlops = 0
	zeroPeak.LocalBandwidth = 0
	cfgs = append(cfgs, zeroPeak)

	lois := []float64{0, 0.05, 0.25, 0.5, 0.9, 1.0}
	for ci, cfg := range cfgs {
		phases := fuzzPhases(rng, 60)
		ev := NewEvaluator(cfg, phases)
		for i, p := range phases {
			for _, loi := range lois {
				want := cfg.PhaseTime(p, loi)
				got := ev.PhaseTime(i, loi)
				if got != want {
					t.Fatalf("cfg %d phase %d loi %g: evaluator %v != PhaseTime %v", ci, i, loi, got, want)
				}
			}
		}
		for _, loi := range lois {
			if got, want := ev.RunTime(loi), cfg.RunTime(phases, loi); got != want {
				t.Fatalf("cfg %d loi %g: evaluator RunTime %v != Config.RunTime %v", ci, loi, got, want)
			}
		}
	}
}

// evalConfigs are the configs of TestEvaluatorMatchesPhaseTimeBitExact:
// the default, one whose MLP PhaseTime clamps and whose coupling is
// strong, and one with every peak zero.
func evalConfigs() []Config {
	weird := Default()
	weird.MLP = 0
	weird.LatencyBWCoupling = 2.5
	zeroPeak := Default()
	zeroPeak.Link.PeakTraffic = 0
	zeroPeak.PeakFlops = 0
	zeroPeak.LocalBandwidth = 0
	return []Config{Default(), weird, zeroPeak}
}

// TestPhaseTimesMatchesPhaseTime holds every lane of PhaseTimes to
// Config.PhaseTime, bit for bit, at every lane count from 1 to Lanes. The
// level sets mix levels whose solves stop at different iterations, so
// converged lanes sit frozen while their neighbours go on iterating.
func TestPhaseTimesMatchesPhaseTime(t *testing.T) {
	rng := stats.NewRNG(99)
	mixed := []float64{0, 0.05, 0.5, 0.9, 1}
	for ci, cfg := range evalConfigs() {
		phases := fuzzPhases(rng, 30)
		ev := NewEvaluator(cfg, phases)
		for lanes := 1; lanes <= Lanes; lanes++ {
			lois, ts := make([]float64, lanes), make([]float64, lanes)
			for rep := 0; rep < 10; rep++ {
				for k := range lois {
					if rng.Intn(2) == 0 {
						lois[k] = mixed[rng.Intn(len(mixed))]
					} else {
						lois[k] = rng.Float64()
					}
				}
				for i, p := range phases {
					ev.PhaseTimes(i, lois, ts)
					for k, loi := range lois {
						if want := cfg.PhaseTime(p, loi); math.Float64bits(ts[k]) != math.Float64bits(want) {
							t.Fatalf("cfg %d phase %d lanes %v: lane %d = %v, PhaseTime(%v) = %v",
								ci, i, lois, k, ts[k], loi, want)
						}
					}
				}
			}
		}
	}
}

// FuzzPhaseTimes derives phases and a config from a fuzzed seed and holds
// PhaseTimes on 1 to Lanes fuzzed levels, any float64, to Config.PhaseTime
// and to the one-lane call, bit for bit, so NaN results compare equal.
//
// `go test` replays the seed corpus; `go test -fuzz FuzzPhaseTimes
// ./internal/machine` explores new inputs.
func FuzzPhaseTimes(f *testing.F) {
	f.Add(uint64(1), uint8(7), 0.0, 0.05, 0.5, 0.9, 1.0, 0.25, 0.3, 0.45)
	f.Add(uint64(2), uint8(0), 0.2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint64(3), uint8(4), -1.0, 2.0, 1e300, math.Inf(1), math.NaN(), 0.1, 0.2, 0.3)
	f.Add(uint64(0xdeadbeef), uint8(5), 0.49, 0.01, 0.33, 0.17, 0.5, 0.0, 0.08, 0.44)
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint8, l0, l1, l2, l3, l4, l5, l6, l7 float64) {
		rng := stats.NewRNG(seed)
		cfg := fuzzConfig(rng)
		phases := fuzzPhases(rng, 6)
		lois := []float64{l0, l1, l2, l3, l4, l5, l6, l7}[:int(nRaw)%Lanes+1]
		ev := NewEvaluator(cfg, phases)
		ts := make([]float64, len(lois))
		for i, p := range phases {
			ev.PhaseTimes(i, lois, ts)
			for k, loi := range lois {
				got := math.Float64bits(ts[k])
				want := math.Float64bits(cfg.PhaseTime(p, loi))
				one := math.Float64bits(ev.PhaseTime(i, loi))
				if got != want || got != one {
					t.Fatalf("phase %d lanes %v: lane %d = %#x, PhaseTime(%v) = %#x, one lane %#x",
						i, lois, k, got, loi, want, one)
				}
			}
		}
	})
}

// fuzzConfig scales each timing-model field of the default config by a
// random factor between 1/16 and 16, or keeps or zeroes it.
func fuzzConfig(rng *stats.RNG) Config {
	c := Default()
	for _, x := range []*float64{
		&c.PeakFlops, &c.LocalBandwidth, &c.LocalLatency, &c.MLP,
		&c.StreamDemandPenalty, &c.LatencyBWCoupling, &c.Link.DataBandwidth,
		&c.Link.PeakTraffic, &c.Link.Latency, &c.Link.DelaySlope, &c.Link.DemandDelaySlope,
	} {
		switch rng.Intn(8) {
		case 0:
			*x = 0
		case 1: // keep the default
		default:
			*x *= math.Exp2(rng.Float64()*8 - 4)
		}
	}
	return c
}

// TestEvaluatorConcurrentUse hammers one evaluator from many goroutines
// (run under -race) and checks results stay bit-identical to PhaseTime.
func TestEvaluatorConcurrentUse(t *testing.T) {
	cfg := Default()
	phases := fuzzPhases(stats.NewRNG(7), 12)
	ev := NewEvaluator(cfg, phases)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			lois := []float64{0, 0.1 * float64(g), 0.6}
			for rep := 0; rep < 50; rep++ {
				for i, p := range phases {
					for _, loi := range lois {
						if ev.PhaseTime(i, loi) != cfg.PhaseTime(p, loi) {
							done <- errMismatch
							return
						}
					}
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = errorString("evaluator result diverged from PhaseTime under concurrency")

type errorString string

func (e errorString) Error() string { return string(e) }

// level2Phases are the Level-2 phases of HPL, Hypre and XSBench at scale
// 1 and local fraction 0.5 on the baseline platform: the phases Figure 13
// and every sweep cell simulate.
var level2Phases = [][]PhaseStats{
	{
		{Name: "p1", Flops: 331776, LocalBytes: 1773568, RemoteBytes: 885504, DemandMissLocal: 1299, DemandMissRemote: 651},
		{Name: "p2", Flops: 1.27899552e+08, LocalBytes: 7907200, RemoteBytes: 11169408, DemandMissLocal: 10086, DemandMissRemote: 11971, StreamMissRemote: 15},
	},
	{
		{Name: "p1", Flops: 442368, LocalBytes: 1769472, DemandMissLocal: 1296},
		{Name: "p2", Flops: 2.7648e+06, LocalBytes: 10616832, RemoteBytes: 13271040, DemandMissLocal: 7776, DemandMissRemote: 9723},
	},
	{
		{Name: "p1", Flops: 576000, LocalBytes: 14973184, RemoteBytes: 14979072, DemandMissLocal: 10968, DemandMissRemote: 10971},
		{Name: "p2", Flops: 2.304e+07, LocalBytes: 183518208, RemoteBytes: 3149888, DemandMissLocal: 2858105, DemandMissRemote: 36861, StreamMissLocal: 7687, StreamMissRemote: 12268},
	},
}

// BenchmarkPhaseTimes times every Level-2 phase at 200 interference levels
// in 0–0.5, one level at a time and Lanes at a time.
func BenchmarkPhaseTimes(b *testing.B) {
	cfg := Default()
	rng := stats.NewRNG(5)
	lois := make([]float64, 200)
	for i := range lois {
		lois[i] = rng.Float64() * 0.5
	}
	evs := make([]*Evaluator, len(level2Phases))
	for i, phases := range level2Phases {
		evs[i] = NewEvaluator(cfg, phases)
	}
	ts := make([]float64, len(lois))
	for _, lanes := range []int{1, Lanes} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			for b.Loop() {
				for _, ev := range evs {
					for i := 0; i < ev.Len(); i++ {
						for lo := 0; lo < len(lois); lo += lanes {
							hi := min(lo+lanes, len(lois))
							ev.PhaseTimes(i, lois[lo:hi], ts[lo:hi])
						}
					}
				}
			}
		})
	}
}

func BenchmarkPhaseTime(b *testing.B) {
	cfg := Default()
	phases := fuzzPhases(stats.NewRNG(3), 16)
	b.Run("config", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg.PhaseTime(phases[i%len(phases)], 0.3)
		}
	})
	b.Run("evaluator", func(b *testing.B) {
		ev := NewEvaluator(cfg, phases)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ev.PhaseTime(i%len(phases), 0.3)
		}
	})
}
