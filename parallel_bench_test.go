// Benchmarks for the concurrent experiment engine: the full `memdis all`
// artifact regeneration, sequential versus fanned out over a worker pool.
// Each iteration constructs a fresh suite so the profile caches start cold,
// exactly like one CLI invocation; on a multi-core machine the parallel
// variants improve wall-clock roughly with the core count until the
// longest single driver dominates.
//
//	go test -bench SuiteAll -benchtime 1x
package repro

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/machine"
)

// BenchmarkSuiteAllSequential regenerates all twelve artifacts one driver
// at a time — the pre-engine `memdis all` behaviour.
func BenchmarkSuiteAllSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(machine.Default())
		if got := len(s.All()); got != len(experiments.IDs) {
			b.Fatalf("rendered %d artifacts", got)
		}
	}
}

// BenchmarkSuiteAllParallel regenerates all twelve artifacts through the
// concurrent engine at several worker counts — `memdis all -j N`.
func BenchmarkSuiteAllParallel(b *testing.B) {
	counts := []int{2, 4, runtime.GOMAXPROCS(0)}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("j=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := experiments.NewSuite(machine.Default())
				rs, err := s.AllParallelContext(context.Background(), workers)
				if err != nil {
					b.Fatal(err)
				}
				if got := len(rs); got != len(experiments.IDs) {
					b.Fatalf("rendered %d artifacts", got)
				}
			}
		})
	}
}

// BenchmarkSchedulerRuns measures the Figure 13 Monte-Carlo layer alone:
// 100 simulated runs per scheduler for one profiled workload, sequential
// versus substream-parallel.
func BenchmarkSchedulerRuns(b *testing.B) {
	s := experiments.NewSuite(machine.Default())
	entry := s.Entries[1] // Hypre: the paper's most scheduler-sensitive code
	rep := s.Profiler.Level2(entry, 1, 0.50)
	cfg := s.Profiler.ConfigForLocalFraction(entry, 1, 0.50)
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("j=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := CompareSchedulers(context.Background(), entry.Name, cfg, rep.Phase2Stats, 100, 1017, workers)
				if err != nil {
					b.Fatal(err)
				}
				benchSummary = s
			}
		})
	}
}

var benchSummary ScheduleSummary
