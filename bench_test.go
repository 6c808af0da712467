// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section. Each benchmark regenerates the corresponding
// artifact through the same driver the memdis CLI uses, so `go test
// -bench=.` reproduces every row and series the paper reports.
//
// The suite is shared across iterations of a single benchmark (the
// profiler's profile caches mirror the paper's profile-once workflow), but
// each benchmark function constructs its own suite so figures can be
// benchmarked in isolation.
//
// Pass -args -j N to fan each driver out over N workers (0 = all cores),
// e.g. `go test -bench Figure13 -args -j 8`; rendered artifacts are
// byte-identical for any worker count.
package repro

import (
	"flag"
	"testing"

	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/pool"
)

// benchWorkers is the bench-harness counterpart of `memdis -j`.
var benchWorkers = flag.Int("j", 1, "worker-pool width for experiment drivers (0 = all cores)")

// benchExperiment runs one experiment driver per iteration and sanity-checks
// that it rendered a non-empty artifact.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	s := experiments.NewSuite(machine.Default())
	s.Runs = 100 // the paper's Figure 13 protocol
	s.Workers = pool.Workers(*benchWorkers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := s.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		if out := r.Render(); len(out) == 0 {
			b.Fatalf("%s rendered empty", id)
		}
	}
}

// BenchmarkFigure1 regenerates the memory-evolution timeline (Figure 1).
func BenchmarkFigure1(b *testing.B) { benchExperiment(b, "figure1") }

// BenchmarkTable1 regenerates the Top-10 memory cost table (Table 1).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable2 regenerates the workload inventory with measured 1:2:4
// footprints (Table 2).
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkFigure5 regenerates the per-phase roofline placement (Figure 5).
func BenchmarkFigure5(b *testing.B) { benchExperiment(b, "figure5") }

// BenchmarkFigure6 regenerates the bandwidth-capacity scaling CDFs at three
// input scales (Figure 6).
func BenchmarkFigure6(b *testing.B) { benchExperiment(b, "figure6") }

// BenchmarkFigure7 regenerates the prefetch-on/off traffic timelines
// (Figure 7).
func BenchmarkFigure7(b *testing.B) { benchExperiment(b, "figure7") }

// BenchmarkFigure8 regenerates the prefetch accuracy/coverage/excess/gain
// summary (Figure 8).
func BenchmarkFigure8(b *testing.B) { benchExperiment(b, "figure8") }

// BenchmarkFigure9 regenerates the remote-access-ratio panels with the
// R_cap/R_BW references (Figure 9).
func BenchmarkFigure9(b *testing.B) { benchExperiment(b, "figure9") }

// BenchmarkFigure10 regenerates the interference-sensitivity panels
// (Figure 10).
func BenchmarkFigure10(b *testing.B) { benchExperiment(b, "figure10") }

// BenchmarkFigure11 regenerates the LBench validation panels (Figure 11).
func BenchmarkFigure11(b *testing.B) { benchExperiment(b, "figure11") }

// BenchmarkFigure12 regenerates the BFS data-placement case study
// (Figure 12).
func BenchmarkFigure12(b *testing.B) { benchExperiment(b, "figure12") }

// BenchmarkFigure13 regenerates the interference-aware scheduling study
// (Figure 13).
func BenchmarkFigure13(b *testing.B) { benchExperiment(b, "figure13") }
