package sweep

import (
	"context"
	"testing"
	"time"

	"repro/internal/pool"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// TestIsolatedMatchesShared pins the tentpole correctness claim of the
// dependency-keyed profile cache: a campaign executed with cross-cell
// sharing renders byte-identical artifacts to the isolated (pre-sharing)
// mode, at one worker and at eight — sharing saves work, never changes
// results. It also asserts the sharing actually happened: the shared run
// records cross-cell cache hits, and strictly fewer computes (misses) than
// the campaign has profile lookups.
func TestIsolatedMatchesShared(t *testing.T) {
	grid := quickGrid()
	render := func(isolated bool, workers int) (string, *Runner) {
		t.Helper()
		r := &Runner{Grid: grid, Entries: quickEntries(), Runs: 3, Isolated: isolated}
		c, err := r.RunContext(context.Background(), pool.NewLimiter(workers))
		if err != nil {
			t.Fatal(err)
		}
		return report.RenderText(c.Sweep()) + "\x00" + report.RenderText(c.Sensitivity()), r
	}
	want, iso := render(true, 1)
	if want == "" {
		t.Fatal("isolated campaign rendered empty")
	}
	// Isolated mode must not install a shared cache behind the caller's
	// back — that would silently re-enable sharing.
	if iso.Cache != nil {
		t.Error("isolated runner published a shared cache")
	}
	for _, workers := range []int{1, 8} {
		got, r := render(false, workers)
		if got != want {
			t.Errorf("shared campaign at %d workers renders differently from isolated", workers)
		}
		st := r.Cache.Stats()
		if st.Hits+st.Joins == 0 {
			t.Errorf("shared campaign at %d workers recorded no cross-cell cache reuse: %+v", workers, st)
		}
		if st.Misses == 0 {
			t.Errorf("shared campaign at %d workers recorded no computes: %+v", workers, st)
		}
	}
}

// BenchmarkSharedCampaign measures what the dependency-keyed cache saves on
// a link-axis-dominated campaign: every link generation crossed with five
// added latencies on the baseline, all six workloads at 25 Monte-Carlo
// runs, sequentially. Each iteration runs the campaign cold in isolated
// mode and cold in shared mode (a fresh Runner, so a fresh cache), and the
// two must render byte-identical sweep and sensitivity artifacts. It
// reports the median wall-clock of each mode and their ratio as
// "speedup", and fails when sharing saves less than 5x.
//
//	go test -run '^$' -bench '^BenchmarkSharedCampaign$' -benchtime 3x -timeout 30m ./internal/sweep
func BenchmarkSharedCampaign(b *testing.B) {
	grid := Grid{Base: scenario.Default()}
	for _, spec := range []string{"gen=0,4,5,6", "lat=0:400:100"} {
		a, err := ParseAxis(spec)
		if err != nil {
			b.Fatal(err)
		}
		grid.Axes = append(grid.Axes, a)
	}
	run := func(isolated bool) (string, float64) {
		r := &Runner{Grid: grid, Runs: 25, Isolated: isolated}
		start := time.Now()
		c, err := r.RunContext(context.Background(), pool.NewLimiter(1))
		if err != nil {
			b.Fatal(err)
		}
		wall := time.Since(start).Seconds()
		return report.RenderText(c.Sweep()) + "\x00" + report.RenderText(c.Sensitivity()), wall
	}
	var isolated, shared []float64
	for b.Loop() {
		want, wi := run(true)
		got, ws := run(false)
		if got != want {
			b.Fatal("shared campaign renders differently from isolated")
		}
		isolated = append(isolated, wi)
		shared = append(shared, ws)
	}
	iso, sh := stats.Percentile(isolated, 50), stats.Percentile(shared, 50)
	b.ReportMetric(iso, "isolated-s")
	b.ReportMetric(sh, "shared-s")
	b.ReportMetric(iso/sh, "speedup")
	if iso/sh < 5 {
		b.Fatalf("shared campaign only %.2fx faster than isolated (median %.2fs vs %.2fs), want >= 5x", iso/sh, iso, sh)
	}
}
