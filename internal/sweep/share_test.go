package sweep

import (
	"context"
	"testing"

	"repro/internal/pool"
	"repro/internal/report"
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
