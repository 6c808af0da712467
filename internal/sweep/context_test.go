package sweep

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/pool"
	"repro/internal/report"
)

// mustText renders a document as text for byte comparison.
func mustText(t *testing.T, d report.Doc) string {
	t.Helper()
	return report.RenderText(d)
}

// waitGoroutines polls until the goroutine count drops back to within
// slack of the baseline, failing the test if it never does — the
// no-leaked-goroutines check for cancelled fan-outs.
func waitGoroutines(t *testing.T, baseline, slack int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline+slack {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not drain: %d running, baseline %d",
				runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunContextCancelMidCampaign cancels a campaign from its own progress
// callback — deterministically after the first finished cell — and asserts
// the acceptance contract: RunContext returns context.Canceled within one
// cell boundary (no campaign escapes), and no worker goroutine outlives
// the call.
func TestRunContextCancelMidCampaign(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := &Runner{Grid: quickGrid(), Entries: quickEntries(), Runs: 5}
	done := 0
	r.Progress = func(d, total int) {
		done = d
		if d == 1 {
			cancel()
		}
	}
	c, err := r.RunContext(ctx, pool.NewLimiter(4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext after mid-campaign cancel = %v, want context.Canceled", err)
	}
	if c != nil {
		t.Fatal("cancelled campaign must not be returned")
	}
	// One task boundary: the cells in flight at cancel time may finish (at
	// most the limiter width plus the caller), but claiming stopped.
	if total := (4 + 1) * len(quickEntries()); done >= total {
		t.Errorf("all %d cells completed despite the cancel", total)
	}
	waitGoroutines(t, baseline, 2)
}

// TestRunContextPreCancelled pins the fast path: a context that is already
// done costs no cell work at all.
func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := &Runner{Grid: quickGrid(), Entries: quickEntries(), Runs: 5}
	r.Progress = func(d, total int) { t.Errorf("cell ran under a pre-cancelled context (%d/%d)", d, total) }
	if _, err := r.RunContext(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
}

// TestRunContextUncancelledMatchesRun is the byte-identical guarantee of
// the context path: a live, cancellable context on a parallel limiter
// changes nothing about the campaign against the reference run (a
// never-cancelled background context on the sequential limiter).
func TestRunContextUncancelledMatchesRun(t *testing.T) {
	r1 := &Runner{Grid: quickGrid(), Entries: quickEntries(), Runs: 3}
	want, err := r1.RunContext(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r2 := &Runner{Grid: quickGrid(), Entries: quickEntries(), Runs: 3}
	got, err := r2.RunContext(ctx, pool.NewLimiter(4))
	if err != nil {
		t.Fatal(err)
	}
	if gs, ws := mustText(t, got.Sweep()), mustText(t, want.Sweep()); gs != ws {
		t.Errorf("live-context sweep render differs from the reference run (%d vs %d bytes)", len(gs), len(ws))
	}
	if gs, ws := mustText(t, got.Sensitivity()), mustText(t, want.Sensitivity()); gs != ws {
		t.Errorf("live-context sensitivity render differs from the reference run (%d vs %d bytes)", len(gs), len(ws))
	}
}
