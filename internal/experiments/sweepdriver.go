package experiments

import (
	"context"
	"errors"

	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// baseSpec wraps the suite's platform and capacity protocol as a scenario
// spec — the base system sweep campaigns derive their grids from, so
// `memdis -platform cxl-gen5 sweep` sweeps around that scenario's link and
// protocol rather than the testbed's.
func (s *Suite) baseSpec() scenario.Spec {
	return scenario.Spec{
		Name:              s.Cfg.Name,
		Description:       "the suite's base platform",
		Platform:          s.Cfg,
		CapacityFractions: s.fractions(),
		HeadlineFraction:  s.headline(),
	}
}

// SweepGrid returns the campaign grid over the given axes on the suite's
// base system; nil axes select the canonical generation x capacity-fraction
// grid (sweep.DefaultGrid) that backs the "sweep" and "sensitivity"
// artifacts.
func (s *Suite) SweepGrid(axes []sweep.Axis) sweep.Grid {
	if axes == nil {
		return sweep.DefaultGrid(s.baseSpec())
	}
	return sweep.Grid{Base: s.baseSpec(), Axes: axes}
}

// MaxCampaigns bounds the campaign memo. Grid keys are request-controlled
// on the serve path (`GET /v1/sweep?axis=...`), and each memoized campaign
// holds every cell of an executed grid — an unbounded memo would let a
// client grow server memory one query at a time (the same reason
// report.Store refuses to memoize errors). When full, the oldest campaign
// is evicted; eviction only costs recomputation, never changes results.
// The HTTP layer bounds its memo of rendered sweep representations by the
// same count.
const MaxCampaigns = 16

// RunSweepContext executes a campaign grid with the suite's workload
// table, Monte-Carlo run count and concurrency budget, reusing the suite's
// warm profiler for the base platform. Campaigns are memoized
// single-flight per grid key, so the "sweep" and "sensitivity" artifacts —
// even when AllParallelContext requests them concurrently — and repeated
// requests for the same grid share one execution. (The memo assumes
// Entries and Runs are configured before the first campaign runs, like
// the other suite fields.)
//
// The call returns ctx.Err() as soon as ctx is done; the campaign then
// stops within one cell boundary unless another caller still waits on it
// (see sweep.Runner.RunContext). An abandoned or failed campaign is never
// memoized, so the next request for the grid re-runs it. Like the other
// context-first entry points, concurrent invocations on one Suite
// serialize.
func (s *Suite) RunSweepContext(ctx context.Context, g sweep.Grid) (*sweep.Campaign, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := s.acquireInvoke(ctx); err != nil {
		return nil, err
	}
	defer s.releaseInvoke()
	return s.runSweepLocked(ctx, g)
}

// runSweepLocked is the memoized campaign executor. It must run inside an
// engine invocation: either holding the invocation slot (the
// RunSweepContext entry point) or on the engine's own task tree (the
// sweep/sensitivity drivers via defaultCampaign), where the installed
// limiter is safe to read.
func (s *Suite) runSweepLocked(ctx context.Context, g sweep.Grid) (*sweep.Campaign, error) {
	l := s.lim()
	return s.campaigns.Do(ctx, g.Key(), func(ctx context.Context) (*sweep.Campaign, error) {
		r := &sweep.Runner{
			Grid:         g,
			Entries:      s.Entries,
			Runs:         s.Runs,
			BaseProfiler: s.Profiler,
			Cache:        s.Profiler.Cache(),
		}
		return r.RunContext(ctx, l)
	})
}

// defaultCampaign runs (or returns the memoized) default-grid campaign.
// It is the engine-internal path of the sweep/sensitivity drivers — called
// from inside a running invocation, so it must not take the invocation
// slot.
func (s *Suite) defaultCampaign() *sweep.Campaign {
	//repro:allow ctxflow — engine-internal driver path: the installed invocation context governs the run; see below
	c, err := s.runSweepLocked(context.Background(), s.SweepGrid(nil))
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The engine's installed context died mid-campaign (the grid
			// itself always validates). The driver's result is discarded by
			// the cancelled RunContext/AllParallelContext anyway, so an
			// empty campaign placeholder (frontier indices -1, like an
			// empty grid's) never escapes.
			return &sweep.Campaign{Best: -1, Worst: -1}
		}
		panic(err) // unreachable: the default grid always validates
	}
	return c
}

// SweepResult is the "sweep" artifact: the default campaign's long-form
// per-cell table over the generation x capacity-fraction grid.
type SweepResult struct {
	// Campaign is the executed default-grid campaign.
	Campaign *sweep.Campaign
}

// Sweep runs the default sweep campaign (shared with Sensitivity).
func (s *Suite) Sweep() SweepResult { return SweepResult{Campaign: s.defaultCampaign()} }

// ID implements Result.
func (SweepResult) ID() string { return "sweep" }

// Report implements Result.
func (r SweepResult) Report() report.Doc { return r.Campaign.Sweep() }

// Render implements Result.
func (r SweepResult) Render() string { return report.RenderText(r.Report()) }

// SensitivityResult is the "sensitivity" artifact: per-axis marginal
// deltas of the default campaign against the base system, with the
// best/worst frontier cells.
type SensitivityResult struct {
	// Campaign is the executed default-grid campaign.
	Campaign *sweep.Campaign
}

// Sensitivity runs the default sweep campaign (shared with Sweep) and
// reduces it to the axis-sensitivity view.
func (s *Suite) Sensitivity() SensitivityResult {
	return SensitivityResult{Campaign: s.defaultCampaign()}
}

// ID implements Result.
func (SensitivityResult) ID() string { return "sensitivity" }

// Report implements Result.
func (r SensitivityResult) Report() report.Doc { return r.Campaign.Sensitivity() }

// Render implements Result.
func (r SensitivityResult) Render() string { return report.RenderText(r.Report()) }
