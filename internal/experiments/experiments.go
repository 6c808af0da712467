// Package experiments contains one driver per table and figure of the
// paper's evaluation. Each driver returns a structured result whose Report
// method reduces the measurements to a typed report.Doc; Render is the text
// rendering of that document (report.RenderText), byte-identical to the
// historical output. The cmd/memdis CLI and the root benchmark harness both
// call these drivers, so the printed artifacts and the benchmarked work are
// identical — and the same Doc feeds the JSON/CSV renderers and the
// artifact store.
//
// A Suite shares one profiler (and therefore its single-flight profile
// caches) across drivers so that composite invocations such as `memdis all`
// probe each workload input only once.
//
// The suite is a concurrent experiment engine: AllParallelContext fans the
// drivers out over a bounded worker pool, and each driver additionally fans
// out internally over its workloads, input scales, and capacity points
// when Suite.Workers is above one. Every randomized sweep hands each
// simulated run its own RNG substream, so parallel output is
// byte-identical to the sequential output at any worker count.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/pool"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/workloads/registry"
)

// Suite binds the experiment drivers to one platform configuration.
type Suite struct {
	// Cfg is the emulated platform.
	Cfg machine.Config
	// Profiler is shared across drivers (single-flight profile caches).
	Profiler *core.Profiler
	// Entries is the workload table (registry.All by default).
	Entries []registry.Entry
	// Runs is the number of scheduler runs per configuration in Figure 13
	// (100 in the paper; tests may lower it).
	Runs int
	// Fractions is the local-capacity sweep for the Figure 9/10 protocol
	// (CapacityFractions by default; scenario suites install their own).
	Fractions []float64
	// Headline is the single local-capacity point the Figure 11 and 13
	// analyses run at (the paper's 50%-50% split by default; scenario
	// suites install their HeadlineFraction). The contract is (0, 1)
	// exclusive: values outside it fall back to the paper's 0.50 rather
	// than producing a degenerate capacity split. NewSuiteFor rejects such
	// specs up front instead of falling back silently.
	Headline float64
	// Workers bounds the intra-driver fan-out over workloads, scales,
	// capacity points and Monte-Carlo runs. Values <= 1 mean sequential.
	// Results do not depend on it. Do not change it while drivers run.
	Workers int
	// Limiter, when non-nil, is the externally owned concurrency budget
	// engine invocations draw from in place of a fresh per-invocation
	// limiter of Workers width. A Service installs one shared limiter on
	// every suite it builds, so concurrent invocations across suites stay
	// inside one budget instead of multiplying it. Set before first use.
	Limiter *pool.Limiter
	// invoke is a one-slot semaphore serializing top-level engine
	// invocations that install the shared limiter (RunContext,
	// AllParallelContext, RunSweepContext): the context-first entry
	// points are safe to call concurrently — they queue, and a queued
	// caller whose context dies abandons the wait immediately — while
	// the engine-internal paths (drivers, defaultCampaign) run lock-free
	// inside whichever invocation is active.
	invoke chan struct{}
	// limiter, when set (the context-first entry points install one for
	// the duration of an invocation), is the single concurrency budget
	// every fan-out level draws from, so nesting never multiplies the
	// worker count.
	limiter *pool.Limiter
	// scenMu guards scenProfs, the per-scenario profilers of the
	// cross-scenario driver (memoized so repeated sweeps share caches).
	scenMu    sync.Mutex
	scenProfs map[string]*core.Profiler
	// sweepMu guards sweeps, the single-flight memo of sweep campaigns
	// keyed by grid (the "sweep" and "sensitivity" artifacts share one
	// execution even when requested concurrently).
	sweepMu sync.Mutex
	sweeps  map[string]*campaignEntry
}

// NewSuite returns a suite on the given platform with the paper's defaults
// and a private profile cache.
func NewSuite(cfg machine.Config) *Suite {
	return NewSuiteShared(cfg, nil)
}

// NewSuiteShared is NewSuite backed by the given dependency-keyed profile
// cache (a private cache when nil). A Service installs one cache across all
// of its suites, so platforms that agree on the fields a profile level
// reads — scenario variants, sweep cells — share sub-results across suites.
func NewSuiteShared(cfg machine.Config, c *core.SharedCache) *Suite {
	return &Suite{
		Cfg:       cfg,
		Profiler:  core.NewProfilerShared(cfg, c),
		Entries:   registry.All(),
		Runs:      100,
		Fractions: append([]float64(nil), CapacityFractions...),
		Headline:  0.50,
		invoke:    make(chan struct{}, 1),
	}
}

// acquireInvoke takes the invocation slot, abandoning with ctx.Err() if
// ctx dies while queued behind another invocation. The caller must
// releaseInvoke on success.
func (s *Suite) acquireInvoke(ctx context.Context) error {
	select {
	case s.invoke <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// releaseInvoke frees the invocation slot.
func (s *Suite) releaseInvoke() { <-s.invoke }

// NewSuiteFor returns a suite on a scenario's platform with the scenario's
// capacity sweep installed, so every driver reproduces the paper's protocol
// on the alternate system.
//
// The spec must be valid (scenario.Spec.Validate); in particular its
// HeadlineFraction must lie in (0, 1) exclusive. NewSuiteFor panics on an
// invalid spec: every registry scenario validates, so an invalid spec is a
// caller construction bug, and rejecting it loudly here replaces the old
// behavior of headline() silently substituting the paper's 0.50 split.
func NewSuiteFor(sp scenario.Spec) *Suite {
	return NewSuiteForShared(sp, nil)
}

// NewSuiteForShared is NewSuiteFor backed by the given shared profile cache
// (a private cache when nil); see NewSuiteShared.
func NewSuiteForShared(sp scenario.Spec, c *core.SharedCache) *Suite {
	if err := sp.Validate(); err != nil {
		panic(fmt.Sprintf("experiments: NewSuiteFor: %v", err))
	}
	s := NewSuiteShared(sp.Platform, c)
	s.Fractions = append([]float64(nil), sp.CapacityFractions...)
	s.Headline = sp.HeadlineFraction
	return s
}

// fractions returns the suite's capacity sweep (the paper's protocol when
// unset).
func (s *Suite) fractions() []float64 {
	if len(s.Fractions) == 0 {
		return CapacityFractions
	}
	return s.Fractions
}

// headline returns the suite's headline capacity point (the paper's 50%-50%
// split when unset). Out-of-range Headline values — anything outside (0, 1)
// exclusive — take the same fallback as the zero value; NewSuiteFor rejects
// them before they reach this silent clamp (see the Headline field contract,
// pinned by TestHeadlineContract).
func (s *Suite) headline() float64 {
	if s.Headline <= 0 || s.Headline >= 1 {
		return 0.50
	}
	return s.Headline
}

// workers returns the effective intra-driver fan-out width.
func (s *Suite) workers() int {
	if s.Workers < 1 {
		return 1
	}
	return s.Workers
}

// lim returns the limiter an engine fan-out draws from: the
// invocation-installed limiter (context-first entry points install one for
// their duration), else the externally owned shared Limiter, else a fresh
// limiter of the configured width for a stand-alone driver call. Drivers
// fetch it once and pass it to every fan-out they perform, including
// nested Monte-Carlo sweeps.
func (s *Suite) lim() *pool.Limiter {
	if s.limiter != nil {
		return s.limiter
	}
	if s.Limiter != nil {
		return s.Limiter
	}
	return pool.NewLimiter(s.workers())
}

// Result is the common interface of every experiment result.
type Result interface {
	// ID is the paper artifact name, e.g. "figure9".
	ID() string
	// Report reduces the measurements to the typed artifact document every
	// renderer (text, JSON, CSV) and the artifact store consume.
	Report() report.Doc
	// Render prints the artifact as text: report.RenderText(r.Report()).
	Render() string
}

// LoILevels is the paper's interference sweep for Figure 10.
var LoILevels = []float64{0, 0.10, 0.20, 0.30, 0.40, 0.50}

// CapacityFractions is the paper's local-capacity sweep: local tier sized to
// 75%, 50% and 25% of the workload's peak usage (so the remote/pooled side
// is 25%, 50% and 75%).
var CapacityFractions = []float64{0.75, 0.50, 0.25}

// IDs lists every experiment in paper order, followed by the repo's own
// artifacts (not from the paper, hence last): the cross-scenario
// comparison and the two views of the default sweep campaign.
var IDs = []string{
	"figure1", "table1", "table2", "figure5", "figure6", "figure7",
	"figure8", "figure9", "figure10", "figure11", "figure12", "figure13",
	"scenarios", "sweep", "sensitivity",
}

// ErrUnknownID marks a failed artifact-id lookup: every error CanonicalID
// returns for an id that is neither canonical nor an alias matches
// errors.Is(err, ErrUnknownID), so request boundaries classify it as
// not-found without string matching.
var ErrUnknownID = errors.New("experiments: unknown id")

// unknownIDError is a lookup failure matching ErrUnknownID.
type unknownIDError struct{ msg string }

func (e *unknownIDError) Error() string        { return e.msg }
func (e *unknownIDError) Is(target error) bool { return target == ErrUnknownID }

// AliasError reports a request that used a figure alias where a canonical
// artifact id is required (store keys, /v1 URLs, -out filenames): the
// caller should retry with Canonical. It matches ErrUnknownID under
// errors.Is — an alias is not the resource's name — while carrying the
// redirect target for surfaces that can point the client at it.
type AliasError struct {
	// Alias is the rejected spelling; Canonical the id to request instead.
	Alias, Canonical string
}

// Error implements error.
func (e *AliasError) Error() string {
	return fmt.Sprintf("%q is an alias: request %q", e.Alias, e.Canonical)
}

// Is reports alias errors as unknown-id errors for status classification.
func (e *AliasError) Is(target error) bool { return target == ErrUnknownID }

// CanonicalID resolves an experiment id or figure alias ("fig9") to its
// canonical artifact id ("figure9") — the id results report, artifact
// stores key on, and `-out` files are named after. It is the single alias
// mechanism: Run resolves through it too. The failure matches ErrUnknownID.
func CanonicalID(id string) (string, error) {
	for _, known := range IDs {
		if id == known {
			return known, nil
		}
		if rest, ok := strings.CutPrefix(known, "figure"); ok && id == "fig"+rest {
			return known, nil
		}
	}
	return "", &unknownIDError{msg: fmt.Sprintf("experiments: unknown id %q (known: %s)", id, strings.Join(IDs, ", "))}
}

// Run executes the experiment with the given ID (canonical or alias).
func (s *Suite) Run(id string) (Result, error) {
	canon, err := CanonicalID(id)
	if err != nil {
		return nil, err
	}
	switch canon {
	case "figure1":
		return s.Figure1(), nil
	case "table1":
		return s.Table1(), nil
	case "table2":
		return s.Table2(), nil
	case "figure5":
		return s.Figure5(), nil
	case "figure6":
		return s.Figure6(), nil
	case "figure7":
		return s.Figure7(), nil
	case "figure8":
		return s.Figure8(), nil
	case "figure9":
		return s.Figure9(), nil
	case "figure10":
		return s.Figure10(), nil
	case "figure11":
		return s.Figure11(), nil
	case "figure12":
		return s.Figure12(), nil
	case "figure13":
		return s.Figure13(), nil
	case "scenarios":
		return s.Scenarios(), nil
	case "sweep":
		return s.Sweep(), nil
	case "sensitivity":
		return s.Sensitivity(), nil
	}
	panic("experiments: CanonicalID returned an unhandled id " + canon) // unreachable
}

// RunContext is Run bounded by ctx: the driver's fan-outs (and any nested
// Monte-Carlo sweeps) draw from a context-carrying limiter, so once ctx is
// done no new task starts and the call returns ctx.Err() within one task
// boundary — the context-first execution path repro.Service.Artifact rides
// on. An uncancelled RunContext returns exactly Run's result.
//
// Concurrent context-first invocations on one Suite serialize (the engine
// parallelizes internally); a queued caller whose ctx dies still waits for
// its turn before returning the error.
func (s *Suite) RunContext(ctx context.Context, id string) (Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := s.acquireInvoke(ctx); err != nil {
		return nil, err
	}
	defer s.releaseInvoke()
	l := s.lim().WithContext(ctx)
	prev := s.limiter
	s.limiter = l
	defer func() { s.limiter = prev }()
	r, err := s.Run(id)
	if err != nil {
		return nil, err
	}
	if err := l.Err(); err != nil {
		// Abandoned mid-driver: the result holds partially zeroed
		// measurements, so it must not escape.
		return nil, err
	}
	return r, nil
}

// All runs every experiment in paper order.
func (s *Suite) All() []Result {
	out := make([]Result, 0, len(IDs))
	for _, id := range IDs {
		r, err := s.Run(id)
		if err != nil {
			panic(err) // unreachable: IDs only contains known ids
		}
		out = append(out, r)
	}
	return out
}

// AllParallelContext runs every experiment concurrently and returns the
// results in paper order. One limiter of width workers is shared by the
// experiment-level fan-out, every driver's internal fan-out, and the
// Monte-Carlo sweeps inside them, so at most workers tasks ever run at
// once; the shared profiler coalesces concurrent requests for the same
// profile into one execution. The rendered results are byte-identical to
// All() for any worker count.
//
// The limiter carries ctx: once ctx is done no new task anywhere in the
// engine starts and the call returns ctx.Err() within one task boundary,
// with no goroutine left running. Concurrent invocations on one Suite
// queue for its invocation slot; do not call individual drivers
// concurrently with an invocation (the engine parallelizes internally;
// outer concurrency would race on the installed limiter).
func (s *Suite) AllParallelContext(ctx context.Context, workers int) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := s.acquireInvoke(ctx); err != nil {
		return nil, err
	}
	defer s.releaseInvoke()
	if workers < 1 {
		workers = 1
	}
	// While the limiter is installed every fan-out draws from it, so
	// Suite.Workers is deliberately left alone — it only matters for
	// stand-alone driver calls. An externally owned shared Limiter wins
	// over the workers argument: the whole point of sharing is that no
	// invocation brings its own budget.
	base := s.Limiter
	if base == nil {
		base = pool.NewLimiter(workers)
	}
	prev := s.limiter
	l := base.WithContext(ctx)
	s.limiter = l
	defer func() { s.limiter = prev }()
	rs := pool.Map(l, len(IDs), func(i int) Result {
		r, err := s.Run(IDs[i])
		if err != nil {
			panic(err) // unreachable: IDs only contains known ids
		}
		return r
	})
	if err := l.Err(); err != nil {
		// Abandoned mid-sweep: unstarted drivers left nil slots and started
		// ones may hold partially zeroed measurements — discard them all.
		return nil, err
	}
	return rs, nil
}
