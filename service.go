package repro

import (
	"context"
	"fmt"
	"log"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/pool"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/workloads/registry"
)

// Service is the unified facade of the library: one handle owning every
// shared resource — the per-platform experiment suites with their warm
// profiler caches, the bounded worker pool, the memoizing artifact store,
// and the single-flight sweep-campaign memo. Every execution method is
// context-first: cancellation and deadlines propagate through the whole
// engine (driver fan-outs, sweep cells, Monte-Carlo runs) and take effect
// within one task boundary, without leaking goroutines and without
// perturbing results — an uncancelled run is byte-identical at any worker
// count.
//
// A Service is safe for concurrent use: artifact computation serializes
// through the store (the engine parallelizes internally), and sweep
// campaigns are single-flight per grid.
//
// Construct one with New and functional options:
//
//	svc, err := repro.New(
//		repro.WithWorkers(8),
//		repro.WithDefaultPlatform("cxl-gen5"),
//	)
//	doc, err := svc.Artifact(ctx, repro.ArtifactRequest{Artifact: "figure9"})
type Service struct {
	scenarios       []Scenario
	defaultPlatform string
	workers         int
	runs            int
	entries         []WorkloadEntry
	logger          *log.Logger
	loggerSet       bool

	// warm marks a WithWarm service: it starts not-ready and flips ready
	// once StartWarm has computed (and rendered) the warm set.
	warm          bool
	warmPlatforms []string
	warmMu        sync.Mutex
	warmDone      chan struct{}
	warmErr       error
	ready         atomic.Bool

	// limiter is the one shared concurrency budget (WithWorkers) every
	// engine invocation on every suite draws from — concurrent requests
	// queue inside it instead of multiplying workers.
	limiter *pool.Limiter

	// profCache is the one dependency-keyed profile cache behind every
	// suite, sweep runner and campaign job this Service executes: profile
	// sub-results are keyed by the configuration fields they actually read,
	// so any two platforms the Service touches — scenario variants, sweep
	// cells — share whatever the differing fields cannot influence.
	profCache *core.SharedCache

	// jobStore persists campaign jobs (WithJobStore/WithJobDir; in-memory
	// by default) and jobs is the manager executing them on the shared
	// limiter.
	jobStore jobs.Store
	jobs     *jobs.Manager

	mu     sync.Mutex
	suites map[string]*experiments.Suite
	store  *ArtifactStore
}

// Option configures a Service under construction (see New).
type Option func(*Service) error

// WithWorkers bounds the Service's worker pool: every fan-out — the
// experiment-level spread of RunAll, each driver's internal fan-out, sweep
// cells and the Monte-Carlo runs inside them — draws from this one budget,
// so nesting never multiplies the worker count. Zero or negative selects
// every core. The default is 1 (sequential); results never depend on the
// worker count.
func WithWorkers(n int) Option {
	return func(s *Service) error {
		s.workers = pool.Workers(n)
		return nil
	}
}

// WithScenarios restricts (or extends) the platform scenarios the Service
// serves; the default is the full scenario registry. The first listed
// scenario becomes the default platform unless WithDefaultPlatform says
// otherwise. Every spec must validate.
func WithScenarios(scs ...Scenario) Option {
	return func(s *Service) error {
		if len(scs) == 0 {
			return fmt.Errorf("repro: WithScenarios: no scenarios")
		}
		s.scenarios = make([]Scenario, len(scs))
		for i, sp := range scs {
			sp.CapacityFractions = append([]float64(nil), sp.CapacityFractions...)
			s.scenarios[i] = sp
		}
		return nil
	}
}

// WithDefaultPlatform selects the scenario an empty ArtifactRequest.Platform
// (and the HTTP API's missing ?platform=) resolves to. The name must be one
// of the Service's scenarios. The default is the first scenario — "baseline"
// for the registry set.
func WithDefaultPlatform(name string) Option {
	return func(s *Service) error {
		s.defaultPlatform = name
		return nil
	}
}

// WithRuns sets the Monte-Carlo run count of every scheduling comparison
// (Figure 13 panels, sweep cells). Zero keeps the paper's 100. Tests and
// smoke jobs lower it; the goldens pin the default.
func WithRuns(n int) Option {
	return func(s *Service) error {
		if n < 0 {
			return fmt.Errorf("repro: WithRuns: negative run count %d", n)
		}
		s.runs = n
		return nil
	}
}

// WithWorkloads restricts the workload table every driver and sweep
// iterates over; the default is the paper's six applications (Workloads()).
func WithWorkloads(entries ...WorkloadEntry) Option {
	return func(s *Service) error {
		if len(entries) == 0 {
			return fmt.Errorf("repro: WithWorkloads: no workloads")
		}
		s.entries = append([]WorkloadEntry(nil), entries...)
		return nil
	}
}

// WithLogger installs the logger the HTTP API's request-logging middleware
// writes to. The default logs to standard error; a nil logger disables
// request logging.
func WithLogger(l *log.Logger) Option {
	return func(s *Service) error {
		s.logger = l
		s.loggerSet = true
		return nil
	}
}

// New builds a Service from the given options (see Option and the
// defaults on each With* constructor). It validates the configuration —
// every scenario spec, the default-platform name — and returns an error
// rather than a half-built service.
func New(opts ...Option) (*Service, error) {
	s := &Service{
		scenarios: scenario.All(),
		workers:   1,
		suites:    map[string]*experiments.Suite{},
	}
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	for _, sp := range s.scenarios {
		if err := sp.Validate(); err != nil {
			return nil, fmt.Errorf("repro: New: %w", err)
		}
	}
	if s.defaultPlatform == "" {
		s.defaultPlatform = s.scenarios[0].Name
	}
	if _, err := scenario.GetFrom(s.scenarios, s.defaultPlatform); err != nil {
		return nil, fmt.Errorf("repro: New: default platform: %w", err)
	}
	for _, name := range s.warmPlatforms {
		if _, err := scenario.GetFrom(s.scenarios, name); err != nil {
			return nil, fmt.Errorf("repro: New: warm platform: %w", err)
		}
	}
	s.ready.Store(!s.warm)
	s.limiter = pool.NewLimiter(s.workers)
	s.profCache = core.NewSharedCache()
	s.store = report.NewStore(s.source)
	if s.jobStore == nil {
		s.jobStore = jobs.NewMemStore()
	}
	mgr, err := jobs.NewManager(jobs.Config{
		Store:     s.jobStore,
		NewRunner: s.newSweepRunner,
		Limiter:   s.limiter,
	})
	if err != nil {
		return nil, fmt.Errorf("repro: New: %w", err)
	}
	s.jobs = mgr
	return s, nil
}

// Scenarios returns the platform scenarios this Service serves, registry
// order preserved. The specs are copies down to their capacity sweeps, so
// callers may modify them freely (the contract scenario.All established).
func (s *Service) Scenarios() []Scenario {
	out := make([]Scenario, len(s.scenarios))
	for i, sp := range s.scenarios {
		sp.CapacityFractions = append([]float64(nil), sp.CapacityFractions...)
		out[i] = sp
	}
	return out
}

// Workloads returns the workload table this Service's drivers iterate
// over. The slice is a copy.
func (s *Service) Workloads() []WorkloadEntry {
	if s.entries != nil {
		return append([]WorkloadEntry(nil), s.entries...)
	}
	return registry.All()
}

// IDs lists every artifact id this Service serves, in paper order.
func (s *Service) IDs() []string { return append([]string(nil), experiments.IDs...) }

// DefaultPlatform returns the scenario name an empty request platform
// resolves to.
func (s *Service) DefaultPlatform() string { return s.defaultPlatform }

// Store returns the Service's memoizing artifact store — the render-once
// cache behind Artifact, Rendered and the HTTP API, and the target RunAll
// seeds. Callers may Put precomputed documents to serve them through the
// Service's surfaces.
func (s *Service) Store() *ArtifactStore { return s.store }

// platform resolves a request's platform name ("" means the default)
// against the Service's scenario set.
func (s *Service) platform(name string) (Scenario, error) {
	if name == "" {
		name = s.defaultPlatform
	}
	return scenario.GetFrom(s.scenarios, name)
}

// suite returns the Service's memoized experiment suite for a scenario
// name, building it on first use with the Service's worker budget, run
// count and workload table installed.
func (s *Service) suite(name string) (*experiments.Suite, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if su, ok := s.suites[name]; ok {
		return su, nil
	}
	sp, err := scenario.GetFrom(s.scenarios, name)
	if err != nil {
		return nil, err
	}
	su := experiments.NewSuiteForShared(sp, s.profCache)
	su.Workers = s.workers
	su.Limiter = s.limiter
	if s.runs > 0 {
		su.Runs = s.runs
	}
	if s.entries != nil {
		su.Entries = append([]WorkloadEntry(nil), s.entries...)
	}
	s.suites[name] = su
	return su, nil
}

// source is the artifact source the Service's store sits in front of: it
// resolves the (platform, artifact) pair strictly — the platform must be
// one of the Service's scenarios, the id must be canonical (an alias
// errors with a pointer to the canonical id, so store keys and served URLs
// never diverge from the document's Artifact field) — and computes the
// document through the suite's context-aware path.
func (s *Service) source(ctx context.Context, platform, artifact string) (Doc, error) {
	canon, err := experiments.CanonicalID(artifact)
	if err != nil {
		return Doc{}, err
	}
	if canon != artifact {
		return Doc{}, &experiments.AliasError{Alias: artifact, Canonical: canon}
	}
	su, err := s.suite(platform)
	if err != nil {
		return Doc{}, err
	}
	r, err := su.RunContext(ctx, canon)
	if err != nil {
		return Doc{}, err
	}
	return r.Report(), nil
}

// ArtifactRequest names one artifact on one platform.
type ArtifactRequest struct {
	// Platform is the scenario name; empty selects the Service's default.
	Platform string
	// Artifact is the artifact id; figure aliases ("fig9") are accepted
	// and canonicalized.
	Artifact string
}

// resolve canonicalizes a request: platform resolved against the scenario
// set, artifact id canonicalized through the alias table.
func (s *Service) resolve(req ArtifactRequest) (platform, artifact string, err error) {
	sp, err := s.platform(req.Platform)
	if err != nil {
		return "", "", err
	}
	canon, err := experiments.CanonicalID(req.Artifact)
	if err != nil {
		return "", "", err
	}
	return sp.Name, canon, nil
}

// Artifact computes (or returns the memoized) typed document of one
// artifact. Cancellation propagates into the experiment engine: once ctx
// is done the computation stops at its next task boundary and Artifact
// returns ctx.Err(); a caller waiting behind another computation abandons
// the wait immediately. An uncancelled document is byte-identical (through
// every renderer) at any worker count.
func (s *Service) Artifact(ctx context.Context, req ArtifactRequest) (Doc, error) {
	platform, artifact, err := s.resolve(req)
	if err != nil {
		return Doc{}, err
	}
	return s.store.Doc(ctx, platform, artifact)
}

// Rendered returns one artifact rendered in one format, render-once
// memoized alongside the document.
func (s *Service) Rendered(ctx context.Context, req ArtifactRequest, f ArtifactFormat) (string, error) {
	platform, artifact, err := s.resolve(req)
	if err != nil {
		return "", err
	}
	return s.store.Artifact(ctx, platform, artifact, f)
}

// Grid returns a sweep-campaign grid on a platform's base system: the
// platform's link and capacity protocol as the unswept reference, crossed
// with the given axes. No axes selects the canonical generation ×
// capacity-fraction grid behind the "sweep" and "sensitivity" artifacts.
func (s *Service) Grid(platform string, axes ...SweepAxis) (SweepGrid, error) {
	sp, err := s.platform(platform)
	if err != nil {
		return SweepGrid{}, err
	}
	su, err := s.suite(sp.Name)
	if err != nil {
		return SweepGrid{}, err
	}
	if len(axes) == 0 {
		return su.SweepGrid(nil), nil
	}
	return su.SweepGrid(append([]SweepAxis(nil), axes...)), nil
}

// Sweep executes a sweep campaign over the grid with the Service's
// workload table, run count and worker budget. Campaigns on a registered
// platform's base system memoize single-flight per grid on that platform's
// suite — the "sweep"/"sensitivity" artifacts and repeated HTTP queries
// for the same grid share one execution — while grids over unregistered
// base specs run unmemoized. Validation failures match ErrInvalidSweep;
// once ctx is done the call returns ctx.Err(), and the campaign, unless
// another caller still waits on it, stops within one cell boundary, leaks
// no goroutines and is not memoized.
func (s *Service) Sweep(ctx context.Context, g SweepGrid) (*SweepCampaign, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	// Route the grid to the suite owning its base system, if any: grids
	// built by Service.Grid match their platform suite's base spec exactly
	// (the campaign memo key includes only the base *name*, so routing on
	// anything looser could collide two protocols under one key). The
	// candidate base specs derive straight from the scenario values — no
	// suite (and no profiler) is constructed until a match is found.
	for _, sp := range s.scenarios {
		base := Scenario{
			Name:              sp.Platform.Name,
			Platform:          sp.Platform,
			CapacityFractions: sp.CapacityFractions,
			HeadlineFraction:  sp.HeadlineFraction,
		}
		if specEqual(base, g.Base) {
			su, err := s.suite(sp.Name)
			if err != nil {
				return nil, err
			}
			return su.RunSweepContext(ctx, g)
		}
	}
	r := &sweep.Runner{Grid: g, Entries: s.entries, Runs: s.runs, Cache: s.profCache}
	return r.RunContext(ctx, s.limiter)
}

// ProfileCacheStats is a snapshot of the Service's shared profile-cache
// counters: Misses counts distinct sub-results computed, Hits counts
// lookups served from a finished entry (cross-cell and cross-platform
// reuse), and Joins counts lookups that coalesced onto an in-flight
// compute. GET /v1/stats reports these as profile_hits, profile_misses and
// profile_joins.
type ProfileCacheStats = core.CacheStats

// ProfileCacheStats returns the Service-wide profile-cache counters.
func (s *Service) ProfileCacheStats() ProfileCacheStats { return s.profCache.Stats() }

// specEqual reports whether two scenario specs describe the same base
// system: same name, platform physics and capacity protocol. The
// free-text description is deliberately ignored.
func specEqual(a, b Scenario) bool {
	if a.Name != b.Name || a.Platform != b.Platform ||
		a.HeadlineFraction != b.HeadlineFraction ||
		len(a.CapacityFractions) != len(b.CapacityFractions) {
		return false
	}
	for i := range a.CapacityFractions {
		if a.CapacityFractions[i] != b.CapacityFractions[i] {
			return false
		}
	}
	return true
}

// RunAll computes every artifact on one platform with the experiment-level
// fan-out, seeds the store with the results (so Rendered, WriteDir and the
// HTTP API only render), and returns the documents in paper order. Once
// ctx is done the engine stops within one task boundary and RunAll returns
// ctx.Err() without seeding anything.
func (s *Service) RunAll(ctx context.Context, platform string) ([]Doc, error) {
	sp, err := s.platform(platform)
	if err != nil {
		return nil, err
	}
	su, err := s.suite(sp.Name)
	if err != nil {
		return nil, err
	}
	rs, err := su.AllParallelContext(ctx, s.workers)
	if err != nil {
		return nil, err
	}
	docs := make([]Doc, len(rs))
	for i, r := range rs {
		d := r.Report()
		s.store.Put(sp.Name, d)
		if d.Platform == "" {
			d.Platform = sp.Name
		}
		docs[i] = d
	}
	return docs, nil
}

// WriteDir renders the named artifacts (aliases accepted) on a platform in
// the given formats (all three by default) into dir as <id>.<ext> files,
// creating dir if needed, and returns the written paths.
func (s *Service) WriteDir(ctx context.Context, dir, platform string, ids []string, formats ...ArtifactFormat) ([]string, error) {
	sp, err := s.platform(platform)
	if err != nil {
		return nil, err
	}
	canon := make([]string, len(ids))
	for i, id := range ids {
		if canon[i], err = experiments.CanonicalID(id); err != nil {
			return nil, err
		}
	}
	return s.store.WriteDir(ctx, dir, sp.Name, canon, formats...)
}
