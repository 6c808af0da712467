// Package core implements the paper's primary contribution: the three-level
// top-down quantitative methodology for dissecting application requirements
// on the memory system (§3), backed by the multi-level profiler.
//
//   - Level 1 captures an application's intrinsic requirements — arithmetic
//     intensity, capacity and bandwidth usage, access pattern, and hardware
//     prefetching behaviour — properties preserved across memory systems.
//   - Level 2 quantifies the impact of a general multi-tier memory system:
//     the per-tier access ratios against the two reference points, the
//     capacity ratio R_cap and the bandwidth ratio R_BW.
//   - Level 3 quantifies memory interference on pooling-based systems:
//     sensitivity to injected interference and the interference coefficient
//     an application induces on co-running jobs.
//
// The profiler drives workloads on the emulated platform (internal/machine)
// and reduces the collected PhaseStats to the reports each level needs.
// Because execution time is a pure function of (PhaseStats, Config, LoI),
// Level 3 re-evaluates measured phases analytically across interference
// levels without re-running the workload — the paper's own workflow of
// profiling once and reasoning about deployment configurations afterwards.
package core

import (
	"sort"

	"repro/internal/lbench"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/roofline"
	"repro/internal/stats"
	"repro/internal/workloads"
	"repro/internal/workloads/registry"
)

// Profiler runs the multi-level analysis on a platform configuration.
// The zero value is not usable; construct with NewProfiler or
// NewProfilerShared.
//
// A profiler is safe for concurrent use: all memoization lives in a
// SharedCache, where concurrent requests for the same profile are coalesced
// so each workload execution happens exactly once (single-flight). Cached
// reports are shared between callers and must be treated as read-only.
//
// Each sub-result is memoized under a dependency key — the subset of cfg a
// result can actually read (see sharedcache.go) — so profilers for
// different platforms backed by one SharedCache reuse each other's work
// whenever the platforms agree on the fields that matter: sweeps stepping a
// link axis recompute nothing but the link-dependent levels.
type Profiler struct {
	cfg   machine.Config
	cache *SharedCache
}

// NewProfiler returns a profiler for the given platform with a private
// cache. Sweeps that profile many related platforms should prefer
// NewProfilerShared so link-independent results are computed once.
func NewProfiler(cfg machine.Config) *Profiler {
	return NewProfilerShared(cfg, NewSharedCache())
}

// NewProfilerShared returns a profiler for the given platform backed by the
// shared cache c (a private cache if c is nil). Any number of profilers for
// any mix of platforms may share one cache concurrently.
func NewProfilerShared(cfg machine.Config, c *SharedCache) *Profiler {
	if c == nil {
		c = NewSharedCache()
	}
	return &Profiler{cfg: cfg, cache: c}
}

// Config returns the platform configuration.
func (p *Profiler) Config() machine.Config { return p.cfg }

// Cache returns the shared cache backing this profiler.
func (p *Profiler) Cache() *SharedCache { return p.cache }

// Run executes a workload on a fresh machine with the given config and
// returns the machine (phases recorded).
func Run(cfg machine.Config, w workloads.Workload) *machine.Machine {
	m := machine.New(cfg)
	w.Run(m)
	return m
}

// PeakUsage returns the workload's peak memory footprint on an unbounded
// single-tier system — the quantity the paper's setup_waste protocol sizes
// local capacity against. Unless an execution already recorded it
// (Execute), the run binds pages without simulating the cache
// (machine.PeakFootprintOf), which gives the footprint of a full execution
// at a fraction of its cost.
func (p *Profiler) PeakUsage(entry registry.Entry, scale int) uint64 {
	key := execKeyFor(p.cfg, entry.Name, scale)
	return p.cache.peak.Value(key, func() uint64 {
		return machine.PeakFootprintOf(p.cfg, entry.New(scale).Run)
	})
}

// Execute runs the workload once on the profiler's platform, records the
// run's peak footprint as the workload's PeakUsage, so sizing a split
// against it costs no footprint pass, and returns the machine and that
// peak. The machine yields the run at any local capacity
// (machine.SplitAt).
func (p *Profiler) Execute(entry registry.Entry, scale int) (*machine.Machine, uint64) {
	m := Run(p.cfg, entry.New(scale))
	return m, p.cache.peak.Value(execKeyFor(p.cfg, entry.Name, scale), m.PeakFootprint)
}

// ConfigForLocalFraction returns the platform config with the local tier
// capped at fraction of the workload's peak usage (e.g. 0.25 for the
// "25%-75%" configuration of Figures 9 and 10).
func (p *Profiler) ConfigForLocalFraction(entry registry.Entry, scale int, fraction float64) machine.Config {
	return p.cfg.WithLocalCapacity(p.localCapacity(p.PeakUsage(entry, scale), fraction))
}

// localCapacity is fraction of peak bytes, but never less than one page.
func (p *Profiler) localCapacity(peak uint64, fraction float64) uint64 {
	return max(uint64(fraction*float64(peak)), p.cfg.Mem.PageSize)
}

// ---------------------------------------------------------------------------
// Level 1
// ---------------------------------------------------------------------------

// PhaseProfile is the Level-1 view of one phase.
type PhaseProfile struct {
	Name string
	// Time is the modeled execution time on the idle system.
	Time float64
	// AI is the arithmetic intensity in flop/byte.
	AI float64
	// Throughput is the achieved compute rate in flop/s.
	Throughput float64
	// Bandwidth is the achieved memory bandwidth in bytes/s.
	Bandwidth float64
	// PrefetchAccuracy and PrefetchCoverage are the paper's equations
	// (1) and (2) over the phase.
	PrefetchAccuracy float64
	PrefetchCoverage float64
	// Stats is the raw phase record.
	Stats machine.PhaseStats
}

// Level1Report is the general characterization of §4.
type Level1Report struct {
	Workload string
	Scale    int
	// Phases on the single-tier (unbounded local) system.
	Phases []PhaseProfile
	// PeakFootprint is the maximum resident footprint.
	PeakFootprint uint64
	// Prefetch study (two runs, prefetcher on/off):
	// PerformanceGain is T_off/T_on - 1 (the paper's "performance gain").
	PerformanceGain float64
	// ExcessTraffic is bytes_on/bytes_off - 1 ("excessive prefetch
	// traffic").
	ExcessTraffic float64
	// Accuracy and Coverage over the whole run (prefetcher on).
	Accuracy, Coverage float64
	// TimelineOn and TimelineOff are the per-tick fetched-lines series of
	// the compute phase with and without prefetching (Figure 7).
	TimelineOn, TimelineOff []machine.Tick
}

// Level1 profiles intrinsic workload characteristics on a single-tier
// system, including the prefetching study of §4.2. Reports are memoized per
// (workload, scale); treat the returned slices as read-only.
func (p *Profiler) Level1(entry registry.Entry, scale int) Level1Report {
	key := l1Key{
		exec:                singleTierKeyFor(p.cfg, entry.Name, scale),
		peakFlops:           p.cfg.PeakFlops,
		localBandwidth:      p.cfg.LocalBandwidth,
		localLatency:        p.cfg.LocalLatency,
		mlp:                 p.cfg.MLP,
		streamDemandPenalty: p.cfg.StreamDemandPenalty,
	}
	return p.cache.l1.Value(key, func() Level1Report {
		return p.level1(entry, scale)
	})
}

func (p *Profiler) level1(entry registry.Entry, scale int) Level1Report {
	cfgOn := p.cfg
	cfgOn.Mem.LocalCapacity = 0 // single tier
	mOn := Run(cfgOn, entry.New(scale))
	mOff := Run(cfgOn.WithPrefetch(false), entry.New(scale))

	rep := Level1Report{Workload: entry.Name, Scale: scale, PeakFootprint: mOn.PeakFootprint()}
	var tOn, tOff float64
	var bytesOn, bytesOff float64
	var acc, cov, wsum float64
	for _, ph := range mOn.Phases() {
		t := cfgOn.PhaseTime(ph, 0)
		pp := PhaseProfile{
			Name:             ph.Name,
			Time:             t,
			AI:               ph.ArithmeticIntensity(),
			PrefetchAccuracy: ph.Cache.Accuracy(),
			PrefetchCoverage: ph.Cache.Coverage(),
			Stats:            ph,
		}
		if t > 0 {
			pp.Throughput = ph.Flops / t
			pp.Bandwidth = float64(ph.TotalBytes()) / t
		}
		rep.Phases = append(rep.Phases, pp)
		tOn += t
		bytesOn += float64(ph.TotalBytes())
		w := float64(ph.Cache.LinesIn)
		acc += ph.Cache.Accuracy() * w
		cov += ph.Cache.Coverage() * w
		wsum += w
	}
	for _, ph := range mOff.Phases() {
		tOff += cfgOn.WithPrefetch(false).PhaseTime(ph, 0)
		bytesOff += float64(ph.TotalBytes())
	}
	if wsum > 0 {
		rep.Accuracy = acc / wsum
		rep.Coverage = cov / wsum
	}
	if tOn > 0 {
		rep.PerformanceGain = tOff/tOn - 1
	}
	if bytesOff > 0 {
		rep.ExcessTraffic = bytesOn/bytesOff - 1
	}
	if ph, ok := mOn.Phase("p2"); ok {
		rep.TimelineOn = ph.Ticks
	}
	if ph, ok := mOff.Phase("p2"); ok {
		rep.TimelineOff = ph.Ticks
	}
	return rep
}

// ScalingPoint is one point of the bandwidth–capacity scaling curve:
// the hottest FootprintPct percent of pages carry AccessPct percent of
// memory accesses.
type ScalingPoint struct {
	FootprintPct float64
	AccessPct    float64
}

// ScalingCurve builds the Figure 6 cumulative distribution for a workload
// at a scale: pages sorted by descending access count, cumulative access
// share sampled at each percent of the footprint.
func (p *Profiler) ScalingCurve(entry registry.Entry, scale int) []ScalingPoint {
	key := singleTierKeyFor(p.cfg, entry.Name, scale)
	return p.cache.curve.Value(key, func() []ScalingPoint {
		return p.scalingCurve(entry, scale)
	})
}

func (p *Profiler) scalingCurve(entry registry.Entry, scale int) []ScalingPoint {
	cfg := p.cfg
	cfg.Mem.LocalCapacity = 0
	m := Run(cfg, entry.New(scale))
	counts := m.Space.PageAccessCounts()
	weights := make([]float64, len(counts))
	for i, c := range counts {
		weights[i] = float64(c)
	}
	cdf := stats.CDF(weights)
	if len(cdf) == 0 {
		return nil
	}
	points := make([]ScalingPoint, 0, 101)
	for pct := 0; pct <= 100; pct++ {
		idx := pct * (len(cdf) - 1) / 100
		points = append(points, ScalingPoint{
			FootprintPct: float64(pct),
			AccessPct:    cdf[idx] * 100,
		})
	}
	return points
}

// ---------------------------------------------------------------------------
// Level 2
// ---------------------------------------------------------------------------

// Level2Phase is the tiered view of one phase.
type Level2Phase struct {
	Name string
	// RemoteAccessRatio is the fraction of access bytes served remotely.
	RemoteAccessRatio float64
	// RemoteCapacityRatio is the fraction of bound pages resident remotely
	// at phase end.
	RemoteCapacityRatio float64
	// AI is re-measured on the tiered system (the paper validates it
	// matches the single-tier measurement).
	AI    float64
	Stats machine.PhaseStats
}

// Level2Report quantifies multi-tier memory access (§5).
type Level2Report struct {
	Workload string
	Scale    int
	// LocalFraction is the local capacity as a fraction of peak usage.
	LocalFraction float64
	// RCap and RBW are the two remote-side reference points of Figure 9.
	RCap, RBW float64
	Phases    []Level2Phase
	// Regions is the per-allocation-site breakdown (hot-object analysis
	// of §7.1), sorted by descending access count.
	Regions []mem.RegionStats
	// Machine retains the run for further analysis.
	Phase2Stats []machine.PhaseStats
}

// Level2 profiles the workload on a two-tier system with the local tier
// sized to fraction of peak usage. Reports are memoized per (workload,
// scale, fraction), with R_BW set per call from the platform's bandwidths;
// treat the returned slices as read-only.
func (p *Profiler) Level2(entry registry.Entry, scale int, localFraction float64) Level2Report {
	key := l2Key{exec: execKeyFor(p.cfg, entry.Name, scale), fraction: localFraction}
	rep := p.cache.l2.Value(key, func() Level2Report {
		return p.level2(entry, scale, localFraction)
	})
	rep.RBW = p.cfg.BandwidthRatio()
	return rep
}

// level2 executes the workload once on the base platform and splits the
// run at the fraction of the peak footprint that run reached.
func (p *Profiler) level2(entry registry.Entry, scale int, localFraction float64) Level2Report {
	m, peak := p.Execute(entry, scale)
	phases, regions := m.SplitAt(p.localCapacity(peak, localFraction))
	rep := Level2Report{
		Workload:      entry.Name,
		Scale:         scale,
		LocalFraction: localFraction,
		RCap:          1 - localFraction,
		Regions:       regions,
	}
	for _, ph := range phases {
		rep.Phases = append(rep.Phases, Level2Phase{
			Name:                ph.Name,
			RemoteAccessRatio:   ph.RemoteAccessRatio,
			RemoteCapacityRatio: ph.RemoteCapacityRatio,
			AI:                  ph.ArithmeticIntensity(),
			Stats:               ph,
		})
		rep.Phase2Stats = append(rep.Phase2Stats, ph)
	}
	return rep
}

// TuningVerdict classifies a phase's remote access ratio against the two
// Level-2 reference points.
type TuningVerdict int

const (
	// Balanced: between R_cap and R_BW — little optimization headroom.
	Balanced TuningVerdict = iota
	// ExcessRemote: above R_BW — the slow tier limits memory performance;
	// prioritize moving hot data local.
	ExcessRemote
	// UnderusedRemote: below R_cap — remote bandwidth is left on the
	// table (acceptable for latency-sensitive codes).
	UnderusedRemote
)

// String names the verdict.
func (v TuningVerdict) String() string {
	switch v {
	case ExcessRemote:
		return "excess-remote"
	case UnderusedRemote:
		return "underused-remote"
	default:
		return "balanced"
	}
}

// Verdict classifies one phase of a Level-2 report. The R_BW bound is the
// upper tuning reference and R_cap the lower, per §5.1 (note the remote
// side: R_cap^remote = 1 - localFraction is the lower bound only when it is
// below R_BW; the verdict uses the interval between the two references).
func (r Level2Report) Verdict(phase Level2Phase) TuningVerdict {
	lo, hi := r.RCap, r.RBW
	if lo > hi {
		lo, hi = hi, lo
	}
	switch {
	case phase.RemoteAccessRatio > hi+0.05:
		return ExcessRemote
	case phase.RemoteAccessRatio < lo-0.05:
		return UnderusedRemote
	default:
		return Balanced
	}
}

// DominantPhase returns the phase contributing most execution time — the
// optimization priority per §5.2.
func (r Level2Report) DominantPhase(cfg machine.Config) (Level2Phase, bool) {
	best := -1.0
	var out Level2Phase
	for _, ph := range r.Phases {
		if t := cfg.PhaseTime(ph.Stats, 0); t > best {
			best = t
			out = ph
		}
	}
	return out, best >= 0
}

// RooflineModel returns the memory-roofline model for the platform,
// memoized on the three ceilings it is built from.
func (p *Profiler) RooflineModel() roofline.Model {
	key := rooflineKey{
		peakFlops:      p.cfg.PeakFlops,
		localBandwidth: p.cfg.LocalBandwidth,
		dataBandwidth:  p.cfg.Link.DataBandwidth,
	}
	return p.cache.roofline.Value(key, func() roofline.Model {
		return roofline.Model{
			PeakFlops:       p.cfg.PeakFlops,
			LocalBandwidth:  p.cfg.LocalBandwidth,
			RemoteBandwidth: p.cfg.Link.DataBandwidth,
		}
	})
}

// ---------------------------------------------------------------------------
// Level 3
// ---------------------------------------------------------------------------

// Level3Report quantifies interference on memory pooling (§6).
type Level3Report struct {
	Workload      string
	Scale         int
	LocalFraction float64
	// LoIs are the injected interference levels (fractions of peak link
	// traffic); Relative[i] is the relative performance of the compute
	// phase at LoIs[i] versus LoI=0.
	LoIs     []float64
	Relative []float64
	// ICMean/ICLo/ICHi is the interference coefficient the workload
	// induces (time-weighted mean and per-phase extremes).
	ICMean, ICLo, ICHi float64
}

// Level3 measures interference sensitivity (relative performance of the
// compute phase under injected LoI) and induced interference (IC) for a
// workload on a pooled configuration.
func (p *Profiler) Level3(entry registry.Entry, scale int, localFraction float64, lois []float64) Level3Report {
	l2 := p.Level2(entry, scale, localFraction)
	cfg := p.ConfigForLocalFraction(entry, scale, localFraction)
	rep := Level3Report{
		Workload:      entry.Name,
		Scale:         scale,
		LocalFraction: localFraction,
		LoIs:          append([]float64(nil), lois...),
	}
	compute := computePhases(l2.Phase2Stats)
	for _, loi := range lois {
		rep.Relative = append(rep.Relative, cfg.Sensitivity(compute, loi))
	}
	md := lbench.NewModel(cfg)
	rep.ICMean, rep.ICLo, rep.ICHi = md.ICOfWorkload(cfg, l2.Phase2Stats)
	return rep
}

// computePhases drops the initialization phase (p1) — the paper's Figure 10
// reports sensitivity of the compute phases (X-p2).
func computePhases(phases []machine.PhaseStats) []machine.PhaseStats {
	var out []machine.PhaseStats
	for _, ph := range phases {
		if ph.Name != "p1" {
			out = append(out, ph)
		}
	}
	if len(out) == 0 {
		return phases
	}
	return out
}

// DeploymentAdvice renders the §6.1 guidance: low-sensitivity applications
// can lean on pooled capacity; highly sensitive ones should scale out to
// more nodes or avoid the pool.
func (r Level3Report) DeploymentAdvice() string {
	if len(r.Relative) == 0 {
		return "no measurement"
	}
	worst := r.Relative[len(r.Relative)-1]
	switch {
	case worst >= 0.95:
		return "low sensitivity: lean on pooled memory to reduce node count"
	case worst >= 0.85:
		return "moderate sensitivity: balance pooled capacity against co-location risk"
	default:
		return "high sensitivity: add compute nodes to cut remote access, or avoid the pool"
	}
}

// SortRegionsHot returns the regions sorted by access count descending
// (utility for reports).
func SortRegionsHot(regions []mem.RegionStats) []mem.RegionStats {
	out := append([]mem.RegionStats(nil), regions...)
	sort.Slice(out, func(i, j int) bool { return out[i].Accesses > out[j].Accesses })
	return out
}
