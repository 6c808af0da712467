// Package repro is the public API of memdis, a Go reproduction of
// "A Quantitative Approach for Adopting Disaggregated Memory in HPC
// Systems" (Wahlgren, Schieffer, Gokhale, Peng — SC 2023,
// arXiv:2308.14780).
//
// The library provides:
//
//   - an emulated rack-scale memory-pooling platform (a compute node with a
//     local memory tier, a pooled remote tier behind a contended link, an L2
//     cache with a stream prefetcher, and a roofline-based timing model);
//   - the paper's three-level profiling methodology: Level 1 (intrinsic
//     characteristics), Level 2 (multi-tier access ratios against the R_cap
//     and R_BW references), Level 3 (interference sensitivity and the
//     interference coefficient);
//   - LBench, the link-interference generator and probe;
//   - six instrumented HPC workloads (HPL, Hypre, NekRS, BFS, SuperLU,
//     XSBench) with three input scales each;
//   - an interference-aware job scheduling simulator; and
//   - experiment drivers that regenerate every table and figure of the
//     paper's evaluation.
//
// # Quick start
//
// The unified entry point is the Service facade — one handle owning the
// worker pool, the per-platform experiment suites, the memoizing artifact
// store and the sweep-campaign memo, with context-first execution:
//
//	svc, err := repro.New(repro.WithWorkers(8))
//	doc, err := svc.Artifact(ctx, repro.ArtifactRequest{Artifact: "figure9"})
//	camp, err := svc.Sweep(ctx, grid)   // cancellable mid-campaign
//
// The three-level profiling workflow is available directly:
//
//	p := repro.NewProfiler(repro.DefaultPlatform())
//	entry, _ := repro.Workload("XSBench")
//	l1 := p.Level1(entry, 1)            // intrinsic characteristics
//	l2 := p.Level2(entry, 1, 0.5)       // 50%-50% two-tier system
//	l3 := p.Level3(entry, 1, 0.5,       // interference sensitivity
//	    []float64{0, 0.25, 0.5})
//
// See the examples/ directory for complete programs, and docs/API.md for
// the versioned HTTP API Service.Handler serves.
package repro

import (
	"context"
	"io"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/lbench"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/placement"
	"repro/internal/pool"
	"repro/internal/report"
	"repro/internal/roofline"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workloads"
	"repro/internal/workloads/bfs"
	"repro/internal/workloads/registry"
)

// Error classification sentinels: every lookup and validation failure the
// Service (and the /v1 HTTP layer riding on it) produces matches exactly
// one of these under errors.Is, so callers branch on kind — not on error
// text.
var (
	// ErrUnknownPlatform matches a failed scenario lookup (PlatformNamed,
	// ArtifactRequest.Platform, ?platform= query).
	ErrUnknownPlatform = scenario.ErrUnknown
	// ErrUnknownArtifact matches a failed artifact-id lookup, including a
	// figure alias used where a canonical id is required.
	ErrUnknownArtifact = experiments.ErrUnknownID
	// ErrInvalidSweep matches every sweep-campaign validation failure:
	// malformed or unknown axes, inadmissible values, oversized grids. The
	// library (Service.Sweep) and the HTTP layer run the same validator, so
	// the guardrails are identical on both surfaces.
	ErrInvalidSweep = sweep.ErrInvalid
)

// Platform describes the emulated node: memory geometry, cache and
// prefetcher, pool link, and the timing-model constants.
type Platform = machine.Config

// Machine is one emulated compute node executing a workload.
type Machine = machine.Machine

// PhaseStats is the per-phase measurement record all analyses derive from.
type PhaseStats = machine.PhaseStats

// DefaultPlatform returns the testbed-calibrated configuration: 73 GB/s /
// 111 ns local tier, 34 GB/s / 202 ns pool link with 85 GB/s peak raw
// traffic, 250 Gflop/s peak compute.
func DefaultPlatform() Platform { return machine.Default() }

// Scenario is a named, declarative platform scenario: a complete platform
// plus the capacity protocol to sweep on it. The registry answers the
// paper's "should *this* system adopt disaggregated memory" question for
// systems other than the testbed — CXL-generation link variants, pool-heavy
// capacity tiers, skewed splits.
type Scenario = scenario.Spec

// PlatformNamed looks up a scenario by name (e.g. "cxl-gen5").
func PlatformNamed(name string) (Scenario, error) { return scenario.Get(name) }

// NewMachine builds a machine for direct workload execution.
func NewMachine(p Platform) *Machine { return machine.New(p) }

// Profiler runs the paper's three-level analysis on a platform.
type Profiler = core.Profiler

// NewProfiler returns a profiler for the given platform.
func NewProfiler(p Platform) *Profiler { return core.NewProfiler(p) }

// Level1Report, Level2Report and Level3Report are the three analysis levels.
type (
	// Level1Report is the general workload characterization (§4).
	Level1Report = core.Level1Report
	// Level2Report quantifies multi-tier memory access (§5).
	Level2Report = core.Level2Report
	// Level3Report quantifies interference on memory pooling (§6).
	Level3Report = core.Level3Report
)

// TuningVerdict classifies a phase's remote access ratio against the R_cap
// and R_BW references.
type TuningVerdict = core.TuningVerdict

// Verdict values.
const (
	Balanced        = core.Balanced
	ExcessRemote    = core.ExcessRemote
	UnderusedRemote = core.UnderusedRemote
)

// WorkloadEntry describes one evaluated application (a row of Table 2).
type WorkloadEntry = registry.Entry

// Runnable is the workload interface: anything that drives a machine
// through named phases.
type Runnable = workloads.Workload

// Workloads returns the six evaluated applications in the paper's order.
// The slice is a copy.
func Workloads() []WorkloadEntry { return registry.All() }

// Workload looks up an application by name (e.g. "BFS").
func Workload(name string) (WorkloadEntry, error) { return registry.Get(name) }

// Run executes a workload on a fresh machine and returns the machine with
// its recorded phases.
func Run(p Platform, w Runnable) *Machine { return core.Run(p, w) }

// ScalingPoint is one point of the Figure 6 bandwidth-capacity scaling
// curve: the hottest FootprintPct percent of pages carry AccessPct percent
// of memory accesses.
type ScalingPoint = core.ScalingPoint

// Roofline is the (memory-)roofline analytical model.
type Roofline = roofline.Model

// LBenchModel is the calibrated interference generator/probe.
type LBenchModel = lbench.Model

// NewLBench calibrates LBench against a platform.
func NewLBench(p Platform) LBenchModel { return lbench.NewModel(p) }

// LBenchConfig configures a generator run (threads, flops per element).
type LBenchConfig = lbench.Config

// Placement is the allocation placement policy (first-touch, forced local,
// forced remote).
type Placement = mem.Placement

// Placement values.
const (
	PlaceFirstTouch = mem.PlaceFirstTouch
	PlaceLocal      = mem.PlaceLocal
	PlaceRemote     = mem.PlaceRemote
)

// Job is one schedulable unit for the co-location simulator.
type Job = sched.Job

// SchedulePolicy selects queued jobs for freed nodes.
type SchedulePolicy = sched.Policy

// Scheduling policies.
const (
	FIFO              = sched.FIFO
	InterferenceAware = sched.InterferenceAware
)

// RackConfig describes a rack of nodes sharing one memory pool.
type RackConfig = sched.RackConfig

// Schedule simulates a job queue on a rack under the given policy.
func Schedule(rc RackConfig, queue []Job, pol SchedulePolicy) sched.ScheduleResult {
	return sched.Schedule(rc, queue, pol)
}

// ScheduleResult is the outcome of one rack co-location simulation.
type ScheduleResult = sched.ScheduleResult

// ScheduleSummary compares the baseline and interference-aware schedulers
// over repeated runs of one workload (the Figure 13 protocol).
type ScheduleSummary = sched.Summary

// CompareSchedulers runs the Figure 13 protocol: n runs of the profiled
// phases under the baseline (LoI 0-50%) and interference-aware (LoI 0-20%)
// interference processes, fanned out over at most workers goroutines
// (values below 2 run sequentially). Every run owns a deterministic RNG
// substream keyed by its run index, so the summary is byte-identical for
// any worker count. Once ctx is done no further Monte-Carlo run starts and
// the call returns ctx.Err().
func CompareSchedulers(ctx context.Context, name string, p Platform, phases []PhaseStats, n int, seed uint64, workers int) (ScheduleSummary, error) {
	return sched.CompareContext(ctx, name, p, phases, n, seed, pool.NewLimiter(workers))
}

// BFSVariant selects the §7.1 case-study placement strategy for BFS.
type BFSVariant = bfs.Variant

// BFS placement variants: the unmodified code, the hot-array-first
// reordering (fix 1), and reordering plus freeing the initialization
// scratch (fix 2, the paper's one-line change).
const (
	BFSBaseline    = bfs.Baseline
	BFSReorderOnly = bfs.ReorderOnly
	BFSOptimized   = bfs.Optimized
)

// NewBFS constructs a BFS instance at input scale 1, 2 or 4 with the given
// placement variant.
func NewBFS(scale int, v BFSVariant) Runnable {
	b := bfs.New(scale)
	b.Variant = v
	return b
}

// RegionStats summarizes placement and traffic for one named allocation —
// the per-allocation-site view behind the §7.1 hot-object analysis.
type RegionStats = mem.RegionStats

// SortRegionsHot returns regions sorted by descending access count.
func SortRegionsHot(regions []RegionStats) []RegionStats {
	return core.SortRegionsHot(regions)
}

// PlacementObject is one candidate for the §5.2 static placement
// optimizers: a profiled allocation site with size and access count.
type PlacementObject = placement.Object

// PlacementPlan assigns objects to tiers and predicts the resulting remote
// access ratio.
type PlacementPlan = placement.Plan

// PlacementFromRegions converts a Level-2 per-region profile into placement
// candidates.
func PlacementFromRegions(regions []RegionStats) []PlacementObject {
	return placement.FromRegions(regions)
}

// GreedyPlacement packs objects into the local tier hottest-density-first —
// the generalized §7.1 allocate-hottest-first recipe.
func GreedyPlacement(objects []PlacementObject, localCapacity uint64) PlacementPlan {
	return placement.Greedy(objects, localCapacity)
}

// ExactPlacement solves the placement as a 0/1 knapsack at page granularity
// (the NP-complete formulation §5.2 names, tractable at profile scale).
func ExactPlacement(objects []PlacementObject, localCapacity, pageSize uint64) PlacementPlan {
	return placement.Exact(objects, localCapacity, pageSize)
}

// InterleavePattern is the N:M tiered-page interleave of the kernel patch
// the paper cites; BandwidthInterleave picks the pattern matching the tier
// bandwidth ratio.
type InterleavePattern = placement.InterleavePattern

// BandwidthInterleave returns the N:M pattern proportional to the tier
// bandwidths.
func BandwidthInterleave(localBW, remoteBW float64, maxTerm int) InterleavePattern {
	return placement.BandwidthInterleave(localBW, remoteBW, maxTerm)
}

// RecordTrace executes the workload on a machine built from p while
// streaming its operation trace to w. The trace can later be replayed onto
// machines with different memory configurations — the profile-once /
// analyze-everywhere workflow.
func RecordTrace(p Platform, wl Runnable, w io.Writer) (*Machine, error) {
	m := NewMachine(p)
	err := trace.Record(m, wl.Run, w)
	return m, err
}

// ReplayTrace applies a recorded operation trace to a fresh machine built
// from p and returns it with the replayed phases.
func ReplayTrace(p Platform, r io.Reader) (*Machine, error) {
	m := NewMachine(p)
	if err := trace.Replay(m, r); err != nil {
		return nil, err
	}
	return m, nil
}

// ExperimentIDs lists every table/figure id in paper order. The slice is a
// copy.
func ExperimentIDs() []string { return append([]string(nil), experiments.IDs...) }

// CanonicalArtifactID resolves an artifact id or figure alias ("fig9") to
// its canonical id ("figure9") — the id documents report, stores key on,
// and /v1 URLs use. Unknown ids match ErrUnknownArtifact.
func CanonicalArtifactID(id string) (string, error) { return experiments.CanonicalID(id) }

// SweepAxis is one swept dimension of a parameter-sweep campaign: an axis
// name ("gen" for interconnect generation, "lat" for added link latency in
// ns, "bw" for a link bandwidth scale factor, "frac" for the local
// capacity fraction) and the values it takes.
type SweepAxis = sweep.Axis

// ParseSweepAxis parses a command-line style axis declaration: either an
// explicit value list ("gen=0,5,6") or an inclusive range
// ("frac=0.25:0.75:0.25").
func ParseSweepAxis(s string) (SweepAxis, error) { return sweep.ParseAxis(s) }

// SweepGrid is a declarative sweep campaign: a base scenario plus the axes
// whose cross-product generates one derived scenario per grid cell, each
// with a canonical name such as "gen=5,frac=0.25". It is the unbounded
// generator counterpart of the fixed scenario registry
// (Service.Scenarios).
type SweepGrid = sweep.Grid

// SweepCell holds one workload's headline metrics on one grid cell: the
// Level-2 remote access ratio and verdict, the Level-3 interference
// sensitivity and induced coefficient, and the scheduling comparison.
type SweepCell = sweep.Cell

// SweepCampaign is one executed sweep: every grid cell's metrics plus the
// base reference. Its Sweep and Sensitivity methods reduce it to the two
// artifact documents ("sweep": the long-form per-cell table;
// "sensitivity": per-axis marginal deltas vs the base with the best/worst
// frontier cells), renderable in any ArtifactFormat.
type SweepCampaign = sweep.Campaign

// DefaultSweepGrid returns the canonical two-axis campaign on a scenario's
// base system: interconnect generation (base link, CXL gen5, CXL gen6)
// crossed with the paper's three local-capacity fractions. It is the grid
// behind the "sweep" and "sensitivity" experiment artifacts.
func DefaultSweepGrid(base Scenario) SweepGrid { return sweep.DefaultGrid(base) }

// Doc is the typed artifact document every experiment reduces to: an
// ordered list of Table/Series/Timeline/Dist/Note blocks with units-aware
// cells. The renderers below and the artifact store consume Docs, so the
// same measurements serve text reports, JSON APIs and CSV exports.
type Doc = report.Doc

// ArtifactFormat names one of the pluggable renderers ("text", "json",
// "csv").
type ArtifactFormat = report.Format

// Renderer formats.
const (
	FormatText = report.FormatText
	FormatJSON = report.FormatJSON
	FormatCSV  = report.FormatCSV
)

// ParseArtifactFormat resolves a format spelling ("text", "json", "csv";
// "txt" accepted, case-insensitive) — the parser behind the CLI -format
// flag and the HTTP ?format= parameter. Failure returns a structured
// error listing every accepted spelling.
func ParseArtifactFormat(s string) (ArtifactFormat, error) { return report.ParseFormat(s) }

// RenderText renders a document as plain text, byte-identical to the
// artifact's historical Render() output.
func RenderText(d Doc) string { return report.RenderText(d) }

// RenderJSON renders a document as lossless, schema-stable JSON: the
// output unmarshals back into an equal Doc.
func RenderJSON(d Doc) (string, error) { return report.RenderJSON(d) }

// RenderCSV renders a document as sectioned, machine-parseable CSV with
// raw (unformatted) numeric values.
func RenderCSV(d Doc) (string, error) { return report.RenderCSV(d) }

// ParseArtifactJSON is the inverse of RenderJSON: it recovers the typed
// document from its JSON rendering — what a client of the /v1 API decodes
// responses with.
func ParseArtifactJSON(s string) (Doc, error) { return report.ParseJSON(s) }

// RenderArtifact renders a document in the given format.
func RenderArtifact(d Doc, f ArtifactFormat) (string, error) { return report.Render(d, f) }

// ArtifactStore memoizes artifact documents and renders per (platform,
// artifact, format) and writes artifact directories (Service.Store).
type ArtifactStore = report.Store
