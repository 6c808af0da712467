// Dependency-keyed shared memoization for the multi-level profiler.
//
// Every memoized sub-result (peak usage, scaling curve, Level-1, Level-2,
// roofline) is keyed by the exact subset of platform-configuration fields it
// can read, so profilers for *different* platforms share entries whenever
// the differing fields cannot influence the result. A sweep stepping a
// link axis (generation, latency, bandwidth scale) re-executes nothing that
// the link change cannot touch: workload execution depends only on the
// memory and cache geometry, and the single-tier Level-1 timing never
// exercises the link because an unbounded local tier serves every access.
//
// The key types are the enforcement mechanism: a sub-result cannot secretly
// depend on a field its key omits without breaking the byte-identical
// golden artifacts, and a field added to a key is an explicit declaration
// that the level reads it. docs/ARCHITECTURE.md lists the field budget per
// level.
package core

import (
	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/memo"
	"repro/internal/roofline"
)

// execKey identifies one workload execution: the workload, its scale, and
// the only configuration fields that can influence how the run unfolds —
// the memory geometry and the cache geometry. Link parameters and node
// timing constants are deliberately absent: the emulated machine consults
// the link for traffic accounting only, never for behaviour, so platforms
// that differ solely in link generation, latency, or bandwidth execute
// workloads identically. The platform name is likewise excluded — scenario
// variants that rename a platform without changing execution-relevant
// fields share entries.
type execKey struct {
	workload string
	scale    int
	mem      mem.Config
	cache    cache.Config
}

// l1Key identifies a Level-1 report. Level 1 runs on a single-tier system
// (local capacity forced to zero in the embedded execKey), so no access is
// ever remote and every link term in the timing model vanishes; beyond the
// execution inputs the report reads only the node timing constants listed
// here. LatencyBWCoupling is absent: it scales a remote-bandwidth term
// that is zero on a single tier.
type l1Key struct {
	exec                execKey
	peakFlops           float64
	localBandwidth      float64
	localLatency        float64
	mlp                 float64
	streamDemandPenalty float64
}

// l2Key identifies a Level-2 report: one execution on the base memory
// geometry, split at the fraction of the peak footprint that run reached.
// Level 2 reports execution data only — no modeled times — and R_BW, the
// one platform ratio it carries, is set per call (Profiler.Level2), so no
// link or node timing field is a key field: cells stepping any link axis
// share Level-2 entries.
type l2Key struct {
	exec     execKey
	fraction float64
}

// rooflineKey identifies a roofline model: the three ceilings and nothing
// else.
type rooflineKey struct {
	peakFlops      float64
	localBandwidth float64
	dataBandwidth  float64
}

// SharedCache memoizes profiler sub-results under dependency keys. One
// cache may back any number of Profilers for any number of platforms
// concurrently: each level is a single-flight memo (concurrent requests
// for the same key block on exactly one compute), and cached values are
// shared between callers, so they must be treated as read-only.
//
// The zero value is not usable; construct with NewSharedCache.
type SharedCache struct {
	stats    memo.Stats
	peak     *memo.Memo[execKey, uint64]
	curve    *memo.Memo[execKey, []ScalingPoint]
	l1       *memo.Memo[l1Key, Level1Report]
	l2       *memo.Memo[l2Key, Level2Report]
	roofline *memo.Memo[rooflineKey, roofline.Model]
}

// NewSharedCache returns an empty shared profile cache.
func NewSharedCache() *SharedCache {
	c := &SharedCache{}
	c.peak = memo.New[execKey, uint64](0, &c.stats)
	c.curve = memo.New[execKey, []ScalingPoint](0, &c.stats)
	c.l1 = memo.New[l1Key, Level1Report](0, &c.stats)
	c.l2 = memo.New[l2Key, Level2Report](0, &c.stats)
	c.roofline = memo.New[rooflineKey, roofline.Model](0, &c.stats)
	return c
}

// CacheStats is a point-in-time snapshot of shared-cache traffic. Every
// lookup increments exactly one counter: Misses counts lookups that created
// the entry and ran the compute, Joins counts lookups that blocked on a
// compute already in flight, and Hits counts lookups served from a finished
// entry. Misses therefore equals the number of distinct keys ever computed.
type CacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Joins  int64 `json:"joins"`
}

// Stats returns a snapshot of the cache counters.
func (c *SharedCache) Stats() CacheStats {
	return CacheStats{Hits: c.stats.Hits.Load(), Misses: c.stats.Misses.Load(), Joins: c.stats.Joins.Load()}
}

// Entries returns the number of distinct keys resident across all levels
// (test and diagnostic hook).
func (c *SharedCache) Entries() int {
	return c.peak.Len() + c.curve.Len() + c.l1.Len() + c.l2.Len() + c.roofline.Len()
}

// execKeyFor builds the execution key for a workload run on cfg.
func execKeyFor(cfg machine.Config, workload string, scale int) execKey {
	return execKey{workload: workload, scale: scale, mem: cfg.Mem, cache: cfg.Cache}
}

// singleTierKeyFor is execKeyFor with the local capacity normalized to
// zero — the single-tier system Level 1 and the scaling curve run on, so
// platforms differing only in capacity split share those entries.
func singleTierKeyFor(cfg machine.Config, workload string, scale int) execKey {
	cfg.Mem.LocalCapacity = 0
	return execKeyFor(cfg, workload, scale)
}
