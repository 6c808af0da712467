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
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/mem"
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

// flight is one single-flight cache slot.
type flight[T any] struct {
	once sync.Once
	val  T
	// done flips after val is computed, distinguishing a lookup that found
	// a finished entry (hit) from one that joined an in-flight compute.
	done atomic.Bool
	// panicked records a panic raised by the compute function: sync.Once
	// marks itself done even then, so without this every later caller for
	// the key would silently receive the zero value.
	panicked any
}

// SharedCache memoizes profiler sub-results under dependency keys. One
// cache may back any number of Profilers for any number of platforms
// concurrently: entries are single-flight (concurrent requests for the same
// key block on exactly one compute) and race-safe, and cached values are
// shared between callers, so they must be treated as read-only.
//
// The zero value is not usable; construct with NewSharedCache.
type SharedCache struct {
	mu       sync.Mutex
	peak     map[execKey]*flight[uint64]
	curve    map[execKey]*flight[[]ScalingPoint]
	l1       map[l1Key]*flight[Level1Report]
	l2       map[l2Key]*flight[Level2Report]
	roofline map[rooflineKey]*flight[roofline.Model]

	hits   atomic.Int64
	misses atomic.Int64
	joins  atomic.Int64
}

// NewSharedCache returns an empty shared profile cache.
func NewSharedCache() *SharedCache {
	return &SharedCache{
		peak:     map[execKey]*flight[uint64]{},
		curve:    map[execKey]*flight[[]ScalingPoint]{},
		l1:       map[l1Key]*flight[Level1Report]{},
		l2:       map[l2Key]*flight[Level2Report]{},
		roofline: map[rooflineKey]*flight[roofline.Model]{},
	}
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
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Joins: c.joins.Load()}
}

// Entries returns the number of distinct keys resident across all levels
// (test and diagnostic hook).
func (c *SharedCache) Entries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.peak) + len(c.curve) + len(c.l1) + len(c.l2) + len(c.roofline)
}

// cached returns the memoized value for key, computing it with f exactly
// once even under concurrent callers from any number of profilers. The
// cache lock is held only for the map lookup, never during f. If f panics,
// the panic is re-raised for every caller of the key rather than poisoning
// the slot with a zero value.
func cached[K comparable, T any](c *SharedCache, m map[K]*flight[T], key K, f func() T) T {
	c.mu.Lock()
	e := m[key]
	switch {
	case e == nil:
		e = &flight[T]{}
		m[key] = e
		c.misses.Add(1)
	case e.done.Load():
		c.hits.Add(1)
	default:
		c.joins.Add(1)
	}
	c.mu.Unlock()
	e.once.Do(func() {
		defer func() {
			if r := recover(); r != nil {
				e.panicked = r
				panic(r)
			}
		}()
		e.val = f()
		e.done.Store(true)
	})
	if e.panicked != nil {
		panic(e.panicked)
	}
	return e.val
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
