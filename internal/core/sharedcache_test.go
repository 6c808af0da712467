package core

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/workloads/registry"
)

// levelSizes snapshots the per-level resident key counts.
type levelSizes struct{ peak, curve, l1, l2, roofline int }

func sizesOf(c *SharedCache) levelSizes {
	c.mu.Lock()
	defer c.mu.Unlock()
	return levelSizes{len(c.peak), len(c.curve), len(c.l1), len(c.l2), len(c.roofline)}
}

// profileAll drives every memoized sub-result once.
func profileAll(p *Profiler, e registry.Entry) {
	p.PeakUsage(e, 1)
	p.Level1(e, 1)
	p.ScalingCurve(e, 1)
	p.Level2(e, 1, 0.5)
	p.RooflineModel()
}

// TestLinkAxisSharing pins the dependency-key contract for a link axis:
// two platforms differing only in link generation (bandwidth, latency,
// overhead) share the peak-usage, Level-1, scaling-curve and Level-2
// entries — none of those executions can read the link, and Level 2 sets
// the one link-dependent value it reports, R_BW, per call — but compute
// their own roofline entries, which read the link's data bandwidth.
func TestLinkAxisSharing(t *testing.T) {
	if testing.Short() {
		t.Skip("drives full profiles on two platforms; the full tier covers it")
	}
	c := NewSharedCache()
	base := machine.Default()
	alt := base.WithName("swept-gen").WithLink(
		base.Link.WithBandwidth(26e9, 62e9).WithLatency(380e-9).WithOverhead(1.25))
	e := registry.All()[0]

	pa := NewProfilerShared(base, c)
	profileAll(pa, e)
	before := sizesOf(c)

	pb := NewProfilerShared(alt, c)
	profileAll(pb, e)
	after := sizesOf(c)

	if after.peak != before.peak || after.l1 != before.l1 || after.curve != before.curve {
		t.Errorf("link-only platform change grew link-independent levels: peak %d->%d, l1 %d->%d, curve %d->%d",
			before.peak, after.peak, before.l1, after.l1, before.curve, after.curve)
	}
	if after.l2 != before.l2 {
		t.Errorf("l2 entries %d -> %d, want unchanged: the link reaches Level 2 only through R_BW", before.l2, after.l2)
	}
	if after.roofline != before.roofline+1 {
		t.Errorf("roofline entries %d -> %d, want +1: the roofline reads the link's data bandwidth", before.roofline, after.roofline)
	}
	// The shared entries really are shared results, not coincidentally
	// equal ones.
	if !reflect.DeepEqual(pa.Level1(e, 1), pb.Level1(e, 1)) {
		t.Error("Level-1 reports differ across link-only platform variants")
	}
	if pa.PeakUsage(e, 1) != pb.PeakUsage(e, 1) {
		t.Error("peak usage differs across link-only platform variants")
	}
	// The two Level-2 reports differ in R_BW and nothing else.
	la, lb := pa.Level2(e, 1, 0.5), pb.Level2(e, 1, 0.5)
	if la.RBW != base.BandwidthRatio() || lb.RBW != alt.BandwidthRatio() || la.RBW == lb.RBW {
		t.Errorf("R_BW %v and %v, want each platform's own %v and %v", la.RBW, lb.RBW, base.BandwidthRatio(), alt.BandwidthRatio())
	}
	lb.RBW = la.RBW
	if !reflect.DeepEqual(la, lb) {
		t.Error("Level-2 reports differ across link-only platform variants beyond R_BW")
	}
}

// TestLatencyAxisSharesLevel2 pins the finer grain of the Level-2 key: the
// report carries capacity splits and bandwidth ratios but no phase-time
// values, so a platform differing only in link *latency* shares even the
// Level-2 entry (a latency axis recomputes nothing in the profile cache).
func TestLatencyAxisSharesLevel2(t *testing.T) {
	if testing.Short() {
		t.Skip("drives Level-2 on two platforms; the full tier covers it")
	}
	c := NewSharedCache()
	base := machine.Default()
	pa := NewProfilerShared(base, c)
	pa.Level2(e0(), 1, 0.5)
	before := sizesOf(c)

	lagged := base.WithName("swept-lat").WithLink(base.Link.WithLatency(base.Link.Latency + 200e-9))
	pb := NewProfilerShared(lagged, c)
	rep := pb.Level2(e0(), 1, 0.5)
	after := sizesOf(c)
	if after != before {
		t.Errorf("latency-only platform change grew the cache: %+v -> %+v", before, after)
	}
	if !reflect.DeepEqual(rep, pa.Level2(e0(), 1, 0.5)) {
		t.Error("Level-2 reports differ across latency-only platform variants")
	}
}

func e0() registry.Entry { return registry.All()[0] }

// TestCapacityFractionSharing pins the other half of the contract: two
// cells differing only in the local capacity fraction share the Level-1
// profile (measured with the remote tier disabled, so the split cannot
// reach it) but compute their own Level-2 entries.
func TestCapacityFractionSharing(t *testing.T) {
	if testing.Short() {
		t.Skip("drives Level-1/2 profiles; the full tier covers it")
	}
	c := NewSharedCache()
	p := NewProfilerShared(machine.Default(), c)
	e := e0()
	p.Level1(e, 1)
	p.Level2(e, 1, 0.50)
	before := sizesOf(c)

	p.Level1(e, 1) // same key: a fraction is not even an input here
	p.Level2(e, 1, 0.25)
	after := sizesOf(c)
	if after.l1 != before.l1 {
		t.Errorf("l1 entries %d -> %d, want unchanged across capacity fractions", before.l1, after.l1)
	}
	if after.l2 != before.l2+1 {
		t.Errorf("l2 entries %d -> %d, want +1: the fraction is a Level-2 key field", before.l2, after.l2)
	}
}

// TestSingleFlightOneComputePerKey hammers one shared cache from 8
// concurrent workers over a common key set (run under -race in CI): every
// distinct key computes exactly once, every caller gets the computed
// value, and the counter algebra holds — Misses equals distinct keys,
// and every other lookup is a hit or an in-flight join.
func TestSingleFlightOneComputePerKey(t *testing.T) {
	const keys, workers = 16, 8
	c := NewSharedCache()
	var computes [keys]atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for k := 0; k < keys; k++ {
				k := k
				key := execKey{workload: fmt.Sprintf("w%d", k), scale: k}
				got := cached(c, c.peak, key, func() uint64 {
					computes[k].Add(1)
					time.Sleep(200 * time.Microsecond) // widen the join window
					return uint64(k) * 3
				})
				if got != uint64(k)*3 {
					t.Errorf("key %d: got %d, want %d", k, got, uint64(k)*3)
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	for k := range computes {
		if n := computes[k].Load(); n != 1 {
			t.Errorf("key %d computed %d times, want exactly 1", k, n)
		}
	}
	st := c.Stats()
	if st.Misses != keys {
		t.Errorf("Misses = %d, want %d (one per distinct key)", st.Misses, keys)
	}
	if total := st.Hits + st.Joins + st.Misses; total != keys*workers {
		t.Errorf("Hits+Joins+Misses = %d, want %d (every lookup counted once)", total, keys*workers)
	}
}

// TestConcurrentProfilersShareOneCompute is the same single-flight
// guarantee through the public surface: 8 profilers on one platform and
// cache, racing the same Level-2 profile, leave exactly as many misses as
// resident keys.
func TestConcurrentProfilersShareOneCompute(t *testing.T) {
	if testing.Short() {
		t.Skip("races 8 full Level-2 profiles; TestSingleFlightOneComputePerKey covers the short tier")
	}
	c := NewSharedCache()
	e := e0()
	var wg sync.WaitGroup
	reps := make([]Level2Report, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i] = NewProfilerShared(machine.Default(), c).Level2(e, 1, 0.5)
		}(i)
	}
	wg.Wait()
	for i := 1; i < 8; i++ {
		if !reflect.DeepEqual(reps[0], reps[i]) {
			t.Fatalf("profiler %d returned a different Level-2 report", i)
		}
	}
	if st := c.Stats(); int(st.Misses) != c.Entries() {
		t.Errorf("Misses = %d, resident keys = %d; want equal (exactly one compute per key)", st.Misses, c.Entries())
	}
}
