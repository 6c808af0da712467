package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/machine"
	"repro/internal/workloads/registry"
)

// TestProfilerConcurrentCallersShareOneExecution hammers one profiler from
// many goroutines and checks that (a) every caller sees the same report and
// (b) the single-flight cache ran each distinct profile exactly once.
func TestProfilerConcurrentCallersShareOneExecution(t *testing.T) {
	p := NewProfiler(machine.Default())
	entry, err := registry.Get("XSBench")
	if err != nil {
		t.Fatal(err)
	}

	seq := NewProfiler(machine.Default())
	wantPeak := seq.PeakUsage(entry, 1)
	wantL2 := seq.Level2(entry, 1, 0.5)

	var wg sync.WaitGroup
	var bad atomic.Int32
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if p.PeakUsage(entry, 1) != wantPeak {
				bad.Add(1)
			}
			l2 := p.Level2(entry, 1, 0.5)
			if l2.RCap != wantL2.RCap || len(l2.Phases) != len(wantL2.Phases) {
				bad.Add(1)
			}
			for i := range l2.Phases {
				if l2.Phases[i].RemoteAccessRatio != wantL2.Phases[i].RemoteAccessRatio {
					bad.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d concurrent callers saw a report differing from the sequential profiler", n)
	}

	// The caches hold exactly one entry per distinct key. Level2's
	// execution records the peak, so the peak map has one entry too.
	if p.cache.l2.Len() != 1 || p.cache.peak.Len() != 1 {
		t.Fatalf("cache sizes: l2=%d peak=%d, want 1 and 1", p.cache.l2.Len(), p.cache.peak.Len())
	}
}

// TestProfilerCachedReportsAreStable re-requests a cached Level-1 report
// and checks it is the same value (memoization must not recompute or
// mutate).
func TestProfilerCachedReportsAreStable(t *testing.T) {
	p := NewProfiler(machine.Default())
	entry, err := registry.Get("XSBench")
	if err != nil {
		t.Fatal(err)
	}
	a := p.Level1(entry, 1)
	b := p.Level1(entry, 1)
	if a.PeakFootprint != b.PeakFootprint || a.Accuracy != b.Accuracy ||
		len(a.Phases) != len(b.Phases) {
		t.Fatal("cached Level1 report changed between calls")
	}
	if &a.Phases[0] != &b.Phases[0] {
		t.Fatal("cached Level1 report was recomputed instead of memoized")
	}
}
