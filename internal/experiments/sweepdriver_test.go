package experiments

import (
	"context"
	"testing"

	"repro/internal/machine"
	"repro/internal/sweep"
	"repro/internal/workloads/registry"
)

// TestCampaignMemoBounded pins the campaign memo's bound and eviction
// order. Of MaxCampaigns+4 distinct one-cell latency grids run on one
// suite, the newest MaxCampaigns stay memoized and the four oldest are
// evicted, oldest first: grid 0 executes again while the newest grid is a
// hit. No profile level keys on link latency, so the shared profile cache
// stops growing after the first grid.
func TestCampaignMemoBounded(t *testing.T) {
	s := NewSuite(machine.Default())
	s.Entries = registry.All()[:1]
	s.Runs = 2
	ctx := context.Background()
	grid := func(i int) sweep.Grid {
		return s.SweepGrid([]sweep.Axis{{Name: "lat", Values: []float64{float64(10 * i)}}})
	}
	const grids = MaxCampaigns + 4
	camps := make([]*sweep.Campaign, grids)
	var entries int
	for i := range camps {
		c, err := s.RunSweepContext(ctx, grid(i))
		if err != nil {
			t.Fatal(err)
		}
		camps[i] = c
		if n := s.Profiler.Cache().Entries(); i == 0 {
			entries = n
		} else if n != entries {
			t.Errorf("grid %d grew the profile cache from %d to %d entries, want no growth past the first grid", i, entries, n)
		}
	}
	if n := s.campaigns.Len(); n != MaxCampaigns {
		t.Fatalf("%d campaigns memoized after %d grids, want %d", n, grids, MaxCampaigns)
	}
	for i := range camps {
		if _, ok := s.campaigns.Get(grid(i).Key()); ok != (i >= grids-MaxCampaigns) {
			t.Errorf("grid %d memoized = %v, want only the newest %d kept", i, ok, MaxCampaigns)
		}
	}
	if c, err := s.RunSweepContext(ctx, grid(0)); err != nil || c == camps[0] {
		t.Errorf("grid 0 = %p, %v; want a fresh execution, not the evicted %p", c, err, camps[0])
	}
	if c, err := s.RunSweepContext(ctx, grid(grids-1)); err != nil || c != camps[grids-1] {
		t.Errorf("newest grid = %p, %v; want the memoized %p", c, err, camps[grids-1])
	}
}
