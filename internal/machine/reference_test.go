package machine_test

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/cache"
	"repro/internal/lbench"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/workloads/bfs"
	"repro/internal/workloads/registry"
)

// refMachine is the eager placement and per-tier fill accounting that
// SplitAt derives after the fact, kept as the reference
// TestSplitAtMatchesReference holds SplitAt to. It observes a machine's
// operations through machine.Hook and simulates them on a cache of its
// own. Each refSpace places one local capacity: a page takes its tier when
// it binds, at the first fill of one of its lines, every fill is counted
// on its page's tier as it happens, and a phase reads the per-tier
// counters and the tiers' usage at its end. Its logic must not change.
type refMachine struct {
	cache    *cache.Cache
	pageSize uint64
	spaces   []*refSpace
	regions  []*mem.Region // in allocation order
	freed    map[*mem.Region]bool

	name      string
	baseCache cache.Counters
	flops     float64
	flopsBase float64
	tickLines uint64
	tickFlops float64
	ticks     []machine.Tick
}

// refSpace is one capacity's placement and traffic state.
type refSpace struct {
	capacity              uint64
	pages                 []refPage // by page number
	localUsed, remoteUsed uint64
	tierBytes             [2]uint64                       // [tier] since phase start
	fills                 [cache.NumFillReasons][2]uint64 // [reason][tier] since phase start
	phases                []machine.PhaseStats
}

type refPage struct {
	region            *mem.Region
	bound             bool
	tier              mem.Tier
	accesses, bytesIn uint64
}

func newRefMachine(cfg machine.Config, capacities []uint64) *refMachine {
	r := &refMachine{pageSize: cfg.Mem.PageSize, freed: map[*mem.Region]bool{}}
	for _, c := range capacities {
		r.spaces = append(r.spaces, &refSpace{capacity: c})
	}
	cc := cfg.Cache
	cc.PageSize = r.pageSize
	r.cache = cache.New(cc, r.fill)
	return r
}

func (r *refMachine) pagesOf(reg *mem.Region) (first, end uint64) {
	return reg.Base / r.pageSize, (reg.End() + r.pageSize - 1) / r.pageSize
}

func (r *refMachine) OnAlloc(reg *mem.Region, _ mem.Placement) {
	r.regions = append(r.regions, reg)
	first, end := r.pagesOf(reg)
	for _, s := range r.spaces {
		for uint64(len(s.pages)) < end {
			s.pages = append(s.pages, refPage{})
		}
		for i := first; i < end; i++ {
			s.pages[i].region = reg
		}
	}
}

func (r *refMachine) OnFree(reg *mem.Region) {
	r.freed[reg] = true
	first, end := r.pagesOf(reg)
	for _, s := range r.spaces {
		for i := first; i < end; i++ {
			p := &s.pages[i]
			if !p.bound {
				continue
			}
			if p.tier == mem.TierLocal {
				s.localUsed -= r.pageSize
			} else {
				s.remoteUsed -= r.pageSize
			}
			p.bound = false
		}
	}
}

func (r *refMachine) OnAccess(addr, n uint64, write bool) { r.cache.AccessRange(addr, n, write) }

func (r *refMachine) fill(lineAddr uint64, reason cache.FillReason) {
	for _, s := range r.spaces {
		p := &s.pages[lineAddr/r.pageSize]
		if !p.bound {
			if p.region.Placement != mem.PlaceRemote && (s.capacity == 0 || s.localUsed+r.pageSize <= s.capacity) {
				p.tier = mem.TierLocal
				s.localUsed += r.pageSize
			} else {
				p.tier = mem.TierRemote
				s.remoteUsed += r.pageSize
			}
			p.bound = true
		}
		p.accesses++
		p.bytesIn += cache.LineSize
		s.tierBytes[p.tier] += cache.LineSize
		s.fills[reason][p.tier]++
	}
}

func (r *refMachine) OnFlops(n float64) { r.flops += n }

func (r *refMachine) OnTick() {
	lines := r.cache.Counters().LinesIn
	r.ticks = append(r.ticks, machine.Tick{LinesIn: lines - r.tickLines, Flops: r.flops - r.tickFlops})
	r.tickLines, r.tickFlops = lines, r.flops
}

func (r *refMachine) OnPhase(name string, start bool) {
	if start {
		r.name = name
		r.baseCache = r.cache.Counters()
		r.flopsBase = r.flops
		r.tickLines, r.tickFlops = r.baseCache.LinesIn, r.flops
		r.ticks = nil
		for _, s := range r.spaces {
			s.tierBytes = [2]uint64{}
			s.fills = [cache.NumFillReasons][2]uint64{}
		}
		return
	}
	c, b := r.cache.Counters(), r.baseCache
	delta := cache.Counters{
		DemandAccesses:   c.DemandAccesses - b.DemandAccesses,
		DemandHits:       c.DemandHits - b.DemandHits,
		DemandMisses:     c.DemandMisses - b.DemandMisses,
		LinesIn:          c.LinesIn - b.LinesIn,
		PrefetchFills:    c.PrefetchFills - b.PrefetchFills,
		UselessPrefetch:  c.UselessPrefetch - b.UselessPrefetch,
		PrefetchedHits:   c.PrefetchedHits - b.PrefetchedHits,
		DemandMissStream: c.DemandMissStream - b.DemandMissStream,
	}
	for _, s := range r.spaces {
		p := machine.PhaseStats{
			Name:             r.name,
			Flops:            r.flops - r.flopsBase,
			LocalBytes:       s.tierBytes[mem.TierLocal],
			RemoteBytes:      s.tierBytes[mem.TierRemote],
			DemandMissLocal:  s.fills[cache.FillDemand][mem.TierLocal],
			DemandMissRemote: s.fills[cache.FillDemand][mem.TierRemote],
			StreamMissLocal:  s.fills[cache.FillDemandStream][mem.TierLocal],
			StreamMissRemote: s.fills[cache.FillDemandStream][mem.TierRemote],
			Cache:            delta,
			FootprintBytes:   s.localUsed + s.remoteUsed,
			Ticks:            r.ticks,
		}
		if total := p.LocalBytes + p.RemoteBytes; total > 0 {
			p.RemoteAccessRatio = float64(p.RemoteBytes) / float64(total)
		}
		if p.FootprintBytes > 0 {
			p.RemoteCapacityRatio = float64(s.remoteUsed) / float64(p.FootprintBytes)
		}
		s.phases = append(s.phases, p)
	}
}

// perRegion is the per-region view of the live regions, in the order
// mem.Space.PerRegion sorts them.
func (r *refMachine) perRegion(s *refSpace) []mem.RegionStats {
	stats := make([]mem.RegionStats, 0, len(r.regions))
	for _, reg := range r.regions {
		if r.freed[reg] {
			continue
		}
		rs := mem.RegionStats{Region: reg}
		first, end := r.pagesOf(reg)
		for i := first; i < end; i++ {
			p := s.pages[i]
			if !p.bound {
				continue
			}
			if p.tier == mem.TierLocal {
				rs.LocalPages++
			} else {
				rs.RemotePages++
			}
			rs.Accesses += p.accesses
			rs.Bytes += p.bytesIn
		}
		stats = append(stats, rs)
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].Accesses > stats[j].Accesses })
	return stats
}

// referenceRuns are the executions TestSplitAtMatchesReference checks:
// every registry workload at scale 1, plus BFS-optimized, which frees its
// scratch mid-run, and an LBench sweep over a region placed remote.
func referenceRuns() map[string]func(*machine.Machine) {
	runs := map[string]func(*machine.Machine){}
	for _, e := range registry.All() {
		runs[e.Name] = func(m *machine.Machine) { e.New(1).Run(m) }
	}
	runs["BFS-optimized"] = func(m *machine.Machine) {
		b := bfs.New(1)
		b.Variant = bfs.Optimized
		b.Run(m)
	}
	runs["LBench"] = func(m *machine.Machine) {
		b := lbench.NewBench(lbench.Config{Threads: 2, FlopsPerElement: 3})
		b.Elements = 1 << 14
		b.Iterations = 2
		b.Run(m)
	}
	return runs
}

// TestSplitAtMatchesReference holds SplitAt to the eager reference: for
// each run, at local capacity zero (unbounded), one page, and 0.1 to 1.0
// of the peak footprint, the phases and the per-region view of one
// execution split at the capacity equal the reference's, field for field.
// The machine itself runs with its local tier at a quarter of the peak, so
// its own Phases must equal the reference at that capacity.
func TestSplitAtMatchesReference(t *testing.T) {
	cfg := machine.Default()
	ps := cfg.Mem.PageSize
	runs := referenceRuns()
	names := make([]string, 0, len(runs))
	for name := range runs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		run := runs[name]
		t.Run(name, func(t *testing.T) {
			peak := machine.PeakFootprintOf(cfg, run)
			capacities := []uint64{0, ps}
			for _, f := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.0} {
				capacities = append(capacities, uint64(f*float64(peak)))
			}
			const own = 3 // the machine's own capacity: 0.25 of peak
			ref := newRefMachine(cfg, capacities)
			m := machine.New(cfg.WithLocalCapacity(capacities[own]))
			m.SetHook(ref)
			run(m)
			if !reflect.DeepEqual(m.Phases(), ref.spaces[own].phases) {
				t.Errorf("Phases at the config's capacity %d differ from the reference", capacities[own])
			}
			for i, c := range capacities {
				phases, regions := m.SplitAt(c)
				want := ref.spaces[i].phases
				if len(phases) != len(want) {
					t.Fatalf("capacity %d: %d phases, reference %d", c, len(phases), len(want))
				}
				for k := range phases {
					if !reflect.DeepEqual(phases[k], want[k]) {
						t.Errorf("capacity %d, phase %s:\n split     %+v\n reference %+v", c, want[k].Name, phases[k], want[k])
					}
				}
				if wantRegions := ref.perRegion(ref.spaces[i]); !reflect.DeepEqual(regions, wantRegions) {
					t.Errorf("capacity %d: per-region view\n split     %+v\n reference %+v", c, regions, wantRegions)
				}
			}
		})
	}
}
