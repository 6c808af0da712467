// Package mem models a paged virtual address space backed by a two-tier
// memory system: a fixed-capacity node-local tier and a fabric-attached
// remote tier (the rack-scale memory pool of the paper's Figure 2).
//
// Placement follows the Linux default first-touch policy the paper's
// emulation platform relies on: a page is bound to the local tier on its
// first access while local capacity remains, and spills to the remote tier
// afterwards. The package also keeps the page-granular access histogram that
// backs the bandwidth–capacity scaling curves (Figure 6) and the
// numa_maps-style footprint sampling of the multi-level profiler.
package mem

import (
	"fmt"
	"sort"
)

// Tier identifies a memory tier of the emulated platform.
type Tier int

const (
	// TierLocal is the node-local (fast, socket-attached) tier.
	TierLocal Tier = iota
	// TierRemote is the pooled (fabric-attached) tier behind the link.
	TierRemote
	numTiers
)

// String returns the conventional name of the tier.
func (t Tier) String() string {
	switch t {
	case TierLocal:
		return "local"
	case TierRemote:
		return "remote"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// Config describes the address space geometry and tier capacities.
type Config struct {
	// PageSize is the placement granularity in bytes. Defaults to 4096.
	PageSize uint64
	// LocalCapacity is the local tier capacity in bytes. Zero means
	// unbounded (a single-tier system).
	LocalCapacity uint64
	// RemoteCapacity is the remote tier capacity in bytes. Zero means
	// unbounded, matching the paper's assumption that the pool always has
	// room for spilled pages.
	RemoteCapacity uint64
}

func (c Config) withDefaults() Config {
	if c.PageSize == 0 {
		c.PageSize = 4096
	}
	return c
}

// Placement is a page-placement policy hint carried by an allocation.
type Placement int

const (
	// PlaceFirstTouch binds pages by the default first-touch policy.
	PlaceFirstTouch Placement = iota
	// PlaceLocal forces pages to the local tier (libnuma-style explicit
	// placement), failing over to remote only when local is full.
	PlaceLocal
	// PlaceRemote forces pages to the remote tier, the "explicitly
	// allocate less accessed objects in remote memory" option of §7.1.
	PlaceRemote
)

// page holds the per-page bookkeeping. Pages start unbound (bound=false)
// and acquire a tier on first touch.
type page struct {
	bound     bool
	tier      Tier
	accesses  uint64 // cacheline-granule memory accesses (post-cache traffic)
	bytes     uint64
	regionID  int
	allocated bool
}

// Region is a named allocation, the unit the profiler attributes accesses to
// ("memory allocation sites" in the paper's §7.1 case study).
type Region struct {
	ID        int
	Name      string
	Base      uint64
	Size      uint64
	Placement Placement
	freed     bool
}

// End returns the first address past the region.
func (r *Region) End() uint64 { return r.Base + r.Size }

// Space is the paged address space of one emulated compute node.
type Space struct {
	cfg      Config
	nextAddr uint64
	pages    []page
	regions  []*Region

	localUsed  uint64
	remoteUsed uint64
	peak       uint64 // largest localUsed+remoteUsed after any bind

	// Tier traffic counters, in bytes, reset per profiling phase. These
	// correspond to the LOCAL_DRAM / REMOTE_DRAM offcore events.
	tierBytes [numTiers]uint64
}

// NewSpace creates an empty address space with the given configuration.
func NewSpace(cfg Config) *Space {
	c := cfg.withDefaults()
	return &Space{cfg: c, nextAddr: c.PageSize} // keep address 0 unused
}

// Config returns the space configuration (with defaults applied).
func (s *Space) Config() Config { return s.cfg }

// PageSize returns the placement granularity in bytes.
func (s *Space) PageSize() uint64 { return s.cfg.PageSize }

// Alloc reserves size bytes under name using the first-touch policy.
func (s *Space) Alloc(name string, size uint64) *Region {
	return s.AllocPlaced(name, size, PlaceFirstTouch)
}

// AllocPlaced reserves size bytes with an explicit placement policy.
// The reservation is page-aligned; pages bind to a tier on first access.
func (s *Space) AllocPlaced(name string, size uint64, pl Placement) *Region {
	if size == 0 {
		size = 1
	}
	ps := s.cfg.PageSize
	npages := (size + ps - 1) / ps
	base := s.nextAddr
	id := len(s.regions)
	s.nextAddr += npages * ps
	need := int(s.nextAddr / ps)
	for len(s.pages) < need {
		s.pages = append(s.pages, page{})
	}
	for i := base / ps; i < base/ps+npages; i++ {
		s.pages[i].allocated = true
		s.pages[i].regionID = id
	}
	r := &Region{ID: id, Name: name, Base: base, Size: size, Placement: pl}
	s.regions = append(s.regions, r)
	return r
}

// Free releases a region: its bound pages return their capacity to their
// tiers and the address range becomes invalid. Freeing local pages is what
// makes the one-line BFS optimization of §7.1 effective — it reserves local
// headroom for later first-touch allocations.
func (s *Space) Free(r *Region) {
	if r.freed {
		return
	}
	r.freed = true
	ps := s.cfg.PageSize
	for i := r.Base / ps; i < (r.End()+ps-1)/ps; i++ {
		p := &s.pages[i]
		if p.bound {
			switch p.tier {
			case TierLocal:
				s.localUsed -= ps
			case TierRemote:
				s.remoteUsed -= ps
			}
			p.bound = false
		}
		p.allocated = false
	}
}

// Regions returns all regions ever allocated, in allocation order.
func (s *Space) Regions() []*Region { return s.regions }

// bind places an unbound page according to policy and capacity.
func (s *Space) bind(p *page, pl Placement) {
	ps := s.cfg.PageSize
	wantLocal := true
	switch pl {
	case PlaceRemote:
		wantLocal = false
	case PlaceLocal, PlaceFirstTouch:
		wantLocal = true
	}
	if wantLocal && (s.cfg.LocalCapacity == 0 || s.localUsed+ps <= s.cfg.LocalCapacity) {
		p.tier = TierLocal
		s.localUsed += ps
	} else {
		p.tier = TierRemote
		s.remoteUsed += ps
	}
	p.bound = true
	// Only a bind grows the footprint, so sampling here sees every peak.
	if fp := s.Footprint(); fp > s.peak {
		s.peak = fp
	}
}

// Touch binds the page containing addr (if unbound) and returns its tier
// without recording traffic: placement only, as in a pass that measures the
// footprint without simulating the cache.
func (s *Space) Touch(addr uint64) Tier {
	p := s.pageAt(addr)
	if !p.bound {
		s.bind(p, s.regions[p.regionID].Placement)
	}
	return p.tier
}

// Access records a memory access of n bytes at addr (post-cache traffic:
// a demand fill or hardware prefetch fill) and returns the serving tier.
func (s *Space) Access(addr uint64, n uint64) Tier {
	p := s.pageAt(addr)
	if !p.bound {
		s.bind(p, s.regions[p.regionID].Placement)
	}
	p.accesses++
	p.bytes += n
	s.tierBytes[p.tier] += n
	return p.tier
}

// TierOf returns the tier currently serving addr; ok is false when the page
// is not yet bound.
func (s *Space) TierOf(addr uint64) (t Tier, ok bool) {
	idx := addr / s.cfg.PageSize
	if idx >= uint64(len(s.pages)) {
		return 0, false
	}
	p := s.pages[idx]
	if !p.bound {
		return 0, false
	}
	return p.tier, true
}

func (s *Space) pageAt(addr uint64) *page {
	idx := addr / s.cfg.PageSize
	if idx >= uint64(len(s.pages)) {
		panic(fmt.Sprintf("mem: access to unallocated address %#x", addr))
	}
	p := &s.pages[idx]
	if !p.allocated {
		panic(fmt.Sprintf("mem: access to freed/unallocated address %#x", addr))
	}
	return p
}

// ResetTraffic clears the per-tier traffic counters (phase boundary) while
// preserving placement and the page histogram.
func (s *Space) ResetTraffic() { s.tierBytes = [numTiers]uint64{} }

// TierBytes returns bytes served by the tier since the last ResetTraffic.
func (s *Space) TierBytes(t Tier) uint64 { return s.tierBytes[t] }

// Used returns the bytes of bound pages in the tier (numa_maps resident
// set for that node).
func (s *Space) Used(t Tier) uint64 {
	if t == TierLocal {
		return s.localUsed
	}
	return s.remoteUsed
}

// Footprint returns the total bytes of bound pages across tiers.
func (s *Space) Footprint() uint64 { return s.localUsed + s.remoteUsed }

// PeakFootprint returns the largest Footprint the space has had, whether
// its pages were bound by Access or by Touch.
func (s *Space) PeakFootprint() uint64 { return s.peak }

// RemoteCapacityRatio is the paper's "remote capacity ratio": the ratio of
// lower-tier memory to total memory in use, measured from placement.
func (s *Space) RemoteCapacityRatio() float64 {
	total := s.Footprint()
	if total == 0 {
		return 0
	}
	return float64(s.remoteUsed) / float64(total)
}

// RemoteAccessRatio is the paper's "remote access ratio": the fraction of
// memory-access bytes served by the remote tier since the last ResetTraffic.
func (s *Space) RemoteAccessRatio() float64 {
	total := s.tierBytes[TierLocal] + s.tierBytes[TierRemote]
	if total == 0 {
		return 0
	}
	return float64(s.tierBytes[TierRemote]) / float64(total)
}

// PageAccessCounts returns the access count of every touched page, in
// arbitrary order. This is the PEBS-style sample stream aggregated by page.
func (s *Space) PageAccessCounts() []uint64 {
	var out []uint64
	for i := range s.pages {
		if s.pages[i].bound {
			out = append(out, s.pages[i].accesses)
		}
	}
	return out
}

// RegionStats summarizes placement and traffic for one region.
type RegionStats struct {
	Region      *Region
	LocalPages  int
	RemotePages int
	Accesses    uint64
	Bytes       uint64
}

// PerRegion returns placement/traffic statistics for every live region,
// sorted by descending access count — the "memory allocation sites"
// view used to find the hot Parents array in §7.1.
func (s *Space) PerRegion() []RegionStats {
	ps := s.cfg.PageSize
	stats := make([]RegionStats, 0, len(s.regions))
	for _, r := range s.regions {
		if r.freed {
			continue
		}
		rs := RegionStats{Region: r}
		for i := r.Base / ps; i < (r.End()+ps-1)/ps; i++ {
			p := s.pages[i]
			if !p.bound {
				continue
			}
			if p.tier == TierLocal {
				rs.LocalPages++
			} else {
				rs.RemotePages++
			}
			rs.Accesses += p.accesses
			rs.Bytes += p.bytes
		}
		stats = append(stats, rs)
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].Accesses > stats[j].Accesses })
	return stats
}
