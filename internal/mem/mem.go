// Package mem models a paged virtual address space backed by a two-tier
// memory system: a fixed-capacity node-local tier and a fabric-attached
// remote tier (the rack-scale memory pool of the paper's Figure 2).
//
// Placement follows the Linux default first-touch policy the paper's
// emulation platform relies on: a page is bound to the local tier on its
// first access while local capacity remains, and spills to the remote tier
// afterwards. A Space does not pick tiers as pages bind. It records the
// order of page binds and region frees, and Place replays that record at
// any local capacity. Nothing that drives a space reads a tier, so the
// binds and frees are the same at every capacity; only each page's tier
// changes, and a page keeps the tier it took at its bind until its region
// is freed. One run therefore yields the placement at every capacity, and
// the local sets nest: a page local at one capacity is local at every
// larger one (see Place).
//
// The package also keeps the page-granular access histogram that backs the
// bandwidth–capacity scaling curves (Figure 6) and the numa_maps-style
// footprint sampling of the multi-level profiler.
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
	// unbounded (a single-tier system). A Space itself places no page:
	// the capacity applies where its bind/free log is placed (Place).
	LocalCapacity uint64
	// RemoteCapacity is meant as the remote tier capacity in bytes, but no
	// code reads it: the remote tier is unbounded, matching the paper's
	// assumption that the pool always has room for spilled pages. Nothing
	// in this module sets it, so it splits no profile cache key. It stays
	// because campaign job ids hash the JSON of every machine.Config
	// field, this one included: deleting it would change every stored
	// job's id (see TestJobIDStable in internal/jobs).
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

// page holds the per-page bookkeeping. Pages start unbound and bind on
// their first touch.
type page struct {
	bound     bool
	allocated bool
	regionID  int
	accesses  uint64 // cacheline-granule memory accesses (post-cache traffic)
	bytes     uint64
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

// pages returns the page numbers [first, end) the region spans.
func (r *Region) pages(ps uint64) (first, end int) {
	return int(r.Base / ps), int((r.End() + ps - 1) / ps)
}

// Space is the paged address space of one emulated compute node.
type Space struct {
	cfg      Config
	nextAddr uint64
	pages    []page
	regions  []*Region

	footprint uint64 // bytes of bound pages
	peak      uint64 // largest footprint after any bind

	// log holds every page bind and region free in order: n for the bind
	// of page n, ^id for the free of region id. Page numbers are never
	// reused, so a page binds at most once.
	log []int
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
// The reservation is page-aligned; pages bind on first access.
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
	r := &Region{ID: id, Name: name, Base: base, Size: size, Placement: pl}
	first, end := r.pages(ps)
	for i := first; i < end; i++ {
		s.pages[i].allocated = true
		s.pages[i].regionID = id
	}
	s.regions = append(s.regions, r)
	return r
}

// Free releases a region: its bound pages leave the footprint, returning
// their capacity to their tiers, and the address range becomes invalid.
// Freeing local pages is what makes the one-line BFS optimization of §7.1
// effective — it reserves local headroom for later first-touch allocations.
func (s *Space) Free(r *Region) {
	if r.freed {
		return
	}
	r.freed = true
	s.log = append(s.log, ^r.ID)
	first, end := r.pages(s.cfg.PageSize)
	for i := first; i < end; i++ {
		p := &s.pages[i]
		if p.bound {
			s.footprint -= s.cfg.PageSize
			p.bound = false
		}
		p.allocated = false
	}
}

// Regions returns all regions ever allocated, in allocation order.
func (s *Space) Regions() []*Region { return s.regions }

// bind binds page n and logs it.
func (s *Space) bind(n int) {
	s.pages[n].bound = true
	s.log = append(s.log, n)
	s.footprint += s.cfg.PageSize
	// Only a bind grows the footprint, so sampling here sees every peak.
	if s.footprint > s.peak {
		s.peak = s.footprint
	}
}

// Touch binds the page containing addr if it is unbound, without recording
// traffic: as in a pass that measures the footprint without simulating the
// cache.
func (s *Space) Touch(addr uint64) {
	if n := s.pageAt(addr); !s.pages[n].bound {
		s.bind(n)
	}
}

// Access records a memory access of n bytes at addr (post-cache traffic:
// a demand fill or hardware prefetch fill), binding its page if unbound,
// and returns the page number.
func (s *Space) Access(addr uint64, n uint64) int {
	i := s.pageAt(addr)
	p := &s.pages[i]
	if !p.bound {
		s.bind(i)
	}
	p.accesses++
	p.bytes += n
	return i
}

// pageAt returns the number of the allocated page containing addr.
func (s *Space) pageAt(addr uint64) int {
	idx := addr / s.cfg.PageSize
	if idx >= uint64(len(s.pages)) {
		panic(fmt.Sprintf("mem: access to unallocated address %#x", addr))
	}
	if !s.pages[idx].allocated {
		panic(fmt.Sprintf("mem: access to freed/unallocated address %#x", addr))
	}
	return int(idx)
}

// Footprint returns the bytes of bound pages.
func (s *Space) Footprint() uint64 { return s.footprint }

// PeakFootprint returns the largest Footprint the space has had, whether
// its pages were bound by Access or by Touch.
func (s *Space) PeakFootprint() uint64 { return s.peak }

// Mark returns the length of the bind/free log so far: a point of the run
// at which Place reports the tiers' resident bytes.
func (s *Space) Mark() int { return len(s.log) }

// Resident is the bytes of bound pages in each tier at one point of a run
// (the numa_maps resident set of each node).
type Resident struct {
	Local, Remote uint64
}

// RemoteCapacityRatio is the paper's "remote capacity ratio": the ratio of
// lower-tier memory to total memory in use, measured from placement.
func (r Resident) RemoteCapacityRatio() float64 {
	total := r.Local + r.Remote
	if total == 0 {
		return 0
	}
	return float64(r.Remote) / float64(total)
}

// Layout is where a space's pages sit at one local capacity: the tier each
// page took at its bind, and the resident bytes of each tier at the marks
// it was placed for.
type Layout struct {
	// Resident holds the tiers' resident bytes at each mark passed to
	// Place, in order.
	Resident []Resident
	// bound and remote are by page number: whether the page had bound
	// when the log was placed, and whether it bound remote.
	bound, remote []bool
}

// Tier returns the tier page n took at its bind; ok is false when the
// page had not bound.
func (p Layout) Tier(n int) (t Tier, ok bool) {
	if n >= len(p.bound) || !p.bound[n] {
		return TierLocal, false
	}
	if p.remote[n] {
		return TierRemote, true
	}
	return TierLocal, true
}

// Place replays the bind/free log with the local tier capped at capacity
// bytes (zero means unbounded): a page binds local while local capacity
// remains, unless its region is placed remote, and remote otherwise, and a
// free returns its region's pages' capacity to their tiers. Resident is
// taken at each of marks, which must be non-decreasing values of Mark.
//
// The local sets nest. Take capacities C <= C' (zero, unbounded, above
// every other), with c and c' whole pages of room. At every point of the log, the live pages local at C are local
// at C', and at most c' - c more pages are local at C' than at C. A page
// that goes remote at C' finds c' pages local there, so at least c are
// local at C, and it goes remote at C too. The surplus grows only when a
// page goes local at C' and remote at C, which leaves at most c' pages
// local at C' against exactly c at C; a free removes pages from both sets
// and never grows it.
func (s *Space) Place(capacity uint64, marks []int) Layout {
	ps := s.cfg.PageSize
	pl := Layout{
		Resident: make([]Resident, len(marks)),
		bound:    make([]bool, len(s.pages)),
		remote:   make([]bool, len(s.pages)),
	}
	var res Resident
	m := 0
	for i, ev := range s.log {
		for ; m < len(marks) && marks[m] <= i; m++ {
			pl.Resident[m] = res
		}
		if ev < 0 {
			first, end := s.regions[^ev].pages(ps)
			for n := first; n < end; n++ {
				switch {
				case !pl.bound[n]:
				case pl.remote[n]:
					res.Remote -= ps
				default:
					res.Local -= ps
				}
			}
			continue
		}
		pl.bound[ev] = true
		if s.regions[s.pages[ev].regionID].Placement != PlaceRemote && (capacity == 0 || res.Local+ps <= capacity) {
			res.Local += ps
		} else {
			pl.remote[ev] = true
			res.Remote += ps
		}
	}
	for ; m < len(marks); m++ {
		pl.Resident[m] = res
	}
	return pl
}

// PageAccessCounts returns the access count of every bound page, in
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

// PerRegion returns placement/traffic statistics for every live region
// under pl, a layout of the whole log, sorted by descending access
// count — the "memory allocation sites" view used to find the hot Parents
// array in §7.1.
func (s *Space) PerRegion(pl Layout) []RegionStats {
	stats := make([]RegionStats, 0, len(s.regions))
	for _, r := range s.regions {
		if r.freed {
			continue
		}
		rs := RegionStats{Region: r}
		first, end := r.pages(s.cfg.PageSize)
		for i := first; i < end; i++ {
			p := s.pages[i]
			if !p.bound {
				continue
			}
			if t, _ := pl.Tier(i); t == TierLocal {
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
