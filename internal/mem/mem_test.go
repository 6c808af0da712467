package mem

import (
	"testing"
	"testing/quick"
)

// tierAt returns the tier of the page containing addr under pl.
func tierAt(t *testing.T, s *Space, pl Layout, addr uint64) Tier {
	t.Helper()
	tier, ok := pl.Tier(int(addr / s.PageSize()))
	if !ok {
		t.Fatalf("page of %#x never bound", addr)
	}
	return tier
}

// now places the whole log at capacity and returns the layout and the
// tiers' resident bytes at its end.
func now(s *Space, capacity uint64) (Layout, Resident) {
	pl := s.Place(capacity, []int{s.Mark()})
	return pl, pl.Resident[0]
}

func TestFirstTouchSpill(t *testing.T) {
	s := NewSpace(Config{PageSize: 4096})
	r := s.Alloc("a", 4*4096)
	// Touch all four pages in order: first two land local, rest remote.
	for i := uint64(0); i < 4; i++ {
		s.Access(r.Base+i*4096, 64)
	}
	pl, res := now(s, 2*4096)
	if res.Local != 2*4096 {
		t.Errorf("local used = %d, want %d", res.Local, 2*4096)
	}
	if res.Remote != 2*4096 {
		t.Errorf("remote used = %d, want %d", res.Remote, 2*4096)
	}
	if tier := tierAt(t, s, pl, r.Base); tier != TierLocal {
		t.Errorf("first page tier = %v, want local", tier)
	}
	if tier := tierAt(t, s, pl, r.Base+3*4096); tier != TierRemote {
		t.Errorf("last page tier = %v, want remote", tier)
	}
}

// TestPeakFootprint checks that the peak is taken whenever a page binds,
// by Access or by Touch, and outlives frees and rebinds.
func TestPeakFootprint(t *testing.T) {
	s := NewSpace(Config{PageSize: 4096, LocalCapacity: 4096})
	check := func(step string, fp, peak uint64) {
		t.Helper()
		if s.Footprint() != fp || s.PeakFootprint() != peak {
			t.Errorf("%s: footprint %d, peak %d; want %d, %d", step, s.Footprint(), s.PeakFootprint(), fp, peak)
		}
	}
	check("empty", 0, 0)
	a := s.Alloc("a", 2*4096)
	s.Access(a.Base, 64)
	check("bind by Access", 4096, 4096)
	s.Touch(a.Base + 4096)
	check("bind by Touch", 2*4096, 2*4096)
	s.Access(a.Base+4096, 64)
	s.Touch(a.Base)
	check("bound pages again", 2*4096, 2*4096)
	s.Free(a)
	check("free", 0, 2*4096)
	b := s.Alloc("b", 3*4096)
	s.Touch(b.Base)
	s.Touch(b.Base + 4096)
	check("rebind below the peak", 2*4096, 2*4096)
	s.Touch(b.Base + 2*4096)
	check("rebind past the peak", 3*4096, 3*4096)
}

func TestUnboundedLocal(t *testing.T) {
	s := NewSpace(Config{})
	r := s.Alloc("a", 1<<20)
	for off := uint64(0); off < 1<<20; off += 4096 {
		s.Access(r.Base+off, 64)
	}
	pl, res := now(s, 0)
	for off := uint64(0); off < 1<<20; off += 4096 {
		if tier := tierAt(t, s, pl, r.Base+off); tier != TierLocal {
			t.Fatalf("tier at %#x = %v, want local on unbounded system", off, tier)
		}
	}
	if res.Remote != 0 || res.Local != 1<<20 {
		t.Errorf("resident local %d, remote %d; want %d, 0", res.Local, res.Remote, 1<<20)
	}
}

func TestPlacementPolicies(t *testing.T) {
	s := NewSpace(Config{PageSize: 4096})
	rRemote := s.AllocPlaced("forced-remote", 4096, PlaceRemote)
	rLocal := s.AllocPlaced("forced-local", 4096, PlaceLocal)
	s.Access(rRemote.Base, 64)
	s.Access(rLocal.Base, 64)
	for _, capacity := range []uint64{0, 8 * 4096} {
		pl, _ := now(s, capacity)
		if tier := tierAt(t, s, pl, rRemote.Base); tier != TierRemote {
			t.Errorf("capacity %d: PlaceRemote page went to %v", capacity, tier)
		}
		if tier := tierAt(t, s, pl, rLocal.Base); tier != TierLocal {
			t.Errorf("capacity %d: PlaceLocal page went to %v", capacity, tier)
		}
	}
}

func TestPlaceLocalFailover(t *testing.T) {
	s := NewSpace(Config{PageSize: 4096})
	a := s.AllocPlaced("a", 4096, PlaceLocal)
	b := s.AllocPlaced("b", 4096, PlaceLocal)
	s.Access(a.Base, 64)
	s.Access(b.Base, 64)
	pl, _ := now(s, 4096)
	if tier := tierAt(t, s, pl, b.Base); tier != TierRemote {
		t.Errorf("second PlaceLocal page with full local tier = %v, want remote", tier)
	}
}

func TestFreeReturnsLocalCapacity(t *testing.T) {
	s := NewSpace(Config{PageSize: 4096})
	tmp := s.Alloc("tmp", 4096)
	s.Access(tmp.Base, 64) // occupies the only local page
	hot := s.Alloc("hot", 4096)
	s.Access(hot.Base, 64)
	s.Free(tmp)
	afterFree := s.Mark()
	hot2 := s.Alloc("hot2", 4096)
	s.Access(hot2.Base, 64)
	pl := s.Place(4096, []int{afterFree})
	if tier := tierAt(t, s, pl, hot.Base); tier != TierRemote {
		t.Fatalf("hot page with full local tier = %v, want remote", tier)
	}
	if got := pl.Resident[0].Local; got != 0 {
		t.Fatalf("local used after free = %d, want 0", got)
	}
	if tier := tierAt(t, s, pl, hot2.Base); tier != TierLocal {
		t.Errorf("page after free = %v, want local (freed capacity reused)", tier)
	}
	// The freed page keeps the tier it had while it lived.
	if tier := tierAt(t, s, pl, tmp.Base); tier != TierLocal {
		t.Errorf("freed page tier = %v, want local", tier)
	}
}

func TestAccessFreedPagePanics(t *testing.T) {
	s := NewSpace(Config{})
	r := s.Alloc("a", 4096)
	s.Free(r)
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic on access to freed region")
		}
	}()
	s.Access(r.Base, 64)
}

// TestTrafficCounters checks the page histogram behind the per-region view:
// Access reports the page it counted, and each page's traffic lands on
// the tier its layout gives it.
func TestTrafficCounters(t *testing.T) {
	s := NewSpace(Config{PageSize: 4096})
	r := s.Alloc("a", 2*4096)
	for i, addr := range []uint64{r.Base, r.Base + 4096 + 64, r.Base + 4096} {
		if got, want := s.Access(addr, 64), int(addr/4096); got != want {
			t.Errorf("access %d: page %d, want %d", i, got, want)
		}
	}
	pl, res := now(s, 4096)
	stats := s.PerRegion(pl)
	want := RegionStats{Region: r, LocalPages: 1, RemotePages: 1, Accesses: 3, Bytes: 192}
	if len(stats) != 1 || stats[0] != want {
		t.Errorf("per-region stats = %+v, want [%+v]", stats, want)
	}
	if got := res.RemoteCapacityRatio(); got != 0.5 {
		t.Errorf("remote capacity ratio = %v, want 0.5", got)
	}
}

func TestPerRegionOrdering(t *testing.T) {
	s := NewSpace(Config{})
	cold := s.Alloc("cold", 4096)
	hot := s.Alloc("hot", 4096)
	s.Access(cold.Base, 64)
	for i := 0; i < 10; i++ {
		s.Access(hot.Base, 64)
	}
	stats := s.PerRegion(s.Place(0, nil))
	if len(stats) != 2 {
		t.Fatalf("got %d regions, want 2", len(stats))
	}
	if stats[0].Region.Name != "hot" {
		t.Errorf("hottest region = %q, want hot", stats[0].Region.Name)
	}
	if stats[0].Accesses != 10 {
		t.Errorf("hot accesses = %d, want 10", stats[0].Accesses)
	}
}

func TestPageAccessCounts(t *testing.T) {
	s := NewSpace(Config{PageSize: 4096})
	r := s.Alloc("a", 3*4096)
	s.Access(r.Base, 64)
	s.Access(r.Base, 64)
	s.Access(r.Base+8192, 64)
	counts := s.PageAccessCounts()
	if len(counts) != 2 {
		t.Fatalf("touched pages = %d, want 2", len(counts))
	}
	sum := counts[0] + counts[1]
	if sum != 3 {
		t.Errorf("total page accesses = %d, want 3", sum)
	}
}

// Property: used capacity equals page size times the number of distinct
// touched pages, regardless of the access pattern.
func TestCapacityAccountingProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		s := NewSpace(Config{PageSize: 4096, LocalCapacity: 16 * 4096})
		r := s.Alloc("a", 64*4096)
		seen := map[uint64]bool{}
		for _, o := range offsets {
			addr := r.Base + uint64(o)%(64*4096)
			s.Access(addr, 64)
			seen[addr/4096] = true
		}
		return s.Footprint() == uint64(len(seen))*4096
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: at every point of the run, the remote capacity ratio is within
// [0,1] and local usage never exceeds the capacity.
func TestLocalCapacityNeverExceededProperty(t *testing.T) {
	f := func(touches []uint16, capPages uint8) bool {
		capacity := (uint64(capPages%32) + 1) * 4096
		s := NewSpace(Config{PageSize: 4096})
		r := s.Alloc("a", 128*4096)
		marks := []int{0}
		for _, o := range touches {
			s.Access(r.Base+uint64(o)%(128*4096), 64)
			marks = append(marks, s.Mark())
		}
		for _, res := range s.Place(capacity, marks).Resident {
			ratio := res.RemoteCapacityRatio()
			if res.Local > capacity || ratio < 0 || ratio > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// randomLog drives a space with a random sequence of allocations under
// every placement policy, page binds and frees, decoded from ops.
func randomLog(ops []uint16) *Space {
	s := NewSpace(Config{PageSize: 4096})
	var live []*Region
	for _, op := range ops {
		arg := int(op >> 2)
		switch {
		case op%4 == 0 || len(live) == 0:
			pages := uint64(arg%6 + 1)
			live = append(live, s.AllocPlaced("r", pages*4096, Placement(arg/6%3)))
		case op%4 == 3:
			i := arg % len(live)
			s.Free(live[i])
			live = append(live[:i], live[i+1:]...)
		default:
			r := live[arg%len(live)]
			s.Touch(r.Base + uint64(arg/len(live))%r.Size)
		}
	}
	return s
}

// Property: placement is inclusive in the capacity. For C <= C', every page
// local at C is local at C', so at every point of the log C' holds at least
// as many local bytes, and at most its extra whole pages more.
func TestPlaceInclusionProperty(t *testing.T) {
	f := func(ops []uint16, capA, capB uint16) bool {
		s := randomLog(ops)
		// Up to 16 pages of room in 512-byte steps, so capacities fall
		// between whole pages too.
		capA, capB = capA%128, capB%128
		lo, hi := uint64(min(capA, capB))*512, uint64(max(capA, capB))*512
		marks := make([]int, s.Mark()+1)
		for i := range marks {
			marks[i] = i
		}
		capacities := []uint64{lo, hi, 0} // zero is unbounded, the largest
		if lo == 0 {
			capacities = []uint64{hi, 0}
		}
		for k := 1; k < len(capacities); k++ {
			small, large := s.Place(capacities[k-1], marks), s.Place(capacities[k], marks)
			for n := range s.pages {
				ts, bound := small.Tier(n)
				if tl, _ := large.Tier(n); bound && ts == TierLocal && tl != TierLocal {
					return false
				}
			}
			room := capacities[k]/4096*4096 - capacities[k-1]/4096*4096
			for i := range marks {
				a, b := small.Resident[i], large.Resident[i]
				if b.Local < a.Local || (capacities[k] != 0 && b.Local-a.Local > room) {
					return false
				}
				if a.Local+a.Remote != b.Local+b.Remote {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
