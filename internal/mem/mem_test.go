package mem

import (
	"testing"
	"testing/quick"
)

func TestFirstTouchSpill(t *testing.T) {
	s := NewSpace(Config{PageSize: 4096, LocalCapacity: 2 * 4096})
	r := s.Alloc("a", 4*4096)
	// Touch all four pages in order: first two land local, rest remote.
	for i := uint64(0); i < 4; i++ {
		s.Access(r.Base+i*4096, 64)
	}
	if got := s.Used(TierLocal); got != 2*4096 {
		t.Errorf("local used = %d, want %d", got, 2*4096)
	}
	if got := s.Used(TierRemote); got != 2*4096 {
		t.Errorf("remote used = %d, want %d", got, 2*4096)
	}
	if tier, _ := s.TierOf(r.Base); tier != TierLocal {
		t.Errorf("first page tier = %v, want local", tier)
	}
	if tier, _ := s.TierOf(r.Base + 3*4096); tier != TierRemote {
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
		if tier := s.Access(r.Base+off, 64); tier != TierLocal {
			t.Fatalf("tier at %#x = %v, want local on unbounded system", off, tier)
		}
	}
	if rr := s.RemoteAccessRatio(); rr != 0 {
		t.Errorf("remote access ratio = %v, want 0", rr)
	}
}

func TestPlacementPolicies(t *testing.T) {
	s := NewSpace(Config{PageSize: 4096, LocalCapacity: 8 * 4096})
	rRemote := s.AllocPlaced("forced-remote", 4096, PlaceRemote)
	rLocal := s.AllocPlaced("forced-local", 4096, PlaceLocal)
	if tier := s.Access(rRemote.Base, 64); tier != TierRemote {
		t.Errorf("PlaceRemote page went to %v", tier)
	}
	if tier := s.Access(rLocal.Base, 64); tier != TierLocal {
		t.Errorf("PlaceLocal page went to %v", tier)
	}
}

func TestPlaceLocalFailover(t *testing.T) {
	s := NewSpace(Config{PageSize: 4096, LocalCapacity: 4096})
	a := s.AllocPlaced("a", 4096, PlaceLocal)
	b := s.AllocPlaced("b", 4096, PlaceLocal)
	s.Access(a.Base, 64)
	if tier := s.Access(b.Base, 64); tier != TierRemote {
		t.Errorf("second PlaceLocal page with full local tier = %v, want remote", tier)
	}
}

func TestFreeReturnsLocalCapacity(t *testing.T) {
	s := NewSpace(Config{PageSize: 4096, LocalCapacity: 4096})
	tmp := s.Alloc("tmp", 4096)
	s.Access(tmp.Base, 64) // occupies the only local page
	hot := s.Alloc("hot", 4096)
	if tier := s.Access(hot.Base, 64); tier != TierRemote {
		t.Fatalf("hot page with full local tier = %v, want remote", tier)
	}
	s.Free(tmp)
	if got := s.Used(TierLocal); got != 0 {
		t.Fatalf("local used after free = %d, want 0", got)
	}
	hot2 := s.Alloc("hot2", 4096)
	if tier := s.Access(hot2.Base, 64); tier != TierLocal {
		t.Errorf("page after free = %v, want local (freed capacity reused)", tier)
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

func TestTrafficCounters(t *testing.T) {
	s := NewSpace(Config{PageSize: 4096, LocalCapacity: 4096})
	r := s.Alloc("a", 2*4096)
	s.Access(r.Base, 64)      // local
	s.Access(r.Base+4096, 64) // remote
	s.Access(r.Base+4096, 64) // remote again
	if got := s.TierBytes(TierLocal); got != 64 {
		t.Errorf("local bytes = %d, want 64", got)
	}
	if got := s.TierBytes(TierRemote); got != 128 {
		t.Errorf("remote bytes = %d, want 128", got)
	}
	if got := s.RemoteAccessRatio(); got < 0.66 || got > 0.67 {
		t.Errorf("remote access ratio = %v, want 2/3", got)
	}
	s.ResetTraffic()
	if got := s.TierBytes(TierRemote); got != 0 {
		t.Errorf("remote bytes after reset = %d, want 0", got)
	}
	// Placement survives the reset.
	if got := s.RemoteCapacityRatio(); got != 0.5 {
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
	stats := s.PerRegion()
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

// Property: remote capacity ratio is always within [0,1] and local usage
// never exceeds configured capacity.
func TestLocalCapacityNeverExceededProperty(t *testing.T) {
	f := func(touches []uint16, capPages uint8) bool {
		capacity := (uint64(capPages%32) + 1) * 4096
		s := NewSpace(Config{PageSize: 4096, LocalCapacity: capacity})
		r := s.Alloc("a", 128*4096)
		for _, o := range touches {
			s.Access(r.Base+uint64(o)%(128*4096), 64)
		}
		ratio := s.RemoteCapacityRatio()
		return s.Used(TierLocal) <= capacity && ratio >= 0 && ratio <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
