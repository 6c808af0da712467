package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func newTest(pf bool) *Cache {
	return New(Config{Size: 32 * 1024, Ways: 4, PrefetchEnabled: pf}, nil)
}

func TestColdMissThenHit(t *testing.T) {
	c := newTest(false)
	c.Access(0, false)
	c.Access(0, false)
	ctr := c.Counters()
	if ctr.DemandMisses != 1 || ctr.DemandHits != 1 {
		t.Errorf("misses=%d hits=%d, want 1 and 1", ctr.DemandMisses, ctr.DemandHits)
	}
	if ctr.LinesIn != 1 {
		t.Errorf("lines in = %d, want 1", ctr.LinesIn)
	}
}

func TestSequentialStreamPrefetchCoverage(t *testing.T) {
	c := newTest(true)
	// Stream through 64 KiB sequentially: after training, most lines
	// should be prefetched before the demand access arrives.
	for addr := uint64(0); addr < 64*1024; addr += LineSize {
		c.Access(addr, false)
	}
	ctr := c.Counters()
	if ctr.PrefetchFills == 0 {
		t.Fatalf("no prefetches on a sequential stream: %v", ctr)
	}
	if cov := ctr.Coverage(); cov < 0.5 {
		t.Errorf("sequential coverage = %.2f, want >= 0.5 (%v)", cov, ctr)
	}
	if acc := ctr.Accuracy(); acc < 0.8 {
		t.Errorf("sequential accuracy = %.2f, want >= 0.8 (%v)", acc, ctr)
	}
}

func TestRandomAccessLowPrefetch(t *testing.T) {
	c := newTest(true)
	rng := stats.NewRNG(7)
	span := uint64(8 << 20)
	for i := 0; i < 20000; i++ {
		addr := uint64(rng.Intn(int(span/LineSize))) * LineSize
		c.Access(addr, false)
	}
	ctr := c.Counters()
	// Random traffic must not look prefetch-friendly.
	if cov := ctr.Coverage(); cov > 0.15 {
		t.Errorf("random coverage = %.2f, want <= 0.15 (%v)", cov, ctr)
	}
}

func TestPrefetchDisable(t *testing.T) {
	c := newTest(false)
	for addr := uint64(0); addr < 64*1024; addr += LineSize {
		c.Access(addr, false)
	}
	ctr := c.Counters()
	if ctr.PrefetchFills != 0 {
		t.Errorf("prefetch fills with prefetcher disabled = %d", ctr.PrefetchFills)
	}
	if ctr.DemandMisses != ctr.LinesIn {
		t.Errorf("misses=%d linesIn=%d, want equal without prefetch", ctr.DemandMisses, ctr.LinesIn)
	}
}

func TestRuntimePrefetchToggle(t *testing.T) {
	c := newTest(true)
	c.SetPrefetchEnabled(false)
	for addr := uint64(0); addr < 32*1024; addr += LineSize {
		c.Access(addr, false)
	}
	if ctr := c.Counters(); ctr.PrefetchFills != 0 {
		t.Errorf("prefetch fills after disable = %d", ctr.PrefetchFills)
	}
	c.SetPrefetchEnabled(true)
	for addr := uint64(1 << 20); addr < 1<<20+32*1024; addr += LineSize {
		c.Access(addr, false)
	}
	if ctr := c.Counters(); ctr.PrefetchFills == 0 {
		t.Errorf("no prefetch fills after re-enable")
	}
}

func TestPrefetchStopsAtPageBoundary(t *testing.T) {
	fills := map[uint64]bool{}
	c := New(Config{Size: 32 * 1024, Ways: 4, PrefetchEnabled: true, PageSize: 4096},
		func(la uint64, r FillReason) {
			if r == FillPrefetch {
				fills[la] = true
			}
		})
	// Walk only the first page.
	for addr := uint64(0); addr < 4096; addr += LineSize {
		c.Access(addr, false)
	}
	for la := range fills {
		if la >= 4096 {
			t.Errorf("prefetch crossed page boundary: fill at %#x", la)
		}
	}
}

func TestFillCallbackReasons(t *testing.T) {
	var demand, prefetch int
	c := New(Config{Size: 32 * 1024, Ways: 4, PrefetchEnabled: true},
		func(la uint64, r FillReason) {
			if r == FillDemand {
				demand++
			} else {
				prefetch++
			}
		})
	for addr := uint64(0); addr < 16*1024; addr += LineSize {
		c.Access(addr, false)
	}
	ctr := c.Counters()
	if uint64(demand) != ctr.DemandMisses {
		t.Errorf("demand fills callback=%d counter=%d", demand, ctr.DemandMisses)
	}
	if uint64(prefetch) != ctr.PrefetchFills {
		t.Errorf("prefetch fills callback=%d counter=%d", prefetch, ctr.PrefetchFills)
	}
}

func TestUselessPrefetchOnFlush(t *testing.T) {
	c := newTest(true)
	for addr := uint64(0); addr < 8*1024; addr += LineSize {
		c.Access(addr, false)
	}
	before := c.Counters().PrefetchFills - c.Counters().PrefetchedHits
	c.Flush()
	after := c.Counters()
	if after.UselessPrefetch == 0 && before > 0 {
		t.Errorf("flush should mark in-flight prefetched lines useless (pf=%d hits=%d)",
			after.PrefetchFills, after.PrefetchedHits)
	}
}

func TestAccessRangeTouchesEveryLine(t *testing.T) {
	c := newTest(false)
	c.AccessRange(10, 200, false) // spans lines 0..3
	ctr := c.Counters()
	if ctr.DemandAccesses != 4 {
		t.Errorf("accesses = %d, want 4", ctr.DemandAccesses)
	}
}

// Property: counter identities hold on arbitrary access sequences —
// accesses = hits + misses, linesIn = misses + prefetchFills, and the
// accuracy/coverage ratios stay within [0,1].
func TestCounterInvariantsProperty(t *testing.T) {
	f := func(seq []uint32, pf bool) bool {
		c := New(Config{Size: 16 * 1024, Ways: 4, PrefetchEnabled: pf}, nil)
		for _, v := range seq {
			c.Access(uint64(v)%(1<<22), v%3 == 0)
		}
		ctr := c.Counters()
		if ctr.DemandAccesses != ctr.DemandHits+ctr.DemandMisses {
			return false
		}
		if ctr.LinesIn != ctr.DemandMisses+ctr.PrefetchFills {
			return false
		}
		if ctr.UselessPrefetch > ctr.PrefetchFills {
			return false
		}
		a, cov := ctr.Accuracy(), ctr.Coverage()
		return a >= 0 && a <= 1 && cov >= 0 && cov <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: with the prefetcher disabled the cache never reports prefetch
// activity and hits never exceed accesses.
func TestNoPrefetchProperty(t *testing.T) {
	f := func(seq []uint16) bool {
		c := New(Config{Size: 8 * 1024, Ways: 2, PrefetchEnabled: false}, nil)
		for _, v := range seq {
			c.Access(uint64(v)*LineSize, false)
		}
		ctr := c.Counters()
		return ctr.PrefetchFills == 0 && ctr.UselessPrefetch == 0 &&
			ctr.PrefetchedHits == 0 && ctr.DemandHits <= ctr.DemandAccesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// fillEvent is one call of a cache's fill callback.
type fillEvent struct {
	line   uint64
	reason FillReason
}

// randomConfig draws a cache geometry. One in three has at most
// PrefetchDegree sets, so that a demand fill and the prefetches of the same
// access can land in one set at one clock and the victim among them is
// chosen by way.
func randomConfig(rng *stats.RNG) Config {
	ways := 1 + rng.Intn(16)
	degree := 1 + rng.Intn(8)
	sets := 1 + rng.Intn(64)
	if rng.Intn(3) == 0 {
		sets = 1 + rng.Intn(degree)
	}
	return Config{
		Size:            (sets*ways + rng.Intn(ways)) * LineSize,
		Ways:            ways,
		PrefetchEnabled: rng.Intn(4) != 0,
		PrefetchDegree:  degree,
		PrefetchStreams: 1 + rng.Intn(16),
		PageSize:        LineSize << rng.Intn(7),
	}
}

// TestMatchesReference drives Cache and refCache with the same random
// operations over random geometries: unit and small strides in either
// direction, repeated lines, jumps, ranges, flushes and runtime prefetch
// toggles, interleaved over a few cursors. The two must agree on every
// counter and on the order, lines and reasons of their fills.
func TestMatchesReference(t *testing.T) {
	geometries, ops := 3000, 4000
	if testing.Short() {
		geometries = 300
	}
	rng := stats.NewRNG(3)
	tieProne := 0
	for g := 0; g < geometries; g++ {
		cfg := randomConfig(rng)
		var got, want []fillEvent
		c := New(cfg, func(la uint64, r FillReason) { got = append(got, fillEvent{la, r}) })
		ref := newRef(cfg, func(la uint64, r FillReason) { want = append(want, fillEvent{la, r}) })
		if ref.nsets <= uint64(ref.cfg.PrefetchDegree) {
			tieProne++
		}
		span := 4 * (ref.nsets*uint64(ref.cfg.Ways) + 2*ref.cfg.PageSize/LineSize) * LineSize
		cursors := make([]uint64, 1+rng.Intn(4))
		dirs := make([]int64, len(cursors))
		for i := range cursors {
			cursors[i] = uint64(rng.Intn(int(span)))
			dirs[i] = 1
		}
		for op := 0; op < ops; op++ {
			k := rng.Intn(len(cursors))
			step := int64(LineSize)
			switch r := rng.Intn(100); {
			case r < 1:
				c.Flush()
				ref.Flush()
				continue
			case r < 3:
				on := rng.Intn(2) == 0
				c.SetPrefetchEnabled(on)
				ref.SetPrefetchEnabled(on)
				continue
			case r < 8:
				n := uint64(1 + rng.Intn(4*LineSize))
				c.AccessRange(cursors[k], n, false)
				ref.AccessRange(cursors[k], n, false)
				cursors[k] += n
				continue
			case r < 13:
				dirs[k] = -dirs[k]
			case r < 23:
				step = int64(1+rng.Intn(3)) * LineSize
			case r < 33:
				step = 8
			case r < 43:
				cursors[k] = uint64(rng.Intn(int(span)))
				step = 0
			}
			cursors[k] = uint64(int64(cursors[k])+dirs[k]*step) % span
			write := rng.Intn(2) == 0
			c.Access(cursors[k], write)
			ref.Access(cursors[k], write)
		}
		if c.Counters() != ref.Counters() {
			t.Fatalf("geometry %d %+v: counters\n got %v\nwant %v", g, cfg, c.Counters(), ref.Counters())
		}
		if len(got) != len(want) {
			t.Fatalf("geometry %d %+v: %d fills, want %d", g, cfg, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("geometry %d %+v: fill %d is %+v, want %+v", g, cfg, i, got[i], want[i])
			}
		}
	}
	if tieProne == 0 {
		t.Fatal("no geometry with at most PrefetchDegree sets was drawn")
	}
}

// BenchmarkAccess measures one demand access on the default platform's L2
// geometry: a sequential line walk (prefetch hits and prefetch fills) and
// random lines over 64 MiB (misses, each allocating a stream entry).
func BenchmarkAccess(b *testing.B) {
	cfg := Config{Size: 256 << 10, Ways: 16, PrefetchEnabled: true, PrefetchDegree: 4, PrefetchStreams: 16, PageSize: 4096}
	var fills uint64
	fill := func(uint64, FillReason) { fills++ }
	b.Run("sequential", func(b *testing.B) {
		c := New(cfg, fill)
		b.ReportAllocs()
		var addr uint64
		for b.Loop() {
			c.Access(addr, false)
			addr += LineSize
		}
	})
	b.Run("random", func(b *testing.B) {
		c := New(cfg, fill)
		rng := stats.NewRNG(1)
		addrs := make([]uint64, 1<<16)
		for i := range addrs {
			addrs[i] = uint64(rng.Intn(64 << 20))
		}
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			c.Access(addrs[i%len(addrs)], false)
			i++
		}
	})
}
