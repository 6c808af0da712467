// Package cache models the L2 data cache and its hardware prefetcher, the
// level the paper instruments for prefetch analysis (§4.2): the core
// prefetcher sits at L2 on Skylake-X, and the counters PF_L2_DATA_RD,
// PF_L2_RFO, L2_LINES_IN and USELESS_HWPF are all L2 events.
//
// The model is a set-associative LRU cache plus a streamer-style prefetcher
// that detects unit-stride (and small-stride) streams within a page and runs
// a configurable number of lines ahead. Fills call back into the memory
// model so traffic is attributed to the serving tier, and the counter set
// mirrors the paper's equations (1) and (2) for accuracy and coverage.
//
// Line state lives in flat set-major arrays: the ways of set s are lines
// s*Ways to (s+1)*Ways-1, with the tags in an array of their own so a lookup
// scans contiguous words. The valid ways of every set form a prefix,
// because a fill takes the set's first invalid way and only Flush
// invalidates lines, all of them at once. A set therefore keeps a count of
// its valid ways in place of per-line valid bits, and a lookup scans only
// that prefix. Each set also links its valid lines into a recency list
// ordered by (clock of the last touch, way), so the victim of a fill into a
// full set is the list's least recent end, found without a scan. The lines
// an access touches share its clock; the list orders them by way, so the
// victim among them is the lowest way, the choice of a scan for the oldest
// timestamp that keeps the first of equal ones.
//
// The stream table keeps the pages of its valid entries as a prefix array,
// for the same reason as the sets: allocation takes the first free entry
// and only Flush frees entries, all of them at once. A probe checks the
// most recent entry first and then scans only those pages. The valid
// entries are linked into a recency list, and every access moves exactly
// one entry to its front, the one tracking the access's page or the one
// allocated for it, so no two valid entries were last used at the same
// clock. The list's tail is therefore the entry with the oldest timestamp,
// the victim a scan would pick, and a full table replaces it without a
// scan.
package cache

import "fmt"

// LineSize is the cacheline granularity in bytes.
const LineSize = 64

// FillReason distinguishes demand fills from prefetch fills.
type FillReason int

const (
	// FillDemand is a fill triggered by a demand miss the stream detector
	// could not predict (a latency-exposed miss).
	FillDemand FillReason = iota
	// FillPrefetch is a fill triggered by the hardware prefetcher.
	FillPrefetch
	// FillDemandStream is a demand fill that followed a detected stream:
	// with the prefetcher disabled these misses are still overlapped by
	// out-of-order execution, so the timing model treats them as
	// bandwidth-bound (at a penalty) rather than latency-exposed.
	FillDemandStream
)

// NumFillReasons is the number of FillReason values.
const NumFillReasons = 3

// Config describes the cache geometry and the prefetcher.
type Config struct {
	// Size is the cache capacity in bytes. Defaults to 1 MiB.
	Size int
	// Ways is the associativity. Defaults to 16.
	Ways int
	// PrefetchEnabled mirrors the two LSBs of MSR 0x1a4: when false the
	// hardware prefetcher is fully disabled.
	PrefetchEnabled bool
	// PrefetchDegree is how many lines ahead the streamer runs once a
	// stream is confirmed. Defaults to 4.
	PrefetchDegree int
	// PrefetchStreams is the number of concurrently tracked streams.
	// Defaults to 16.
	PrefetchStreams int
	// PageSize bounds prefetches: the streamer never crosses a page
	// boundary (physical prefetchers cannot). Defaults to 4096.
	PageSize uint64
}

func (c Config) withDefaults() Config {
	if c.Size == 0 {
		c.Size = 1 << 20
	}
	if c.Ways == 0 {
		c.Ways = 16
	}
	if c.PrefetchDegree == 0 {
		c.PrefetchDegree = 4
	}
	if c.PrefetchStreams == 0 {
		c.PrefetchStreams = 16
	}
	if c.PageSize == 0 {
		c.PageSize = 4096
	}
	return c
}

// Counters is the paper-aligned counter set, all in cacheline units.
type Counters struct {
	// DemandAccesses is the number of L2 lookups.
	DemandAccesses uint64
	// DemandHits is lookups that hit (including hits on prefetched lines).
	DemandHits uint64
	// DemandMisses is lookups that missed and triggered a demand fill.
	DemandMisses uint64
	// LinesIn is every line filled into the cache (L2_LINES_IN): demand
	// fills plus prefetch fills.
	LinesIn uint64
	// PrefetchFills is lines filled by the prefetcher
	// (PF_L2_DATA_RD + PF_L2_RFO).
	PrefetchFills uint64
	// UselessPrefetch is prefetched lines evicted before any demand hit
	// (USELESS_HWPF).
	UselessPrefetch uint64
	// PrefetchedHits is demand hits whose line was brought in by the
	// prefetcher and had not been hit before (first-use hits).
	PrefetchedHits uint64
	// DemandMissStream is the subset of DemandMisses that followed a
	// detected stream (predictable misses).
	DemandMissStream uint64
}

// Accuracy implements the paper's equation (1):
// (PF - USELESS) / PF. It returns 1 when no prefetches were issued.
func (c Counters) Accuracy() float64 {
	if c.PrefetchFills == 0 {
		return 1
	}
	return float64(c.PrefetchFills-c.UselessPrefetch) / float64(c.PrefetchFills)
}

// Coverage implements the paper's equation (2):
// (PF - USELESS) / (LINES_IN - USELESS). It returns 0 when nothing was
// filled.
func (c Counters) Coverage() float64 {
	den := c.LinesIn - c.UselessPrefetch
	if den == 0 {
		return 0
	}
	return float64(c.PrefetchFills-c.UselessPrefetch) / float64(den)
}

// lineState is a cache line's state besides its tag.
type lineState struct {
	stamp        uint64 // clock of the last demand hit or fill
	older, newer int32  // neighbours in the set's recency list, -1 past its ends
	prefetched   bool   // filled by prefetcher and not yet demand-hit
}

// setState is one set's bookkeeping: the number of valid ways (the valid
// lines are the set's first n) and the two ends of its recency list, as
// line indices (-1 while the set is empty).
type setState struct {
	n, lru, mru int32
}

// Throttle thresholds: the streamer measures its own accuracy over windows
// of issued prefetches and adapts its aggressiveness, mirroring how real
// prefetchers back off when accuracy is low (the paper observes XSBench's
// excess prefetch traffic staying low despite poor accuracy for exactly
// this reason).
const (
	throttleWindow  = 256
	throttleLowAcc  = 0.30
	throttleHalfAcc = 0.60
)

// stream is one tracked prefetch stream; its page is in Cache.pages.
type stream struct {
	lastLine     uint64 // last line address observed
	dir          int64  // +1 or -1
	conf         int    // confidence: confirmations of the direction
	older, newer int32  // neighbours in the recency list, -1 past its ends
}

// Cache is the L2 model. It is not safe for concurrent use; the emulated
// platform is single-node and the workloads drive it from one goroutine.
type Cache struct {
	cfg   Config
	ways  int32
	nsets uint64
	lpp   uint64 // lines per page

	tags  []uint64    // line address of every line, set-major
	lines []lineState // the rest of every line's state, set-major
	sets  []setState

	clock     uint64
	streams   []stream
	pages     []uint64 // page of each valid stream: the first len(pages) are valid
	mruStream int32    // ends of the valid streams' recency list, -1 while empty
	lruStream int32
	ctr       Counters
	fill      func(lineAddr uint64, reason FillReason)
	disabled  bool // runtime prefetch disable (MSR write)

	// Throttle state: accuracy over the last window of issued prefetches.
	throttleLevel int // 0 = full degree, 1 = half, 2 = probe only
	winPF, winUse uint64
}

// New creates a cache; fill is invoked for every line filled from memory
// (demand or prefetch) with the line's base address.
func New(cfg Config, fill func(lineAddr uint64, reason FillReason)) *Cache {
	c := cfg.withDefaults()
	nlines := c.Size / LineSize
	nsets := nlines / c.Ways
	if nsets == 0 {
		nsets = 1
	}
	sets := make([]setState, nsets)
	for i := range sets {
		sets[i] = setState{lru: -1, mru: -1}
	}
	return &Cache{
		cfg:       c,
		ways:      int32(c.Ways),
		nsets:     uint64(nsets),
		lpp:       c.PageSize / LineSize,
		tags:      make([]uint64, nsets*c.Ways),
		lines:     make([]lineState, nsets*c.Ways),
		sets:      sets,
		streams:   make([]stream, c.PrefetchStreams),
		pages:     make([]uint64, 0, c.PrefetchStreams),
		mruStream: -1,
		lruStream: -1,
		fill:      fill,
		disabled:  !c.PrefetchEnabled,
	}
}

// SetPrefetchEnabled toggles the hardware prefetcher at run time, the
// equivalent of writing MSR 0x1a4.
func (c *Cache) SetPrefetchEnabled(on bool) { c.disabled = !on }

// PrefetchEnabled reports whether the prefetcher is active.
func (c *Cache) PrefetchEnabled() bool { return !c.disabled }

// Counters returns a copy of the counter set.
func (c *Cache) Counters() Counters { return c.ctr }

// Flush invalidates all lines and stream state. Unused prefetched lines
// count as useless, as they would on eviction.
func (c *Cache) Flush() {
	for si := range c.sets {
		s := &c.sets[si]
		base := int32(si) * c.ways
		for _, l := range c.lines[base : base+s.n] {
			if l.prefetched {
				c.ctr.UselessPrefetch++
			}
		}
		*s = setState{lru: -1, mru: -1}
	}
	c.pages = c.pages[:0]
	c.mruStream, c.lruStream = -1, -1
}

// Access performs one demand access to addr (byte address). The write flag
// is accepted for API symmetry; the model treats reads and writes alike
// (write-allocate, fills counted as traffic).
func (c *Cache) Access(addr uint64, write bool) {
	_ = write
	la := addr / LineSize
	c.clock++
	c.ctr.DemandAccesses++
	// At most one valid stream tracks a page, since train allocates an
	// entry only for a page no entry tracks, so one probe serves both the
	// prediction of a miss and the training that follows it.
	page := la / c.lpp
	sti := c.probe(page)
	si := c.setOf(la)
	if i := c.find(si, la); i >= 0 {
		c.ctr.DemandHits++
		l := &c.lines[i]
		if l.prefetched {
			c.ctr.PrefetchedHits++
			l.prefetched = false
		}
		c.touch(&c.sets[si], i)
	} else {
		c.ctr.DemandMisses++
		reason := FillDemand
		if sti >= 0 && c.streams[sti].predicts(la, c.cfg.PrefetchDegree) {
			reason = FillDemandStream
			c.ctr.DemandMissStream++
		}
		c.insert(si, la, false)
		if c.fill != nil {
			c.fill(la*LineSize, reason)
		}
	}
	// Stream detection always trains (out-of-order execution exploits the
	// same predictability); the MSR toggle only gates prefetch issue.
	if st := c.train(sti, page, la); st != nil && !c.disabled {
		c.issue(st, page, la)
	}
}

// predicts reports whether line la continues the stream once confirmed —
// evaluated before the stream is trained with la itself.
func (st *stream) predicts(la uint64, degree int) bool {
	if st.conf < 2 || st.dir == 0 {
		return false
	}
	delta := int64(la) - int64(st.lastLine)
	return delta*st.dir >= 1 && delta*st.dir <= int64(degree)+2
}

// AccessRange performs sequential demand accesses covering [addr, addr+n).
func (c *Cache) AccessRange(addr, n uint64, write bool) {
	if n == 0 {
		return
	}
	first := addr / LineSize
	last := (addr + n - 1) / LineSize
	for la := first; la <= last; la++ {
		c.Access(la*LineSize, write)
	}
}

// setOf returns the set line la maps to.
func (c *Cache) setOf(la uint64) int32 { return int32(la % c.nsets) }

// find returns the index of line la among the valid lines of set si, or -1.
// It checks the set's most recent line first: on a stream, the line a
// demand access hits and the lines the streamer finds already fetched were
// filled moments ago.
func (c *Cache) find(si int32, la uint64) int32 {
	s := &c.sets[si]
	if s.mru >= 0 && c.tags[s.mru] == la {
		return s.mru
	}
	base := si * c.ways
	for j, tag := range c.tags[base : base+s.n] {
		if tag == la {
			return base + int32(j)
		}
	}
	return -1
}

// insert fills line la into set si, evicting the least recently used line
// if the set is full; prefetched marks the fill as a prefetch fill.
func (c *Cache) insert(si int32, la uint64, prefetched bool) {
	s := &c.sets[si]
	var i int32
	if s.n < c.ways {
		i = si*c.ways + s.n
		s.n++
	} else {
		i = s.lru
		if c.lines[i].prefetched {
			c.ctr.UselessPrefetch++
		}
		c.unlink(s, i)
	}
	c.tags[i] = la
	c.lines[i].prefetched = prefetched
	c.link(s, i)
	c.ctr.LinesIn++
	if prefetched {
		c.ctr.PrefetchFills++
	}
}

// touch moves valid line i of set s to its place as touched now.
func (c *Cache) touch(s *setState, i int32) {
	if s.mru == i {
		// Already the most recent: a newer clock keeps it there.
		c.lines[i].stamp = c.clock
		return
	}
	c.unlink(s, i)
	c.link(s, i)
}

// link stamps unlinked line i with the clock and inserts it into the
// recency list of s: after every line touched earlier, and among the lines
// touched at this clock, after those of lower way.
func (c *Cache) link(s *setState, i int32) {
	c.lines[i].stamp = c.clock
	older, newer := s.mru, int32(-1)
	for older >= 0 && older > i && c.lines[older].stamp == c.clock {
		newer, older = older, c.lines[older].older
	}
	c.lines[i].older, c.lines[i].newer = older, newer
	if older >= 0 {
		c.lines[older].newer = i
	} else {
		s.lru = i
	}
	if newer >= 0 {
		c.lines[newer].older = i
	} else {
		s.mru = i
	}
}

// unlink removes line i from the recency list of s.
func (c *Cache) unlink(s *setState, i int32) {
	older, newer := c.lines[i].older, c.lines[i].newer
	if older >= 0 {
		c.lines[older].newer = newer
	} else {
		s.lru = newer
	}
	if newer >= 0 {
		c.lines[newer].older = older
	} else {
		s.mru = older
	}
}

// probe returns the index of the valid stream tracking page, or -1 if none
// does. It checks the most recent stream first: consecutive accesses
// mostly fall in one page.
func (c *Cache) probe(page uint64) int32 {
	if c.mruStream >= 0 && c.pages[c.mruStream] == page {
		return c.mruStream
	}
	for i, p := range c.pages {
		if p == page {
			return int32(i)
		}
	}
	return -1
}

// train updates stream i, the one tracking page (-1 if none does), with a
// demand access to line la of it and returns the stream (nil while its
// direction is still unknown). Without a stream it allocates one for page,
// in the first free entry or else in place of the least recent, and waits
// for a second access to establish direction. Either way the stream it
// trains becomes the most recent.
func (c *Cache) train(i int32, page, la uint64) *stream {
	if i < 0 {
		if n := len(c.pages); n < cap(c.pages) {
			i = int32(n)
			c.pages = append(c.pages, page)
		} else {
			i = c.lruStream
			c.unlinkStream(i)
			c.pages[i] = page
		}
		c.streams[i] = stream{lastLine: la}
		c.pushStream(i)
		return nil
	}
	if i != c.mruStream {
		c.unlinkStream(i)
		c.pushStream(i)
	}
	st := &c.streams[i]
	delta := int64(la) - int64(st.lastLine)
	st.lastLine = la
	if delta == 0 {
		return nil
	}
	dir := int64(1)
	if delta < 0 {
		dir = -1
	}
	// Streamer behaviour: near-unit strides sustain a stream; jumps reset.
	if delta == st.dir || (st.dir == 0 && (delta == 1 || delta == -1)) {
		if st.dir == 0 {
			st.dir = delta
		}
		st.conf++
	} else if delta*dir <= 2 && dir == sign(st.dir) {
		// Small same-direction stride: keep the stream, lower confidence.
		if st.conf > 0 {
			st.conf--
		}
	} else {
		st.dir = 0
		st.conf = 0
		return nil
	}
	return st
}

// unlinkStream removes valid stream i from the recency list.
func (c *Cache) unlinkStream(i int32) {
	older, newer := c.streams[i].older, c.streams[i].newer
	if older >= 0 {
		c.streams[older].newer = newer
	} else {
		c.lruStream = newer
	}
	if newer >= 0 {
		c.streams[newer].older = older
	} else {
		c.mruStream = older
	}
}

// pushStream links unlinked stream i into the recency list as the most
// recent.
func (c *Cache) pushStream(i int32) {
	c.streams[i].older, c.streams[i].newer = c.mruStream, -1
	if c.mruStream >= 0 {
		c.streams[c.mruStream].newer = i
	} else {
		c.lruStream = i
	}
	c.mruStream = i
}

// issue runs the streamer ahead of stream st, which tracks page, subject
// to the accuracy throttle.
func (c *Cache) issue(st *stream, page, la uint64) {
	conf := 2
	degree := c.cfg.PrefetchDegree
	switch c.throttleLevel {
	case 1:
		if degree > 1 {
			degree /= 2
		}
	case 2:
		degree = 1
		conf = 4
	}
	if st.conf < conf {
		return
	}
	// Confirmed stream: run degree lines ahead, within the page.
	pageFirst := page * c.lpp
	pageLast := pageFirst + c.lpp - 1
	next := la
	for i := 0; i < degree; i++ {
		ni := int64(next) + st.dir
		if ni < int64(pageFirst) || ni > int64(pageLast) {
			break
		}
		next = uint64(ni)
		si := c.setOf(next)
		if c.find(si, next) >= 0 {
			continue
		}
		c.insert(si, next, true)
		if c.fill != nil {
			c.fill(next*LineSize, FillPrefetch)
		}
	}
	c.updateThrottle()
}

// updateThrottle recomputes the throttle level once per window of issued
// prefetches, from the accuracy observed over that window.
func (c *Cache) updateThrottle() {
	issued := c.ctr.PrefetchFills - c.winPF
	if issued < throttleWindow {
		return
	}
	useless := c.ctr.UselessPrefetch - c.winUse
	acc := 1 - float64(useless)/float64(issued)
	switch {
	case acc < throttleLowAcc:
		c.throttleLevel = 2
	case acc < throttleHalfAcc:
		c.throttleLevel = 1
	default:
		c.throttleLevel = 0
	}
	c.winPF = c.ctr.PrefetchFills
	c.winUse = c.ctr.UselessPrefetch
}

func sign(x int64) int64 {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	default:
		return 0
	}
}

// String renders the counters compactly for debugging.
func (c Counters) String() string {
	return fmt.Sprintf("acc=%d hit=%d miss=%d in=%d pf=%d useless=%d (acc=%.2f cov=%.2f)",
		c.DemandAccesses, c.DemandHits, c.DemandMisses, c.LinesIn,
		c.PrefetchFills, c.UselessPrefetch, c.Accuracy(), c.Coverage())
}
