package cache

// refCache is the plain implementation of the model that TestMatchesReference
// holds Cache to, fill for fill: a [][]refLine of per-line structs with
// valid bits, a timestamp scan for the LRU victim on every fill and
// separate stream-table scans for prediction and training. Its logic must
// not change.
type refCache struct {
	cfg      Config
	sets     [][]refLine
	nsets    uint64
	clock    uint64
	streams  []refStream
	ctr      Counters
	fill     func(lineAddr uint64, reason FillReason)
	disabled bool

	throttleLevel int
	winPF, winUse uint64
}

type refLine struct {
	tag        uint64
	valid      bool
	lru        uint64
	prefetched bool
}

type refStream struct {
	page     uint64
	lastLine uint64
	dir      int64
	conf     int
	lru      uint64
	valid    bool
}

func newRef(cfg Config, fill func(lineAddr uint64, reason FillReason)) *refCache {
	c := cfg.withDefaults()
	nlines := c.Size / LineSize
	nsets := nlines / c.Ways
	if nsets == 0 {
		nsets = 1
	}
	sets := make([][]refLine, nsets)
	backing := make([]refLine, nsets*c.Ways)
	for i := range sets {
		sets[i], backing = backing[:c.Ways:c.Ways], backing[c.Ways:]
	}
	return &refCache{
		cfg:      c,
		sets:     sets,
		nsets:    uint64(nsets),
		streams:  make([]refStream, c.PrefetchStreams),
		fill:     fill,
		disabled: !c.PrefetchEnabled,
	}
}

func (c *refCache) SetPrefetchEnabled(on bool) { c.disabled = !on }

func (c *refCache) Counters() Counters { return c.ctr }

func (c *refCache) Flush() {
	for si := range c.sets {
		for wi := range c.sets[si] {
			l := &c.sets[si][wi]
			if l.valid && l.prefetched {
				c.ctr.UselessPrefetch++
			}
			l.valid = false
		}
	}
	for i := range c.streams {
		c.streams[i].valid = false
	}
}

func (c *refCache) Access(addr uint64, write bool) {
	_ = write
	la := addr / LineSize
	c.clock++
	c.ctr.DemandAccesses++
	set := c.sets[la%c.nsets]
	if l := c.lookup(set, la); l != nil {
		c.ctr.DemandHits++
		if l.prefetched {
			c.ctr.PrefetchedHits++
			l.prefetched = false
		}
		l.lru = c.clock
	} else {
		c.ctr.DemandMisses++
		reason := FillDemand
		if c.streamPredicted(la) {
			reason = FillDemandStream
			c.ctr.DemandMissStream++
		}
		c.insert(la, false)
		if c.fill != nil {
			c.fill(la*LineSize, reason)
		}
	}
	if st := c.train(la); st != nil && !c.disabled {
		c.issue(st, la)
	}
}

func (c *refCache) streamPredicted(la uint64) bool {
	pageIdx := la / c.linesPerPage()
	for i := range c.streams {
		st := &c.streams[i]
		if !st.valid || st.page != pageIdx || st.conf < 2 || st.dir == 0 {
			continue
		}
		delta := int64(la) - int64(st.lastLine)
		if delta*st.dir >= 1 && delta*st.dir <= int64(c.cfg.PrefetchDegree)+2 {
			return true
		}
	}
	return false
}

func (c *refCache) AccessRange(addr, n uint64, write bool) {
	if n == 0 {
		return
	}
	first := addr / LineSize
	last := (addr + n - 1) / LineSize
	for la := first; la <= last; la++ {
		c.Access(la*LineSize, write)
	}
}

func (c *refCache) lookup(set []refLine, la uint64) *refLine {
	for i := range set {
		if set[i].valid && set[i].tag == la {
			return &set[i]
		}
	}
	return nil
}

func (c *refCache) insert(la uint64, prefetched bool) {
	set := c.sets[la%c.nsets]
	victim := &set[0]
	for i := range set {
		if !set[i].valid {
			victim = &set[i]
			break
		}
		if set[i].lru < victim.lru {
			victim = &set[i]
		}
	}
	if victim.valid && victim.prefetched {
		c.ctr.UselessPrefetch++
	}
	victim.tag = la
	victim.valid = true
	victim.lru = c.clock
	victim.prefetched = prefetched
	c.ctr.LinesIn++
	if prefetched {
		c.ctr.PrefetchFills++
	}
}

func (c *refCache) linesPerPage() uint64 { return c.cfg.PageSize / LineSize }

func (c *refCache) train(la uint64) *refStream {
	pageIdx := la / c.linesPerPage()
	var st *refStream
	for i := range c.streams {
		if c.streams[i].valid && c.streams[i].page == pageIdx {
			st = &c.streams[i]
			break
		}
	}
	if st == nil {
		victim := &c.streams[0]
		for i := range c.streams {
			if !c.streams[i].valid {
				victim = &c.streams[i]
				break
			}
			if c.streams[i].lru < victim.lru {
				victim = &c.streams[i]
			}
		}
		*victim = refStream{page: pageIdx, lastLine: la, dir: 0, conf: 0, lru: c.clock, valid: true}
		return nil
	}
	st.lru = c.clock
	delta := int64(la) - int64(st.lastLine)
	st.lastLine = la
	if delta == 0 {
		return nil
	}
	dir := int64(1)
	if delta < 0 {
		dir = -1
	}
	if delta == st.dir || (st.dir == 0 && (delta == 1 || delta == -1)) {
		if st.dir == 0 {
			st.dir = delta
		}
		st.conf++
	} else if delta*dir <= 2 && dir == refSign(st.dir) {
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

func (c *refCache) issue(st *refStream, la uint64) {
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
	pageIdx := st.page
	lpp := c.linesPerPage()
	pageFirst := pageIdx * lpp
	pageLast := pageFirst + lpp - 1
	next := la
	for i := 0; i < degree; i++ {
		ni := int64(next) + st.dir
		if ni < int64(pageFirst) || ni > int64(pageLast) {
			break
		}
		next = uint64(ni)
		set := c.sets[next%c.nsets]
		if c.lookup(set, next) != nil {
			continue
		}
		c.insert(next, true)
		if c.fill != nil {
			c.fill(next*LineSize, FillPrefetch)
		}
	}
	c.updateThrottle()
}

func (c *refCache) updateThrottle() {
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

func refSign(x int64) int64 {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	default:
		return 0
	}
}
