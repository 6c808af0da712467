// Package machine assembles the emulated platform of the paper's Figure 3:
// one compute node with a node-local memory tier, a pooled remote tier
// behind a contended link, an L2 cache with a hardware prefetcher, and a
// roofline-based timing engine.
//
// Workloads drive the machine through Read/Write/AddFlops between
// StartPhase/EndPhase markers (the pf_start/pf_stop tracing API of the
// profiler maps onto these). Execution produces PhaseStats — pure data —
// and execution time is a pure function of (PhaseStats, Config, LoI), so
// experiments can re-evaluate a measured phase under any interference level
// without re-running the workload. This mirrors how the paper first profiles
// and then reasons analytically about deployment configurations.
package machine

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/link"
	"repro/internal/mem"
)

// Config is the full platform description. The defaults reproduce the
// paper's dual-socket Skylake-X testbed constants.
type Config struct {
	Name string

	// Memory geometry.
	Mem mem.Config
	// Cache geometry (the L2 + streamer model).
	Cache cache.Config
	// Link is the pool interconnect.
	Link link.Config

	// PeakFlops is the node peak in flop/s.
	PeakFlops float64
	// LocalBandwidth is the node-local memory bandwidth in bytes/s.
	LocalBandwidth float64
	// LocalLatency is the node-local access latency in seconds.
	LocalLatency float64
	// MLP is the average number of overlapping outstanding demand misses;
	// the latency-bound term divides by it.
	MLP float64
	// StreamDemandPenalty is the extra cost of moving bytes through
	// demand-streamed misses instead of prefetches: with the prefetcher
	// off, a streaming phase takes (1+penalty)x the bandwidth-bound time.
	// This calibrates the paper's prefetch performance gains (~30-60%
	// for streaming HPC codes, Figure 8).
	StreamDemandPenalty float64
	// LatencyBWCoupling couples loaded link latency to achievable remote
	// streaming bandwidth: effBW = DataBW / (1 + coupling*(delay-1)).
	// This models the finite-outstanding-prefetch limit that makes
	// bandwidth-bound apps interference-sensitive below link saturation.
	LatencyBWCoupling float64
}

// Default returns the testbed-calibrated configuration: 73 GB/s / 111 ns
// local, 34 GB/s / 202 ns remote, 85 GB/s peak raw link traffic.
func Default() Config {
	return Config{
		Name: "skylake-emulated",
		Mem:  mem.Config{PageSize: 4096},
		// The cache is deliberately small relative to workload
		// footprints: what matters for fidelity is the footprint:cache
		// ratio, and the real testbed runs GB-scale working sets
		// against MB-scale caches.
		Cache: cache.Config{
			Size:            256 << 10,
			Ways:            16,
			PrefetchEnabled: true,
			PrefetchDegree:  4,
			PrefetchStreams: 16,
			PageSize:        4096,
		},
		Link: link.Config{
			DataBandwidth: 34e9,
			PeakTraffic:   85e9,
			Overhead:      1.15,
			Latency:       202e-9,
		},
		PeakFlops:           250e9,
		LocalBandwidth:      73e9,
		LocalLatency:        111e-9,
		MLP:                 28,
		LatencyBWCoupling:   0.5,
		StreamDemandPenalty: 0.85,
	}
}

// WithLocalCapacity returns a copy of the config with the local tier capped
// at n bytes (the setup_waste protocol: local capacity set to a fraction of
// the workload's peak usage).
func (c Config) WithLocalCapacity(n uint64) Config {
	c.Mem.LocalCapacity = n
	return c
}

// WithPrefetch returns a copy with the hardware prefetcher toggled.
func (c Config) WithPrefetch(on bool) Config {
	c.Cache.PrefetchEnabled = on
	return c
}

// WithName returns a copy with the platform name set. Scenario specs use
// the derivation helpers below to parameterize a platform from a base
// configuration instead of mutating struct fields in place.
func (c Config) WithName(name string) Config {
	c.Name = name
	return c
}

// WithLink returns a copy with the pool interconnect replaced.
func (c Config) WithLink(l link.Config) Config {
	c.Link = l
	return c
}

// WithLocalTier returns a copy with the node-local memory tier set to the
// given bandwidth (bytes/s) and latency (seconds).
func (c Config) WithLocalTier(bandwidth, latency float64) Config {
	c.LocalBandwidth = bandwidth
	c.LocalLatency = latency
	return c
}

// WithPeakFlops returns a copy with the node peak compute set (flop/s).
func (c Config) WithPeakFlops(f float64) Config {
	c.PeakFlops = f
	return c
}

// Tick is one timeline bucket (one workload-defined step), backing the
// traffic-timeline plots of Figure 7.
type Tick struct {
	// LinesIn is cachelines filled from memory during the tick.
	LinesIn uint64
	// Flops executed during the tick.
	Flops float64
	// LocalBytes/RemoteBytes moved during the tick.
	LocalBytes  uint64
	RemoteBytes uint64
}

// PhaseStats captures everything the timing model needs about one phase.
type PhaseStats struct {
	Name string

	// Flops is the floating point work executed in the phase.
	Flops float64
	// LocalBytes and RemoteBytes are memory-traffic payload per tier.
	LocalBytes  uint64
	RemoteBytes uint64
	// DemandMissLocal/Remote are unpredictable demand line fills per tier:
	// the latency-exposed misses.
	DemandMissLocal  uint64
	DemandMissRemote uint64
	// StreamMissLocal/Remote are demand fills that followed a detected
	// stream: overlapped by out-of-order execution, they cost bandwidth
	// (with a penalty) rather than latency.
	StreamMissLocal  uint64
	StreamMissRemote uint64
	// Cache is a snapshot of the cache counters over the phase.
	Cache cache.Counters
	// RemoteAccessRatio and RemoteCapacityRatio at phase end.
	RemoteAccessRatio   float64
	RemoteCapacityRatio float64
	// FootprintBytes is total bound memory at phase end.
	FootprintBytes uint64
	// Ticks is the per-step timeline, if the workload called Tick.
	Ticks []Tick
}

// TotalBytes is payload bytes from both tiers.
func (p PhaseStats) TotalBytes() uint64 { return p.LocalBytes + p.RemoteBytes }

// ArithmeticIntensity is flops per byte moved from memory, the paper's
// AI = FLOPS / (Byte_LM + Byte_RM).
func (p PhaseStats) ArithmeticIntensity() float64 {
	tb := p.TotalBytes()
	if tb == 0 {
		return 0
	}
	return p.Flops / float64(tb)
}

// Hook observes the operations a workload drives through a machine, in
// order. It backs trace recording (internal/trace): a recorded operation
// stream can be replayed onto machines with different memory
// configurations, the profile-once / analyze-everywhere workflow.
type Hook interface {
	// OnAlloc fires after a region is reserved.
	OnAlloc(r *mem.Region, pl mem.Placement)
	// OnFree fires before a region is released.
	OnFree(r *mem.Region)
	// OnAccess fires for every demand access (before cache simulation).
	OnAccess(addr, n uint64, write bool)
	// OnFlops fires for every AddFlops call.
	OnFlops(n float64)
	// OnPhase fires at StartPhase (start=true) and EndPhase (start=false).
	OnPhase(name string, start bool)
	// OnTick fires at every timeline tick.
	OnTick()
}

// Machine is one emulated compute node. Not safe for concurrent use.
type Machine struct {
	cfg   Config
	Space *mem.Space
	Cache *cache.Cache
	Link  *link.Link

	phases []PhaseStats
	cur    *PhaseStats

	// Baselines for phase-delta accounting.
	baseCache cache.Counters
	fills     [cache.NumFillReasons][2]uint64 // [reason][tier] line fills in current phase
	tickBase  tickSnapshot

	flops     float64
	flopsBase float64

	// touchOnly makes Read and Write bind pages without simulating the
	// cache (see PeakFootprintOf).
	touchOnly bool

	hook Hook
}

// SetHook installs an operation observer (nil to remove).
func (m *Machine) SetHook(h Hook) { m.hook = h }

type tickSnapshot struct {
	linesIn     uint64
	flops       float64
	localBytes  uint64
	remoteBytes uint64
}

// New builds a machine from cfg.
func New(cfg Config) *Machine {
	m := &Machine{cfg: cfg}
	m.Space = mem.NewSpace(cfg.Mem)
	cfg.Cache.PageSize = m.Space.PageSize()
	m.Cache = cache.New(cfg.Cache, m.onFill)
	m.Link = link.New(cfg.Link)
	return m
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

func (m *Machine) onFill(lineAddr uint64, reason cache.FillReason) {
	tier := m.Space.Access(lineAddr, cache.LineSize)
	m.fills[reason][tier]++
	if tier == mem.TierRemote {
		m.Link.AddPayload(cache.LineSize)
	}
}

// PeakFootprintOf runs run on a machine built from cfg and returns its
// peak footprint, without simulating the cache: each demand access only
// binds the pages its lines lie in, through mem.Space.Touch. The result is
// the PeakFootprint of the same run on New(cfg). With the cache simulated,
// a page binds at the first fill of one of its lines, and that fill is the
// demand miss of the first access to the page: a line can only hit after
// its page was bound, pages unbind only when freed and freed addresses are
// never touched again, and the streamer prefetches only within the page of
// the access that triggers it, which that access has bound. No workload
// kernel reads machine state, so the demand stream and the frees, and with
// them the footprint over time, are the same either way.
func PeakFootprintOf(cfg Config, run func(*Machine)) uint64 {
	m := New(cfg)
	m.touchOnly = true
	run(m)
	return m.PeakFootprint()
}

// Alloc reserves a named region with first-touch placement.
func (m *Machine) Alloc(name string, size uint64) *mem.Region {
	r := m.Space.Alloc(name, size)
	if m.hook != nil {
		m.hook.OnAlloc(r, mem.PlaceFirstTouch)
	}
	return r
}

// AllocPlaced reserves a named region with an explicit placement policy.
func (m *Machine) AllocPlaced(name string, size uint64, pl mem.Placement) *mem.Region {
	r := m.Space.AllocPlaced(name, size, pl)
	if m.hook != nil {
		m.hook.OnAlloc(r, pl)
	}
	return r
}

// Free releases a region (capacity returns to its tiers).
func (m *Machine) Free(r *mem.Region) {
	if m.hook != nil {
		m.hook.OnFree(r)
	}
	m.Space.Free(r)
}

// Read issues a demand read of n bytes at addr.
func (m *Machine) Read(addr, n uint64) {
	if m.hook != nil {
		m.hook.OnAccess(addr, n, false)
	}
	m.access(addr, n, false)
}

// Write issues a demand write of n bytes at addr (write-allocate).
func (m *Machine) Write(addr, n uint64) {
	if m.hook != nil {
		m.hook.OnAccess(addr, n, true)
	}
	m.access(addr, n, true)
}

// access drives a demand access through the cache or, in a footprint
// pass, binds the pages of [addr, addr+n).
func (m *Machine) access(addr, n uint64, write bool) {
	if !m.touchOnly {
		m.Cache.AccessRange(addr, n, write)
		return
	}
	if n == 0 {
		return
	}
	ps := m.Space.PageSize()
	for pg := addr / ps; pg <= (addr+n-1)/ps; pg++ {
		m.Space.Touch(pg * ps)
	}
}

// AddFlops accounts floating-point work for the current phase.
func (m *Machine) AddFlops(n float64) {
	if m.hook != nil {
		m.hook.OnFlops(n)
	}
	m.flops += n
}

// PeakFootprint returns the largest footprint observed so far.
func (m *Machine) PeakFootprint() uint64 { return m.Space.PeakFootprint() }

// StartPhase opens a named profiling phase (pf_start).
func (m *Machine) StartPhase(name string) {
	if m.cur != nil {
		m.EndPhase()
	}
	if m.hook != nil {
		m.hook.OnPhase(name, true)
	}
	m.Space.ResetTraffic()
	m.Link.Reset()
	m.baseCache = m.Cache.Counters()
	m.fills = [cache.NumFillReasons][2]uint64{}
	m.flopsBase = m.flops
	m.cur = &PhaseStats{Name: name}
	m.tickBase = m.snapshot()
}

func (m *Machine) snapshot() tickSnapshot {
	c := m.Cache.Counters()
	return tickSnapshot{
		linesIn:     c.LinesIn,
		flops:       m.flops,
		localBytes:  m.Space.TierBytes(mem.TierLocal),
		remoteBytes: m.Space.TierBytes(mem.TierRemote),
	}
}

// Tick closes one timeline bucket within the current phase.
func (m *Machine) Tick() {
	if m.cur == nil {
		return
	}
	if m.hook != nil {
		m.hook.OnTick()
	}
	now := m.snapshot()
	m.cur.Ticks = append(m.cur.Ticks, Tick{
		LinesIn:     now.linesIn - m.tickBase.linesIn,
		Flops:       now.flops - m.tickBase.flops,
		LocalBytes:  now.localBytes - m.tickBase.localBytes,
		RemoteBytes: now.remoteBytes - m.tickBase.remoteBytes,
	})
	m.tickBase = now
}

// EndPhase closes the current phase and records its statistics.
func (m *Machine) EndPhase() PhaseStats {
	if m.cur == nil {
		panic("machine: EndPhase without StartPhase")
	}
	if m.hook != nil {
		m.hook.OnPhase(m.cur.Name, false)
	}
	p := m.cur
	m.cur = nil
	c := m.Cache.Counters()
	p.Cache = cache.Counters{
		DemandAccesses:   c.DemandAccesses - m.baseCache.DemandAccesses,
		DemandHits:       c.DemandHits - m.baseCache.DemandHits,
		DemandMisses:     c.DemandMisses - m.baseCache.DemandMisses,
		LinesIn:          c.LinesIn - m.baseCache.LinesIn,
		PrefetchFills:    c.PrefetchFills - m.baseCache.PrefetchFills,
		UselessPrefetch:  c.UselessPrefetch - m.baseCache.UselessPrefetch,
		PrefetchedHits:   c.PrefetchedHits - m.baseCache.PrefetchedHits,
		DemandMissStream: c.DemandMissStream - m.baseCache.DemandMissStream,
	}
	p.Flops = m.flops - m.flopsBase
	p.LocalBytes = m.Space.TierBytes(mem.TierLocal)
	p.RemoteBytes = m.Space.TierBytes(mem.TierRemote)
	p.DemandMissLocal = m.fills[cache.FillDemand][mem.TierLocal]
	p.DemandMissRemote = m.fills[cache.FillDemand][mem.TierRemote]
	p.StreamMissLocal = m.fills[cache.FillDemandStream][mem.TierLocal]
	p.StreamMissRemote = m.fills[cache.FillDemandStream][mem.TierRemote]
	p.RemoteAccessRatio = m.Space.RemoteAccessRatio()
	p.RemoteCapacityRatio = m.Space.RemoteCapacityRatio()
	p.FootprintBytes = m.Space.Footprint()
	m.phases = append(m.phases, *p)
	return *p
}

// Phases returns the recorded phases in order.
func (m *Machine) Phases() []PhaseStats { return m.phases }

// Phase returns the recorded phase with the given name, or false.
func (m *Machine) Phase(name string) (PhaseStats, bool) {
	for _, p := range m.phases {
		if p.Name == name {
			return p, true
		}
	}
	return PhaseStats{}, false
}

// PhaseTime evaluates the timing model for a phase under background
// interference loi (fraction of peak raw link traffic, 0..1):
//
//	T = max(T_compute, T_local, T_remote) + T_latency
//
// with the remote bandwidth reduced both by proportional sharing past link
// saturation and by the latency–bandwidth coupling below it, and the
// latency term scaled by the M/M/1-style delay factor. The fixed point in
// (T, rho) is solved by iteration.
func (c Config) PhaseTime(p PhaseStats, loi float64) float64 {
	l := link.New(c.Link)
	bgRaw := loi * c.Link.PeakTraffic

	tCompute := 0.0
	if c.PeakFlops > 0 {
		tCompute = p.Flops / c.PeakFlops
	}
	// Demand-streamed fills cost extra bandwidth-side time: without the
	// prefetcher running ahead, the same bytes arrive through a shorter
	// in-flight window.
	localEff := float64(p.LocalBytes) + c.StreamDemandPenalty*float64(p.StreamMissLocal)*cache.LineSize
	tLocal := 0.0
	if c.LocalBandwidth > 0 {
		tLocal = localEff / c.LocalBandwidth
	}

	remoteBytes := float64(p.RemoteBytes) + c.StreamDemandPenalty*float64(p.StreamMissRemote)*cache.LineSize
	// Initial guess: uncontended.
	t := tCompute + 1e-12
	if tLocal > t {
		t = tLocal
	}
	if remoteBytes > 0 {
		tr := remoteBytes / c.Link.DataBandwidth
		if tr > t {
			t = tr
		}
	}
	mlp := c.MLP
	if mlp <= 0 {
		mlp = 1
	}
	for iter := 0; iter < 20; iter++ {
		appRemoteRate := remoteBytes / t
		rho := l.Utilization(l.RawTraffic(appRemoteRate) + bgRaw)
		delay := l.DelayFactor(rho)

		effBW := c.Link.DataBandwidth / (1 + c.LatencyBWCoupling*(delay-1))
		// Capacity available to a greedy streamer under the background
		// load: full data bandwidth until the link saturates, then a
		// proportional share.
		share := l.ShareBandwidth(c.Link.DataBandwidth, bgRaw)
		if share < effBW {
			effBW = share
		}
		tRemote := 0.0
		if remoteBytes > 0 && effBW > 0 {
			tRemote = remoteBytes / effBW
		}

		latRemote := c.Link.Latency * l.DemandDelayFactor(rho)
		tLat := (float64(p.DemandMissLocal)*c.LocalLatency +
			float64(p.DemandMissRemote)*latRemote) / mlp

		tNew := maxf(tCompute, tLocal, tRemote) + tLat
		if tNew <= 0 {
			tNew = 1e-12
		}
		if relDiff(tNew, t) < 1e-9 {
			t = tNew
			break
		}
		t = tNew
	}
	return t
}

// RunTime is the total time of a set of phases at interference loi.
func (c Config) RunTime(phases []PhaseStats, loi float64) float64 {
	total := 0.0
	for _, p := range phases {
		total += c.PhaseTime(p, loi)
	}
	return total
}

// Sensitivity returns relative performance (T_loi0 / T_loi) of the phases at
// the given interference level: 1.0 means unaffected, lower means slower.
func (c Config) Sensitivity(phases []PhaseStats, loi float64) float64 {
	base := c.RunTime(phases, 0)
	loaded := c.RunTime(phases, loi)
	if loaded == 0 {
		return 1
	}
	return base / loaded
}

// BandwidthRatio returns the remote share of aggregate bandwidth,
// R_BW^remote = BW_remote / (BW_local + BW_remote) — the upper reference
// line of Figure 9.
func (c Config) BandwidthRatio() float64 {
	total := c.LocalBandwidth + c.Link.DataBandwidth
	if total == 0 {
		return 0
	}
	return c.Link.DataBandwidth / total
}

func maxf(xs ...float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	den := b
	if den <= 0 {
		den = 1e-30
	}
	return d / den
}

// String identifies the machine.
func (m *Machine) String() string {
	return fmt.Sprintf("machine(%s, local=%d B)", m.cfg.Name, m.cfg.Mem.LocalCapacity)
}
