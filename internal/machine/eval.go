package machine

import (
	"repro/internal/cache"
	"repro/internal/link"
)

// phaseEval holds the loi-independent pieces of the PhaseTime fixed point
// for one phase, precomputed once so repeated evaluations at different
// interference levels skip the per-call link construction and the
// stats-to-bytes arithmetic. Every field is produced by exactly the same
// floating-point operations PhaseTime performs, in the same order, so an
// Evaluator result is bit-identical to the corresponding PhaseTime call.
type phaseEval struct {
	tCompute    float64
	tLocal      float64
	remoteBytes float64
	// latLocal is the precomputed local half of the latency term's
	// numerator: DemandMissLocal * LocalLatency.
	latLocal float64
	dmr      float64 // DemandMissRemote
	t0       float64 // uncontended initial guess for the fixed point
	// fixed is the phase time for any loi in [0, 1] when the phase never
	// touches the link (no remote bytes, no remote demand misses): with
	// those terms exactly zero, background interference cannot reach the
	// result while the link's utilization stays finite. Outside [0, 1] it
	// need not: 0 × Inf is NaN.
	fixed    float64
	hasFixed bool
}

// Evaluator evaluates the PhaseTime timing model for a fixed set of phases
// on a fixed configuration, amortizing the per-call setup the plain
// Config.PhaseTime pays on every invocation: the link model is built once,
// the per-phase traffic/latency constants are folded once, and phases that
// never touch the link collapse to a precomputed constant at levels in
// [0, 1]. Results are bit-identical to Config.PhaseTime / Config.RunTime
// on the same inputs.
//
// An Evaluator is immutable after construction and safe for concurrent use:
// the shared link model is consulted only through its pure delay-model
// methods, and PhaseTimes keeps its lanes on the caller's stack.
type Evaluator struct {
	cfg    Config
	lnk    *link.Link
	mlp    float64
	bgPeak float64 // Link.PeakTraffic, scales loi to raw background traffic
	phases []phaseEval
}

// NewEvaluator precomputes the timing-model invariants for phases on c.
func NewEvaluator(c Config, phases []PhaseStats) *Evaluator {
	e := &Evaluator{
		cfg:    c,
		lnk:    link.New(c.Link),
		bgPeak: c.Link.PeakTraffic,
		mlp:    c.MLP,
		phases: make([]phaseEval, len(phases)),
	}
	if e.mlp <= 0 {
		e.mlp = 1
	}
	for i, p := range phases {
		pe := &e.phases[i]
		if c.PeakFlops > 0 {
			pe.tCompute = p.Flops / c.PeakFlops
		}
		localEff := float64(p.LocalBytes) + c.StreamDemandPenalty*float64(p.StreamMissLocal)*cache.LineSize
		if c.LocalBandwidth > 0 {
			pe.tLocal = localEff / c.LocalBandwidth
		}
		pe.remoteBytes = float64(p.RemoteBytes) + c.StreamDemandPenalty*float64(p.StreamMissRemote)*cache.LineSize
		pe.latLocal = float64(p.DemandMissLocal) * c.LocalLatency
		pe.dmr = float64(p.DemandMissRemote)
		t := pe.tCompute + 1e-12
		if pe.tLocal > t {
			t = pe.tLocal
		}
		if pe.remoteBytes > 0 {
			tr := pe.remoteBytes / c.Link.DataBandwidth
			if tr > t {
				t = tr
			}
		}
		pe.t0 = t
		if pe.remoteBytes == 0 && pe.dmr == 0 {
			// The fixed point is independent of any loi in [0, 1]: solve
			// it once.
			pe.fixed = e.PhaseTime(i, 0)
			pe.hasFixed = true
		}
	}
	return e
}

// Len returns the number of phases the evaluator covers.
func (e *Evaluator) Len() int { return len(e.phases) }

// Lanes is the most interference levels PhaseTimes solves at once. The
// levels share nothing, so their fixed points overlap in the CPU instead
// of each waiting on the previous one's chain of dependent divisions.
const Lanes = 8

// PhaseTime returns the modeled time of phase i under background
// interference loi — the same value e's Config.PhaseTime returns for the
// same phase and loi. It is PhaseTimes with one lane.
func (e *Evaluator) PhaseTime(i int, loi float64) float64 {
	var t [1]float64
	e.PhaseTimes(i, []float64{loi}, t[:])
	return t[0]
}

// PhaseTimes sets ts[k] to the modeled time of phase i under background
// interference lois[k], for at most Lanes levels and with room in ts for
// each: bit for bit what PhaseTime, and so Config.PhaseTime, returns for
// each level alone.
//
// It runs the (T, rho) fixed-point iteration of Config.PhaseTime on the
// precomputed constants, one lane per level, all lanes in lock step. A
// lane's loop body replicates PhaseTime operation for operation — any
// divergence shows up as a golden-artifact diff — and reads no other
// lane. A lane stops at the iteration that converges it, as PhaseTime
// does; iterating it once more would change its bits. The lanes start
// together, so one counter caps each at PhaseTime's 20 iterations.
func (e *Evaluator) PhaseTimes(i int, lois, ts []float64) {
	pe := &e.phases[i]
	c := &e.cfg
	l := e.lnk
	var bgRaw, share, t [Lanes]float64
	var done [Lanes]bool // converged lanes, frozen at their result
	live := len(lois)
	for k, loi := range lois {
		if pe.hasFixed && loi >= 0 && loi <= 1 { // exact there; see fixed
			t[k], done[k] = pe.fixed, true
			live--
			continue
		}
		bgRaw[k] = loi * e.bgPeak
		// Depends on loi alone: the same value every iteration.
		share[k] = l.ShareBandwidth(c.Link.DataBandwidth, bgRaw[k])
		t[k] = pe.t0
	}
	for iter := 0; iter < 20 && live > 0; iter++ {
		for k := range lois {
			if done[k] {
				continue
			}
			appRemoteRate := pe.remoteBytes / t[k]
			rho := l.Utilization(l.RawTraffic(appRemoteRate) + bgRaw[k])
			delay := l.DelayFactor(rho)

			effBW := c.Link.DataBandwidth / (1 + c.LatencyBWCoupling*(delay-1))
			if share[k] < effBW {
				effBW = share[k]
			}
			tRemote := 0.0
			if pe.remoteBytes > 0 && effBW > 0 {
				tRemote = pe.remoteBytes / effBW
			}

			latRemote := c.Link.Latency * l.DemandDelayFactor(rho)
			tLat := (pe.latLocal + pe.dmr*latRemote) / e.mlp

			tNew := maxf(pe.tCompute, pe.tLocal, tRemote) + tLat
			if tNew <= 0 {
				tNew = 1e-12
			}
			if relDiff(tNew, t[k]) < 1e-9 {
				done[k] = true
				live--
			}
			t[k] = tNew
		}
	}
	copy(ts, t[:len(lois)])
}

// RunTime returns the total time of all phases at interference loi,
// matching Config.RunTime.
func (e *Evaluator) RunTime(loi float64) float64 {
	total := 0.0
	for i := range e.phases {
		total += e.PhaseTime(i, loi)
	}
	return total
}
