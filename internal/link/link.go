// Package link models the interconnect between a compute node and the
// rack-scale memory pool — the role played by the UPI socket link in the
// paper's emulation platform.
//
// The model captures the three behaviours the paper leans on in §3.2 and §6:
//
//  1. link traffic carries protocol overhead, so raw traffic can exceed the
//     peak data bandwidth;
//  2. a PCM-style hardware counter measures raw traffic but saturates at the
//     peak link bandwidth, hiding contention beyond the saturation point;
//  3. queueing delay keeps growing past saturation, which is exactly what
//     LBench observes and raw counters cannot (Figure 11, middle panel).
//
// Delay uses a bounded closed-system contention model: with a finite number
// of outstanding requests per core (MSHRs), queue depth — and therefore
// loaded latency — grows roughly linearly in offered utilization rather
// than diverging like an open M/M/1 queue. Offered load beyond the link
// peak keeps increasing delay (the overload regime), which is exactly the
// regime PCM counters cannot observe and LBench can (Figure 11, middle).
package link

import "repro/internal/stats"

// Config describes the pool link.
type Config struct {
	// DataBandwidth is the peak payload bandwidth in bytes/s
	// (34 GB/s inter-socket on the paper's testbed).
	DataBandwidth float64
	// PeakTraffic is the peak raw link traffic in bytes/s including
	// protocol overhead (85 GB/s on the testbed). LoI percentages are
	// defined against this value.
	PeakTraffic float64
	// Overhead is the protocol overhead multiplier applied to payload
	// bytes to obtain raw link traffic. Defaults to 1.15.
	Overhead float64
	// Latency is the unloaded one-way access latency in seconds
	// (202 ns on the testbed).
	Latency float64
	// DelaySlope is the loaded-latency growth per unit of offered
	// utilization below saturation. Defaults to 0.5.
	DelaySlope float64
	// OverloadSlope is the delay growth per unit of offered load beyond
	// the link peak (rho > 1). Defaults to 0.6: past saturation, backlog
	// accumulates faster than the loaded-latency growth below it. The
	// default reproduces the paper's interference-coefficient scale
	// (IC ~2.6 at 1 flop/element, 12 threads — Figure 11, middle).
	OverloadSlope float64
	// DemandDelaySlope is the loaded-latency growth seen by individual
	// demand misses, gentler than the bulk DelaySlope: short reads
	// interleave between queued bulk transfers, so their latency degrades
	// slower than streaming bandwidth contends. Defaults to 0.18.
	DemandDelaySlope float64
}

func (c Config) withDefaults() Config {
	if c.Overhead == 0 {
		c.Overhead = 1.15
	}
	if c.DelaySlope == 0 {
		c.DelaySlope = 0.5
	}
	if c.OverloadSlope == 0 {
		c.OverloadSlope = 0.6
	}
	if c.DemandDelaySlope == 0 {
		c.DemandDelaySlope = 0.18
	}
	return c
}

// WithLatency returns a copy of the config with the unloaded access latency
// set to d seconds. Scenario specs use these derivation helpers to express
// alternate interconnect generations as deltas against a base link.
func (c Config) WithLatency(d float64) Config {
	c.Latency = d
	return c
}

// WithBandwidth returns a copy with the peak payload bandwidth and the peak
// raw traffic set (bytes/s).
func (c Config) WithBandwidth(data, peak float64) Config {
	c.DataBandwidth = data
	c.PeakTraffic = peak
	return c
}

// WithOverhead returns a copy with the protocol overhead multiplier set.
func (c Config) WithOverhead(x float64) Config {
	c.Overhead = x
	return c
}

// Link is the contention model.
type Link struct {
	cfg Config
}

// New returns a link with the given configuration.
func New(cfg Config) *Link {
	return &Link{cfg: cfg.withDefaults()}
}

// Config returns the configuration with defaults applied.
func (l *Link) Config() Config { return l.cfg }

// RawTraffic converts payload bytes (or bytes/s) to raw link traffic
// including protocol overhead.
func (l *Link) RawTraffic(payload float64) float64 { return payload * l.cfg.Overhead }

// Utilization returns offered raw load as a fraction of peak traffic.
// It is not clamped: values above 1 indicate overload.
func (l *Link) Utilization(rawRate float64) float64 {
	if l.cfg.PeakTraffic == 0 {
		return 0
	}
	return rawRate / l.cfg.PeakTraffic
}

// PCMTraffic is the raw traffic a PCM-style hardware counter would report
// for an offered raw rate: the real rate below the link peak, and the peak
// once saturated (counters cannot see queued demand).
func (l *Link) PCMTraffic(offeredRaw float64) float64 {
	if offeredRaw > l.cfg.PeakTraffic {
		return l.cfg.PeakTraffic
	}
	return offeredRaw
}

// DelayFactor returns the multiplicative queueing delay for a total offered
// utilization rho (raw load / peak, not clamped). Below the link peak the
// loaded latency grows linearly with utilization (closed-system queueing
// with finite outstanding requests); past the peak it keeps growing at the
// overload slope, so contention remains measurable after the PCM counter
// has pinned at the link bandwidth.
func (l *Link) DelayFactor(rho float64) float64 {
	if rho <= 0 {
		return 1
	}
	if rho <= 1 {
		return 1 + l.cfg.DelaySlope*rho
	}
	return 1 + l.cfg.DelaySlope + l.cfg.OverloadSlope*(rho-1)
}

// EffectiveLatency returns the loaded access latency at utilization rho.
func (l *Link) EffectiveLatency(rho float64) float64 {
	return l.cfg.Latency * l.DelayFactor(rho)
}

// DemandDelayFactor is the queueing delay experienced by individual demand
// misses at utilization rho: the same piecewise-linear shape as DelayFactor
// but with the gentler demand slope.
func (l *Link) DemandDelayFactor(rho float64) float64 {
	s := l.cfg.DemandDelaySlope
	if rho <= 0 {
		return 1
	}
	if rho <= 1 {
		return 1 + s*rho
	}
	return 1 + s + 1.2*s*(rho-1)
}

// ShareBandwidth returns the payload bandwidth available to a flow with
// offered payload demand `demand` (bytes/s) while background raw traffic
// `bgRaw` (bytes/s) occupies the link. Below saturation the flow is limited
// only by the data bandwidth; when total offered raw load exceeds the link
// peak, capacity is split proportionally to offered demand (max-min style
// proportional share).
func (l *Link) ShareBandwidth(demand, bgRaw float64) float64 {
	if demand <= 0 {
		return 0
	}
	demandRaw := l.RawTraffic(demand)
	total := demandRaw + bgRaw
	if total <= l.cfg.PeakTraffic {
		return minf(demand, l.cfg.DataBandwidth)
	}
	shareRaw := l.cfg.PeakTraffic * demandRaw / total
	share := shareRaw / l.cfg.Overhead
	return stats.Clamp(share, 0, l.cfg.DataBandwidth)
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
