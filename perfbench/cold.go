package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/pool"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/trace"
)

// cold-profile: each op builds a fresh Service and renders figure13 as
// JSON on one registry platform. That executes every workload twice on the
// emulated machine (peak footprint, then the Level-2 capacity split), then
// runs Level 3, the 100-run Monte-Carlo scheduler comparison, the driver
// and one render. It is the engine's cold path, where the machine model
// dominates; the api and jobs layers do nothing here.

// coldPlatforms are the registry platforms the op sequence draws from. They
// share the baseline's memory geometry and headline split, so every op
// executes the same workload runs and the seed changes only the order.
var coldPlatforms = []string{"baseline", "cxl-gen5", "cxl-gen6"}

// coldDigests are the SHA-256 digests of figure13 rendered as JSON for the
// benchmark's workload table with the paper's 100 Monte-Carlo runs. Every
// op, on every run, must reproduce them.
var coldDigests = map[string]string{
	"baseline": "1e4e9c6b180443db08d8abacdfb43762b9630e6a62ff13411350207d1fbee3e2",
	"cxl-gen5": "cd4ae04f4a5072c4e6be86428a64feb9dd3b33e61a7b29e2817fec858c253a74",
	"cxl-gen6": "304f96dc93f69b32583836f868248c58d0142959079ffc9b17c85856f4dee94d",
}

const (
	// coldMemAt is the op after which memory is sampled.
	coldMemAt = 6
	// coldTraced is how many ops a traced run decomposes: one block, so
	// each platform once.
	coldTraced = 3
)

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// coldOp is the op: a fresh Service rendering figure13 as JSON.
func coldOp(ctx context.Context, platform string) (*repro.Service, string, error) {
	svc, err := newService()
	if err != nil {
		return nil, "", err
	}
	out, err := svc.Rendered(ctx, repro.ArtifactRequest{Platform: platform, Artifact: "figure13"}, repro.FormatJSON)
	return svc, out, err
}

func runCold(ctx context.Context, p params) (result, error) {
	plats := newBlocks(p, coldStream, coldPlatforms)
	correct := true
	check := func(platform, out string) bool {
		d := digest(out)
		if d != coldDigests[platform] {
			fmt.Fprintf(os.Stderr, "cold-profile: figure13 on %s has digest %s, want %s\n", platform, d, coldDigests[platform])
			return false
		}
		return true
	}
	// Set-up warms the process with an untimed op, so the timed ops do
	// not pay for first-use growth of the heap. Its repetitions take the
	// first block of the sequence, one op on each platform.
	setups, err := setup(func() error {
		pl := plats.next()
		_, out, err := coldOp(ctx, pl)
		if err != nil {
			return err
		}
		correct = check(pl, out) && correct
		return nil
	})
	if err != nil {
		return result{}, err
	}
	var last *repro.Service
	t := measure(p.seconds, coldMemAt, func(i int) (time.Duration, bool) {
		pl := plats.next()
		start := time.Now()
		svc, out, err := coldOp(ctx, pl)
		dt := time.Since(start)
		last = svc
		return dt, err == nil && check(pl, out)
	})
	runtime.KeepAlive(last)
	for _, pl := range coldPlatforms {
		fmt.Fprintf(os.Stderr, "cold-profile: figure13 digest %s %s\n", pl, coldDigests[pl])
	}
	res := result{Correct: correct && t.failed == 0, Attempted: t.attempted, Failed: t.failed}
	if !p.trace {
		res.Metrics = endToEndMetrics("cold-profile", setups, t)
		return res, nil
	}

	es, err := entries()
	if err != nil {
		return result{}, err
	}
	led := newLedger()
	var c coldCounts
	traced := newBlocks(p, coldTracedStream, coldPlatforms)
	for k := 0; k < coldTraced; k++ {
		ok, err := decomposeCold(ctx, led, k, traced.next(), es, &c)
		if err != nil {
			return result{}, err
		}
		res.Correct = res.Correct && ok
	}
	if err := led.write(spanDir, fmt.Sprintf("cold-profile-seed%d.jsonl", p.seed)); err != nil {
		return result{}, err
	}
	ops := led.opTotals()
	vals := map[string]float64{
		"op_ms":                  medianOver(ops, func(m map[string]float64) float64 { return m["op"] }),
		"exec.ms":                medianOver(ops, func(m map[string]float64) float64 { return m["exec"] }),
		"exec.runs":              float64(c.runs),
		"machine.accesses":       float64(c.accesses),
		"machine.lines_in":       float64(c.linesIn),
		"machine.prefetch_fills": float64(c.prefetchFills),
		"machine.replay_ms":      medianOver(ops, func(m map[string]float64) float64 { return m["machine.replay"] }),
		"trace.decode_ms":        medianOver(ops, func(m map[string]float64) float64 { return m["trace.decode"] }),
		"machine.self_ms": medianOver(ops, func(m map[string]float64) float64 {
			return m["machine.replay"] - m["trace.decode"]
		}),
		"workloads.kernel_ms": medianOver(ops, func(m map[string]float64) float64 {
			return m["exec"] - (m["machine.replay"] - m["trace.decode"])
		}),
		"core.self_ms":        medianOver(ops, func(m map[string]float64) float64 { return m["core"] - m["exec"] }),
		"core.cache_hits":     float64(c.cache.Hits),
		"core.cache_misses":   float64(c.cache.Misses),
		"core.cache_joins":    float64(c.cache.Joins),
		"sched.ms":            medianOver(ops, func(m map[string]float64) float64 { return m["sched"] }),
		"sched.runs":          float64(c.schedRuns),
		"experiments.self_ms": medianOver(ops, func(m map[string]float64) float64 { return m["experiments"] - m["sched"] }),
		"report.render_ms":    medianOver(ops, func(m map[string]float64) float64 { return m["report.render"] }),
		"report.bytes":        float64(c.reportBytes),
	}
	if c.accesses > 0 {
		vals["machine.ns_per_access"] = vals["exec.ms"] * 1e6 * coldTraced / float64(c.accesses)
	}
	res.Metrics = perLayerMetrics("cold-profile", vals, []string{
		"workloads.kernel_ms", "machine.self_ms", "core.self_ms", "sched.ms", "experiments.self_ms", "report.render_ms",
	})
	return res, nil
}

// coldCounts are the traced ops' work counts, summed over the ops.
type coldCounts struct {
	runs, accesses, linesIn, prefetchFills uint64
	schedRuns, reportBytes                 int
	cache                                  core.CacheStats
}

// decomposeCold times one op and then, with the same inputs, the calls it
// makes into each layer: the profiler calls of the figure13 driver on a
// fresh cache (core), the workload executions they perform (exec), a
// record/replay of each execution that splits the workload kernels from
// the machine model, the driver on the now filled cache (experiments) with
// its scheduler comparisons beneath it (sched), and the JSON render
// (report). It reports whether every output matched.
func decomposeCold(ctx context.Context, led *ledger, op int, platform string, es []repro.WorkloadEntry, c *coldCounts) (bool, error) {
	sp, err := repro.PlatformNamed(platform)
	if err != nil {
		return false, err
	}
	var out string
	root := led.call("op", op, -1, func() { _, out, err = coldOp(ctx, platform) })
	if err != nil {
		return false, err
	}
	ok := digest(out) == coldDigests[platform]

	cache := core.NewSharedCache()
	prof := core.NewProfilerShared(sp.Platform, cache)
	h := sp.HeadlineFraction
	// Each workload's profiler calls are followed at once by the two
	// executions they perform, so the subtraction compares calls made
	// under the same host conditions; the record/replay split comes after.
	type run struct {
		e      repro.WorkloadEntry
		cfg    machine.Config
		m      *machine.Machine
		execID int
	}
	var runs []run
	for _, e := range es {
		var cfg machine.Config
		coreID := led.call("core", op, root, func() {
			prof.Level2(e, 1, h)
			cfg = prof.ConfigForLocalFraction(e, 1, h)
		})
		for _, cfg := range []machine.Config{sp.Platform, cfg} {
			r := run{e: e, cfg: cfg}
			r.execID = led.call("exec", op, coreID, func() { r.m = core.Run(cfg, e.New(1)) })
			c.count(r.m)
			runs = append(runs, r)
		}
	}
	cs := cache.Stats()
	c.cache.Hits += cs.Hits
	c.cache.Misses += cs.Misses
	c.cache.Joins += cs.Joins
	for _, r := range runs {
		split, err := execSplit(led, op, r.execID, r.cfg, r.e, r.m)
		if err != nil {
			return false, err
		}
		ok = ok && split
	}

	su := experiments.NewSuiteForShared(sp, cache)
	su.Entries = es
	var r experiments.Result
	expID := led.call("experiments", op, root, func() { r, err = su.RunContext(ctx, "figure13") })
	if err != nil {
		return false, err
	}
	for i, e := range es {
		phases := prof.Level2(e, 1, h).Phase2Stats
		cfg := prof.ConfigForLocalFraction(e, 1, h)
		led.call("sched", op, expID, func() {
			// 1000+17i is the seed the figure13 driver gives workload i.
			_, err = sched.CompareContext(ctx, e.Name, cfg, phases, su.Runs, 1000+uint64(i)*17, pool.NewLimiter(1))
		})
		if err != nil {
			return false, err
		}
		c.schedRuns += 2 * su.Runs
	}

	doc := r.Report()
	doc.Platform = platform
	var rendered string
	led.call("report.render", op, root, func() { rendered, err = report.RenderJSON(doc) })
	if err != nil {
		return false, err
	}
	c.reportBytes += len(rendered)
	return ok && rendered == out, nil
}

// count adds one execution's work to the counts.
func (c *coldCounts) count(m *machine.Machine) {
	c.runs++
	for _, ph := range m.Phases() {
		c.accesses += ph.Cache.DemandAccesses
		c.linesIn += ph.Cache.LinesIn
		c.prefetchFills += ph.Cache.PrefetchFills
	}
}

// execSplit splits execution m of e on cfg into kernel and machine-model
// time: the execution is recorded as a trace, the trace is replayed onto a
// fresh machine (machine model plus decoding) and decoded alone. It reports
// whether the replay reproduced the executed phases; if not, the split is
// rejected.
func execSplit(led *ledger, op, execID int, cfg machine.Config, e repro.WorkloadEntry, m *machine.Machine) (bool, error) {
	var buf bytes.Buffer
	if err := trace.Record(machine.New(cfg), e.New(1).Run, &buf); err != nil {
		return false, fmt.Errorf("record %s: %w", e.Name, err)
	}
	replayed := machine.New(cfg)
	var err error
	replayID := led.call("machine.replay", op, execID, func() { err = trace.Replay(replayed, bytes.NewReader(buf.Bytes())) })
	if err != nil {
		return false, fmt.Errorf("replay %s: %w", e.Name, err)
	}
	led.call("trace.decode", op, replayID, func() { err = decodeAll(buf.Bytes()) })
	if err != nil {
		return false, fmt.Errorf("decode %s: %w", e.Name, err)
	}
	if !reflect.DeepEqual(replayed.Phases(), m.Phases()) {
		fmt.Fprintf(os.Stderr, "cold-profile: replayed phases of %s differ from the executed ones; kernel/machine split rejected\n", e.Name)
		return false, nil
	}
	return true, nil
}

// decodeAll does the work trace.Replay does besides driving the machine:
// it decodes every event and maps each access to its live region the way
// Replay does, by scanning the live regions.
func decodeAll(b []byte) error {
	r, err := trace.NewReader(bytes.NewReader(b))
	if err != nil {
		return err
	}
	regions := map[uint64]uint64{} // recorded base -> size
	for {
		e, err := r.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		switch e.Op {
		case trace.OpAlloc:
			regions[e.Addr] = e.N
		case trace.OpFree:
			delete(regions, e.Addr)
		case trace.OpRead, trace.OpWrite:
			found := false
			for base, size := range regions {
				if e.Addr >= base && e.Addr < base+size {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("access to unmapped address %#x", e.Addr)
			}
		}
	}
}
