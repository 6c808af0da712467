// Command perfbench is the repository's benchmark. It runs one of three
// single-process workloads as a closed loop with one client on a Service
// built with repro.WithWorkers(1), checks every operation's output, and
// prints one JSON line with the end-to-end metrics, or, with --trace 1, the
// per-layer metrics of a separate traced run:
//
//	bash perfbench/run.sh --workload cold-profile --seed 1 --seconds 30 --trace 0
//
// The workloads, their ops and the layer each metric belongs to are
// described in README.md beside this file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// params are a run's inputs from the command line.
type params struct {
	seed    uint64
	seconds time.Duration
	trace   bool
}

// rng returns the run's generator for one workload: every generated input
// derives from the seed.
func (p params) rng(stream uint64) *rand.Rand { return rand.New(rand.NewPCG(p.seed, stream)) }

// workload is one benchmark workload.
type workload struct {
	name string
	run  func(ctx context.Context, p params) (result, error)
}

var workloads = []workload{
	{"cold-profile", runCold},
	{"warm-http", runWarm},
	{"sweep-job", runSweepJob},
}

// endToEnd are the metrics a run without tracing reports, in order. The
// median latency is not among them: on a shared host the same code runs at
// two speeds that alternate every few seconds, and a run's median lands in
// whichever speed held more than half of its ops. It moved by a quarter
// between runs of sweep-job, more than any bound can allow, while the mean
// (ops_per_s) and the 90th percentile, which the slower speed always
// holds, stayed steady. The median is printed on standard error.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_ms_p90", "ms"},
	{"peak_rss_mb", "MiB"},
	{"heap_live_mb", "MiB"},
}

// perLayer are the metrics a traced run reports, in order. Each workload
// reports every one of them; a layer its ops do not reach reads 0.
var perLayer = []struct{ name, unit string }{
	{"exec.ms", "ms"},
	{"exec.runs", "count"},
	{"machine.accesses", "count"},
	{"machine.lines_in", "count"},
	{"machine.prefetch_fills", "count"},
	{"machine.ns_per_access", "ns"},
	{"machine.replay_ms", "ms"},
	{"machine.self_ms", "ms"},
	{"trace.decode_ms", "ms"},
	{"workloads.kernel_ms", "ms"},
	{"core.self_ms", "ms"},
	{"core.cache_hits", "count"},
	{"core.cache_misses", "count"},
	{"core.cache_joins", "count"},
	{"sched.ms", "ms"},
	{"sched.runs", "count"},
	{"experiments.self_ms", "ms"},
	{"sweep.self_ms", "ms"},
	{"sweep.doc_ms", "ms"},
	{"jobs.self_ms", "ms"},
	{"jobs.store_ops", "count"},
	{"jobs.store_bytes", "B"},
	{"jobs.store_ms", "ms"},
	{"report.render_ms", "ms"},
	{"report.bytes", "B"},
	{"report.store_hit_ms", "ms"},
	{"api.self_ms", "ms"},
	{"api.self_ms.art_identity", "ms"},
	{"api.self_ms.art_gzip", "ms"},
	{"api.self_ms.art_304", "ms"},
	{"api.self_ms.sweep_identity", "ms"},
	{"api.self_ms.sweep_gzip", "ms"},
	{"api.self_ms.sweep_304", "ms"},
	{"api.requests", "count"},
	{"api.renders", "count"},
	{"api.gzipped", "count"},
	{"api.not_modified", "count"},
	{"api.coalesced", "count"},
	{"http.ms", "ms"},
	{"op_ms", "ms"},
	{"unattributed_ms", "ms"},
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 3

// attributionTolerance bounds |op_ms - sum of layer self times| / op_ms in
// a traced run.
const attributionTolerance = 0.10

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed every generated input derives from")
	seconds := fs.Int("seconds", 10, "seconds the timed phase lasts")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer decomposition instead")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload %s, --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	// One worker, one client, one P: an op's time is the CPU work it
	// needs, its garbage collection included, and no cross-CPU wake-up on
	// a shared host adds to it.
	runtime.GOMAXPROCS(1)
	p := params{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	//repro:allow ctxflow — the benchmark's main owns the root context of the run
	res, err := w.run(context.Background(), p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}

// table is the workload table every Service in the benchmark runs: dense
// (HPL), streaming-stencil (Hypre) and random-lookup (XSBench) access.
var table = []string{"HPL", "Hypre", "XSBench"}

func entries() ([]repro.WorkloadEntry, error) {
	out := make([]repro.WorkloadEntry, len(table))
	for i, n := range table {
		e, err := repro.Workload(n)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

// newService builds a Service on the benchmark's workload table with one
// worker and request logging off.
func newService(opts ...repro.Option) (*repro.Service, error) {
	es, err := entries()
	if err != nil {
		return nil, err
	}
	base := []repro.Option{repro.WithWorkers(1), repro.WithWorkloads(es...), repro.WithLogger(nil)}
	return repro.New(append(base, opts...)...)
}

// tally is a timed phase: every op's latency and outcome, and the memory
// sample taken after a fixed op.
type tally struct {
	lat       []float64
	busy      time.Duration
	attempted int
	failed    int
	mem       memSample
}

// measure runs op in a closed loop until d has passed and at least memAt
// ops have run. Memory is sampled right after op number memAt, so it does
// not depend on how many ops a faster program fits into d. op returns its
// latency and whether its output checked out; the check itself is not
// timed.
func measure(d time.Duration, memAt int, op func(i int) (time.Duration, bool)) tally {
	var t tally
	resetPeakRSS()
	start := time.Now()
	for i := 0; i < memAt || time.Since(start) < d; i++ {
		dt, ok := op(i)
		t.attempted++
		if !ok {
			t.failed++
		}
		t.lat = append(t.lat, float64(dt)/1e6)
		t.busy += dt
		if i+1 == memAt {
			t.mem = sampleMemory()
		}
	}
	return t
}

// setup runs fn setupReps times and returns each duration; fn keeps what
// the last repetition built.
func setup(fn func() error) ([]time.Duration, error) {
	ds := make([]time.Duration, setupReps)
	for i := range ds {
		start := time.Now()
		if err := fn(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		ds[i] = time.Since(start)
	}
	return ds, nil
}

// endToEndMetrics reports a timed phase and the set-up durations.
func endToEndMetrics(name string, setups []time.Duration, t tally) map[string]metric {
	secs := make([]float64, len(setups))
	for i, d := range setups {
		secs[i] = d.Seconds()
	}
	lat := sortedCopy(t.lat)
	fmt.Fprintf(os.Stderr, "%s: %d ops, %d failed; median %.4f ms; %d samples beyond p90, percentile rule (%d) met: %v\n",
		name, len(lat), t.failed, quantile(lat, 0.5), beyond(len(lat), 0.9), minBeyond, tailOK(len(lat), 0.9))
	vals := map[string]float64{
		"setup_s":        median(secs),
		"ops_per_s":      float64(len(lat)) / t.busy.Seconds(),
		"latency_ms_p90": quantile(lat, 0.9),
		"peak_rss_mb":    t.mem.peakRSS,
		"heap_live_mb":   t.mem.heapLive,
	}
	out := map[string]metric{}
	for _, m := range endToEnd {
		out[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return out
}

// perLayerMetrics fills the traced run's metric set; layers the workload
// does not reach read 0. The median op's latency less the sum of its
// layers' self times is unattributed_ms; whether it stays within
// attributionTolerance is printed on standard error. A miss says the
// decomposition is off, not that the program's output is wrong, so it does
// not fail the run.
func perLayerMetrics(name string, vals map[string]float64, selfKeys []string) map[string]metric {
	sum := 0.0
	parts := make([]string, 0, len(selfKeys))
	for _, k := range selfKeys {
		sum += vals[k]
		parts = append(parts, k+"="+strconv.FormatFloat(vals[k], 'f', 3, 64))
	}
	sort.Strings(parts)
	op := vals["op_ms"]
	vals["unattributed_ms"] = op - sum
	fmt.Fprintf(os.Stderr, "%s: median op %.3f ms, layers sum to %.3f ms (%s); attributed within %.0f%%: %v\n",
		name, op, sum, strings.Join(parts, " "), 100*attributionTolerance, math.Abs(op-sum) <= attributionTolerance*op)
	out := map[string]metric{}
	for _, m := range perLayer {
		out[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return out
}

// memSample is the process's memory after a fixed op.
type memSample struct {
	peakRSS  float64 // VmHWM, MiB
	heapLive float64 // live heap after a collection, MiB
}

func sampleMemory() memSample {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{peakRSS: peakRSS(), heapLive: float64(ms.HeapAlloc) / (1 << 20)}
}

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// peak-RSS count from the current resident set, so peak_rss_mb covers the
// timed ops and not the garbage set-up left behind.
func resetPeakRSS() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: peak RSS not reset, it includes set-up: %v\n", err)
	}
}

// peakRSS reads the process's peak resident set size from /proc.
func peakRSS() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// spanDir is where traced runs write their spans, relative to the
// directory the benchmark runs in.
const spanDir = ".bench_build/perfbench/spans"
