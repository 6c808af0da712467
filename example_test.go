package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro"
)

// ExampleNew builds the unified Service facade — one handle owning the
// worker pool, the per-platform suites, the artifact store and the sweep
// memo — and drives it with context-first calls: cancellation or the
// deadline here stops the engine mid-campaign within one task boundary.
// (No Output comment: computing a real artifact profiles workloads, so
// the example compiles under go test but is not executed.)
func ExampleNew() {
	svc, err := repro.New(
		repro.WithWorkers(8),                  // one shared budget for every fan-out
		repro.WithDefaultPlatform("cxl-gen5"), // what an empty Platform resolves to
	)
	if err != nil {
		panic(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	doc, err := svc.Artifact(ctx, repro.ArtifactRequest{Artifact: "figure9"})
	if err != nil {
		panic(err)
	}
	out, err := svc.Rendered(ctx, repro.ArtifactRequest{Artifact: "figure9"}, repro.FormatJSON)
	if err != nil {
		panic(err)
	}
	grid, err := svc.Grid("") // the default generation x capacity-fraction grid
	if err != nil {
		panic(err)
	}
	campaign, err := svc.Sweep(ctx, grid) // memoized single-flight per grid
	if err != nil {
		panic(err)
	}
	fmt.Println(doc.Artifact, len(out), len(campaign.Points))
}

// ExampleNewProfiler runs the paper's Level-2 analysis on a 50%-50%
// two-tier system and classifies each phase's remote access ratio against
// the R_cap and R_BW tuning references.
func ExampleNewProfiler() {
	profiler := repro.NewProfiler(repro.DefaultPlatform())
	entry, err := repro.Workload("XSBench")
	if err != nil {
		panic(err)
	}
	l2 := profiler.Level2(entry, 1, 0.5)
	fmt.Printf("references: R_cap=%.0f%% R_BW=%.0f%%\n", l2.RCap*100, l2.RBW*100)
	for _, ph := range l2.Phases {
		fmt.Printf("phase %s: %s\n", ph.Name, l2.Verdict(ph))
	}
	// Output:
	// references: R_cap=50% R_BW=32%
	// phase p1: balanced
	// phase p2: underused-remote
}

// ExampleSchedule simulates a four-job queue on a two-node rack that
// shares one memory pool, under the interference-aware placement policy:
// the loud pool-heavy jobs are interleaved with quiet mostly-local ones
// instead of being co-located.
func ExampleSchedule() {
	phases := func(remoteFrac float64) []repro.PhaseStats {
		total := uint64(4 << 30)
		remote := uint64(float64(total) * remoteFrac)
		return []repro.PhaseStats{{
			Name:             "p2",
			Flops:            1e8,
			LocalBytes:       total - remote,
			RemoteBytes:      remote,
			DemandMissLocal:  (total - remote) / 64 / 4,
			DemandMissRemote: remote / 64 / 4,
		}}
	}
	queue := []repro.Job{
		{Name: "loud-1", Phases: phases(0.9), IC: 1.6, Sensitivity: 0.15},
		{Name: "loud-2", Phases: phases(0.9), IC: 1.6, Sensitivity: 0.15},
		{Name: "quiet-1", Phases: phases(0.1), IC: 1.05, Sensitivity: 0.05},
		{Name: "quiet-2", Phases: phases(0.1), IC: 1.05, Sensitivity: 0.05},
	}
	rack := repro.RackConfig{Nodes: 2, Machine: repro.DefaultPlatform()}
	res := repro.Schedule(rack, queue, repro.InterferenceAware)
	for _, j := range res.Jobs {
		fmt.Printf("%s started at %.2fs\n", j.Name, j.Start)
	}
	// Output:
	// quiet-1 started at 0.00s
	// loud-1 started at 0.00s
	// quiet-2 started at 0.13s
	// loud-2 started at 0.24s
}

// ExamplePlatformNamed looks a platform scenario up by name and shows the
// what-if surface: the scenario carries a complete platform plus the
// capacity protocol to sweep on it.
func ExamplePlatformNamed() {
	sc, err := repro.PlatformNamed("cxl-gen6")
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s: %s\n", sc.Name, sc.Description)
	fmt.Printf("link: %.0f GB/s data, %.0f ns, headline split %.0f%% local\n",
		sc.Platform.Link.DataBandwidth/1e9, sc.Platform.Link.Latency*1e9,
		sc.HeadlineFraction*100)
	// Output:
	// cxl-gen6: CXL 3.0 pool on PCIe 6.0 x8: 52 GB/s data, 310 ns, 1.12x flit overhead
	// link: 52 GB/s data, 310 ns, headline split 50% local
}

// ExampleService_Sweep declares a two-axis campaign — interconnect
// generation crossed with the local capacity fraction — on the baseline
// scenario's base system and runs the paper's headline analyses over
// every generated scenario. (No Output comment: a full campaign profiles
// every workload, so the example compiles under go test but is not
// executed.)
func ExampleService_Sweep() {
	svc, err := repro.New(repro.WithWorkers(8))
	if err != nil {
		panic(err)
	}
	grid, err := svc.Grid("baseline",
		repro.SweepAxis{Name: "gen", Values: []float64{0, 5, 6}},
		repro.SweepAxis{Name: "frac", Values: []float64{0.25, 0.50, 0.75}},
	)
	if err != nil {
		panic(err)
	}
	campaign, err := svc.Sweep(context.Background(), grid)
	if err != nil {
		panic(err)
	}
	fmt.Println(repro.RenderText(campaign.Sensitivity()))
	best := campaign.Points[campaign.Best]
	fmt.Printf("best cell: %s (score %.3f)\n", best.Spec.Name, campaign.Scores[campaign.Best])
}

// ExampleRecordTrace shows the profile-once / analyze-everywhere workflow:
// a workload execution is recorded once, then the operation trace is
// replayed onto a platform with a quarter of the local capacity — no
// re-run of the application — to see the remote access ratio grow.
func ExampleRecordTrace() {
	platform := repro.DefaultPlatform()
	entry, err := repro.Workload("XSBench")
	if err != nil {
		panic(err)
	}

	var buf bytes.Buffer
	recorded, err := repro.RecordTrace(platform, entry.New(1), &buf)
	if err != nil {
		panic(err)
	}

	pooled := platform.WithLocalCapacity(recorded.PeakFootprint() / 4)
	replayed, err := repro.ReplayTrace(pooled, &buf)
	if err != nil {
		panic(err)
	}

	ratio := func(m *repro.Machine) float64 {
		var remote, total uint64
		for _, ph := range m.Phases() {
			remote += ph.RemoteBytes
			total += ph.TotalBytes()
		}
		return float64(remote) / float64(total)
	}
	fmt.Printf("remote access: recorded %.0f%%, replayed at 25%% local %.0f%%\n",
		ratio(recorded)*100, ratio(replayed)*100)
	// Output:
	// remote access: recorded 0%, replayed at 25% local 13%
}
