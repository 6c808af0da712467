// Scheduling demonstrates the §7.2 system-level use case twice over:
//
//  1. the paper's Figure 13 protocol — each workload against randomly
//     re-rolled pool interference, baseline (LoI 0-50%) vs an
//     interference-aware scheduler (LoI 0-20%);
//  2. the rack co-location simulator — a queue of profiled jobs placed onto
//     nodes sharing one memory pool, FIFO vs interference-aware selection
//     using the IC and sensitivity hints the paper proposes attaching to
//     job submissions.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	profiler := repro.NewProfiler(repro.DefaultPlatform())

	// Profile every workload once on the 50%-pooled configuration and keep
	// the phases + hints; this is the "user provides the interference
	// profile at submission" workflow.
	type profiled struct {
		name   string
		plat   repro.Platform
		phases []repro.PhaseStats
		job    repro.Job
	}
	var jobs []profiled
	for _, entry := range repro.Workloads() {
		l2 := profiler.Level2(entry, 1, 0.5)
		plat := profiler.ConfigForLocalFraction(entry, 1, 0.5)
		l3 := profiler.Level3(entry, 1, 0.5, []float64{0, 0.5})
		jobs = append(jobs, profiled{
			name:   entry.Name,
			plat:   plat,
			phases: l2.Phase2Stats,
			job: repro.Job{
				Name:        entry.Name,
				Phases:      l2.Phase2Stats,
				IC:          l3.ICMean,
				Sensitivity: 1 - l3.Relative[len(l3.Relative)-1],
			},
		})
	}

	// Part 1: Figure 13 protocol.
	fmt.Println("=== Baseline vs interference-aware scheduler (100 runs each) ===")
	fmt.Printf("%-9s %14s %14s %13s %9s\n", "workload", "median (base)", "median (aware)", "mean speedup", "P75 cut")
	for i, j := range jobs {
		s, err := repro.CompareSchedulers(context.Background(), j.name, j.plat, j.phases, 100, 42+uint64(i), 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s %13.4fs %13.4fs %12.1f%% %8.1f%%\n",
			j.name, s.Baseline.Median, s.Aware.Median, s.MeanSpeedup*100, s.P75Reduction*100)
	}
	fmt.Println()

	// Part 2: rack co-location. Two nodes share the pool; the queue mixes
	// every workload. FIFO ignores the hints; the aware policy avoids
	// pairing pressure-inducing jobs with sensitive ones.
	rack := repro.RackConfig{Nodes: 2, Machine: repro.DefaultPlatform()}
	var queue []repro.Job
	for _, j := range jobs {
		queue = append(queue, j.job)
	}
	fmt.Println("=== Rack co-location: 2 nodes, one shared pool ===")
	for _, pol := range []repro.SchedulePolicy{repro.FIFO, repro.InterferenceAware} {
		res := repro.Schedule(rack, queue, pol)
		fmt.Printf("%-19s makespan %7.4fs  mean slowdown %.3f  worst %.3f\n",
			res.Policy, res.Makespan, res.MeanSlowdown(), res.MaxSlowdown())
		for _, jr := range res.Jobs {
			fmt.Printf("    %-9s start %7.4fs  end %7.4fs  slowdown %.3f\n",
				jr.Name, jr.Start, jr.End, jr.Slowdown())
		}
	}
}
