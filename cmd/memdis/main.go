// Command memdis regenerates the paper's tables and figures on the emulated
// platform. Usage:
//
//	memdis all                        # every experiment in paper order
//	memdis -j 8 all                   # same, fanned out over 8 workers
//	memdis -j 0 all                   # use every core
//	memdis figure9                    # one experiment (figureN or tableN)
//	memdis -platform cxl-gen5 figure9 # same analysis on an alternate platform
//	memdis -format json figure9       # machine-readable artifact on stdout
//	memdis -out artifacts all         # write figureN.txt|.json|.csv files
//	memdis sweep                      # default parameter-sweep campaign
//	memdis sweep -axis gen=0,5,6 -axis frac=0.25:0.75:0.25
//	memdis sweep -cpuprofile cpu.out -memprofile mem.out  # profile the campaign
//	memdis jobs submit -dir state -axis lat=0:400:50   # campaign as a durable job
//	memdis jobs status -dir state     # list jobs in the store
//	memdis jobs resume -dir state ID  # pick a killed job up from its checkpoint
//	memdis jobs events -dir state -follow ID           # tail the event log
//	memdis jobs artifact -dir state ID sweep           # a done job's artifact
//	memdis serve                      # serve the versioned HTTP API
//	memdis -warm default serve        # same, pre-warming the artifact caches
//	memdis -pprof serve               # same, with net/http/pprof on /debug/pprof/
//	memdis -runs 5 -workloads HPL all # reduced Monte-Carlo scale
//	memdis list                       # list experiment ids
//	memdis platforms                  # list platform scenarios
//
// The CLI is a thin shell over repro.Service: every flag maps to a
// functional option (-j to repro.WithWorkers, -platform to
// repro.WithDefaultPlatform, -runs and -workloads to repro.WithRuns and
// repro.WithWorkloads, -warm to repro.WithWarm), and every subcommand
// calls a context-first Service method.
//
// The -warm flag (serve only) drives the startup cache warm: the listed
// scenarios ("default" = the -platform scenario) are computed and
// rendered in the background while the server already answers requests,
// and /healthz flips its "ready" field once the warm completes — the
// readiness signal a load balancer keys on. The serving layer itself adds
// strong ETags with If-None-Match 304s, Cache-Control, gzip negotiation
// and request coalescing on every artifact route; `sbench` (cmd/sbench)
// is the companion load harness that measures it.
//
// The -j flag bounds the worker pool for both the experiment-level and the
// intra-driver fan-out. Output is byte-identical for any -j value: every
// randomized simulation owns a deterministic RNG substream keyed by its run
// index, never by worker or completion order.
//
// The -platform flag re-runs the selected experiments on a registered
// scenario (see `memdis platforms`): the drivers use the scenario's link,
// timing constants and capacity sweep in place of the testbed's.
//
// The -format flag picks the stdout renderer (text, json or csv); -out DIR
// additionally writes each selected artifact in every format into DIR. Both
// draw from the service's render-once artifact store, as does
// `memdis serve`, which mounts the versioned HTTP API on -addr:
// GET /v1/artifacts/<id>, /v1/platforms, /v1/workloads, /v1/sweep and
// /healthz, all sharing one JSON error envelope and Accept/?format=
// content negotiation; any other path is an envelope 404. See docs/API.md.
//
// The sweep subcommand runs a parameter-sweep campaign over generated
// scenarios: each -axis flag declares one swept dimension (gen, lat, bw,
// frac — see internal/sweep), their cross-product derives one scenario per
// cell from the -platform base system, and the campaign emits the "sweep"
// and "sensitivity" artifacts through the same store, -format and -out
// plumbing as the fixed experiments. With no -axis flags the canonical
// generation x capacity-fraction grid runs — exactly the grid behind
// `memdis sweep` and `memdis sensitivity` as plain artifact ids.
//
// The jobs subcommand runs the same campaigns asynchronously with a
// durable checkpoint: `memdis jobs submit -dir DIR` streams every finished
// cell into DIR as it completes, so a run killed mid-campaign — Ctrl-C,
// crash, SIGKILL — is picked up by `memdis jobs resume`, which replays the
// checkpointed cells and recomputes only the remainder. Resumed artifacts
// are byte-identical to an uninterrupted run at any -j. Grids of any
// validating size are accepted here (and on POST /v1/jobs); only the
// synchronous sweep surfaces cap the cell count. See docs/CLI.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "memdis:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("memdis", flag.ContinueOnError)
	workers := fs.Int("j", 1, "parallel workers (0 = all cores)")
	platform := fs.String("platform", "baseline", "platform scenario (see `memdis platforms`)")
	format := fs.String("format", "text", "stdout renderer: text, json or csv")
	outDir := fs.String("out", "", "also write each artifact as <id>.txt|.json|.csv into this directory")
	addr := fs.String("addr", "localhost:8080", "listen address for `memdis serve`")
	runs := fs.Int("runs", 0, "Monte-Carlo scheduler runs per comparison (0 = the paper's 100)")
	workloadList := fs.String("workloads", "", "comma-separated workload subset (default: all six)")
	warm := fs.String("warm", "", "`memdis serve` startup cache warm: comma-separated scenarios, or \"default\" for the -platform scenario")
	pprofFlag := fs.Bool("pprof", false, "`memdis serve`: mount net/http/pprof under /debug/pprof/")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	args = fs.Args()
	if len(args) == 0 {
		return fmt.Errorf("usage: memdis [-j N] [-platform S] [-format F] [-out DIR] <all|serve|sweep|list|platforms|%s|...>", repro.ExperimentIDs()[0])
	}
	f, err := repro.ParseArtifactFormat(*format)
	if err != nil {
		return err
	}
	// Resolve the platform before service construction so an unknown name
	// surfaces as the bare names-listing error, not a wrapped one.
	if _, err := repro.PlatformNamed(*platform); err != nil {
		return err
	}
	opts := []repro.Option{
		repro.WithWorkers(*workers),
		repro.WithDefaultPlatform(*platform),
	}
	if *runs > 0 {
		opts = append(opts, repro.WithRuns(*runs))
	}
	if *workloadList != "" {
		entries, err := parseWorkloads(*workloadList)
		if err != nil {
			return err
		}
		opts = append(opts, repro.WithWorkloads(entries...))
	}
	if *warm != "" {
		if args[0] != "serve" {
			return fmt.Errorf("-warm only applies to `memdis serve`")
		}
		var warmPlatforms []string
		if *warm != "default" {
			warmPlatforms = strings.Split(*warm, ",")
			for i := range warmPlatforms {
				warmPlatforms[i] = strings.TrimSpace(warmPlatforms[i])
			}
		}
		opts = append(opts, repro.WithWarm(warmPlatforms...))
	}
	ctx := context.Background()
	// The sweep subcommand builds its own service carrying the -runs and
	// -workloads options; every other subcommand shares this one. The jobs
	// subcommand dispatches its own verbs over a durable disk store.
	if args[0] == "sweep" {
		return runSweep(ctx, args[1:], opts, *platform, f, *outDir)
	}
	if args[0] == "jobs" {
		return runJobs(ctx, args[1:], opts, *platform, f)
	}
	svc, err := repro.New(opts...)
	if err != nil {
		return err
	}
	switch args[0] {
	case "list":
		for _, id := range svc.IDs() {
			fmt.Println(id)
		}
		return nil
	case "platforms":
		for _, sc := range svc.Scenarios() {
			fmt.Printf("%-12s  %s\n", sc.Name, sc.Description)
		}
		return nil
	case "serve":
		if len(args) > 1 {
			return fmt.Errorf("unexpected arguments after \"serve\": %v (flags go before the subcommand: memdis -addr HOST:PORT serve)", args[1:])
		}
		if *warm != "" {
			done := svc.StartWarm(ctx)
			fmt.Fprintf(os.Stderr, "memdis: warming caches for %s in the background (/healthz reports readiness)\n", *warm)
			go func() {
				<-done
				if err := svc.WarmErr(); err != nil {
					fmt.Fprintf(os.Stderr, "memdis: cache warm failed: %v\n", err)
					return
				}
				fmt.Fprintln(os.Stderr, "memdis: cache warm complete, server ready")
			}()
		}
		handler := svc.Handler()
		if *pprofFlag {
			// The profiling endpoints ride on a wrapper mux so the service
			// handler keeps owning "/" (and its envelope 404 for every
			// path off the route table).
			mux := http.NewServeMux()
			mux.HandleFunc("/debug/pprof/", httppprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
			mux.Handle("/", handler)
			handler = mux
			fmt.Fprintf(os.Stderr, "memdis: pprof mounted at http://%s/debug/pprof/\n", *addr)
		}
		fmt.Fprintf(os.Stderr, "memdis: serving the /v1 API on http://%s/ (default platform %s)\n", *addr, *platform)
		return http.ListenAndServe(*addr, handler)
	case "all":
		if len(args) > 1 {
			// Catch `memdis all -j 4`: flag parsing stops at the first
			// non-flag argument, so a trailing -j would be silently
			// ignored instead of changing the worker count.
			return fmt.Errorf("unexpected arguments after \"all\": %v (flags go before the subcommand: memdis -j N all)", args[1:])
		}
		// Compute the whole artifact set with the experiment-level fan-out;
		// RunAll seeds the store, so emit only renders.
		if _, err := svc.RunAll(ctx, *platform); err != nil {
			return err
		}
		return emit(ctx, svc, *platform, svc.IDs(), f, *outDir, true)
	default:
		// Canonicalize aliases ("fig9" -> "figure9") so store keys, served
		// URLs and -out filenames always match the document's artifact id.
		ids := make([]string, len(args))
		for i, id := range args {
			canon, err := repro.CanonicalArtifactID(id)
			if err != nil {
				return err
			}
			ids[i] = canon
		}
		return emit(ctx, svc, *platform, ids, f, *outDir, false)
	}
}

// runSweep implements the sweep subcommand: parse the axis declarations,
// build a service carrying the run-count and workload-subset options, run
// the campaign on the selected platform's suite, seed the store with the
// two resulting documents and emit them like any other artifact pair.
func runSweep(ctx context.Context, args []string, opts []repro.Option, platform string, f repro.ArtifactFormat, outDir string) error {
	fs := flag.NewFlagSet("memdis sweep", flag.ContinueOnError)
	var axes []repro.SweepAxis
	fs.Func("axis", "swept axis, name=v1,v2,... or name=lo:hi:step (repeatable; axes: gen, lat, bw, frac)", func(s string) error {
		a, err := repro.ParseSweepAxis(s)
		if err != nil {
			return err
		}
		axes = append(axes, a)
		return nil
	})
	runs := fs.Int("runs", 0, "Monte-Carlo scheduler runs per cell (0 = the paper's 100)")
	workloadList := fs.String("workloads", "", "comma-separated workload subset (default: all six)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
	memprofile := fs.String("memprofile", "", "write a post-campaign heap profile to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if rest := fs.Args(); len(rest) > 0 {
		return fmt.Errorf("unexpected arguments after \"sweep\" flags: %v", rest)
	}
	if *runs > 0 {
		opts = append(opts, repro.WithRuns(*runs))
	}
	if *workloadList != "" {
		entries, err := parseWorkloads(*workloadList)
		if err != nil {
			return err
		}
		opts = append(opts, repro.WithWorkloads(entries...))
	}
	svc, err := repro.New(opts...)
	if err != nil {
		return err
	}
	g, err := svc.Grid(platform, axes...)
	if err != nil {
		return err
	}
	// Profile exactly the campaign execution: the CPU profile stops (and
	// the heap snapshot is taken) before rendering and emission.
	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	camp, err := svc.Sweep(ctx, g)
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return err
	}
	if *memprofile != "" {
		mf, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer mf.Close()
		runtime.GC() // settle the heap so the profile shows live campaign state
		if err := pprof.WriteHeapProfile(mf); err != nil {
			return err
		}
	}
	svc.Store().Put(platform, camp.Sweep())
	svc.Store().Put(platform, camp.Sensitivity())
	return emit(ctx, svc, platform, []string{"sweep", "sensitivity"}, f, outDir, false)
}

// runJobs implements the jobs subcommand — asynchronous checkpoint/resume
// campaigns over a durable disk store:
//
//	memdis jobs submit -dir DIR [-axis ...]   # run a campaign as a job
//	memdis jobs status -dir DIR [ID]          # list jobs, or one record
//	memdis jobs resume -dir DIR ID            # pick a killed job back up
//	memdis jobs events -dir DIR [-follow] ID  # print the event log
//	memdis jobs artifact -dir DIR ID NAME     # a done job's sweep|sensitivity
//
// submit and resume wait for the job, streaming event lines to stderr as
// cells finish, and print the two campaign artifacts on completion; an
// interrupt (Ctrl-C) cancels at the next cell boundary, keeping the
// checkpoint so a later resume recomputes only the remainder. The resumed
// run must use the same -runs/-workloads as the original submit — the
// declaration is pinned in the record and revalidated.
func runJobs(ctx context.Context, args []string, opts []repro.Option, platform string, f repro.ArtifactFormat) error {
	usage := "usage: memdis jobs <submit|status|resume|events|artifact> -dir DIR [flags] [ID] [NAME]"
	if len(args) == 0 {
		return errors.New(usage)
	}
	verb, args := args[0], args[1:]
	fs := flag.NewFlagSet("memdis jobs "+verb, flag.ContinueOnError)
	dir := fs.String("dir", "", "durable job store directory (required)")
	follow := fs.Bool("follow", false, "events: keep streaming new lines until the job finishes")
	var axes []repro.SweepAxis
	fs.Func("axis", "submit: swept axis, name=v1,v2,... or name=lo:hi:step (repeatable)", func(s string) error {
		a, err := repro.ParseSweepAxis(s)
		if err != nil {
			return err
		}
		axes = append(axes, a)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *dir == "" {
		return fmt.Errorf("memdis jobs %s: -dir is required (the job store directory checkpoints live in)", verb)
	}
	svc, err := repro.New(append(opts, repro.WithJobDir(*dir))...)
	if err != nil {
		return err
	}
	defer svc.Close()
	rest := fs.Args()
	one := func() (string, error) {
		if len(rest) != 1 {
			return "", fmt.Errorf("memdis jobs %s: want exactly one job id (%s)", verb, usage)
		}
		return rest[0], nil
	}
	switch verb {
	case "submit":
		if len(rest) > 0 {
			return fmt.Errorf("unexpected arguments after \"jobs submit\" flags: %v", rest)
		}
		g, err := svc.Grid(platform, axes...)
		if err != nil {
			return err
		}
		rec, err := svc.SubmitSweep(g)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "memdis: job %s: %d tasks over %d grid cells\n", rec.ID, rec.Total, g.Size()+1)
		return watchJob(ctx, svc, rec.ID, f)
	case "resume":
		id, err := one()
		if err != nil {
			return err
		}
		rec, err := svc.ResumeJob(id)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "memdis: job %s: resumed at %d/%d tasks\n", rec.ID, rec.Done, rec.Total)
		return watchJob(ctx, svc, rec.ID, f)
	case "status":
		if len(rest) == 0 {
			recs, err := svc.Jobs()
			if err != nil {
				return err
			}
			for _, rec := range recs {
				fmt.Printf("%-16s  %-11s  %5d/%-5d  %s\n",
					rec.ID, rec.State, rec.Done, rec.Total, rec.Created.Format("2006-01-02T15:04:05Z"))
			}
			return nil
		}
		id, err := one()
		if err != nil {
			return err
		}
		rec, err := svc.Job(id)
		if err != nil {
			return err
		}
		out, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))
		return nil
	case "events":
		id, err := one()
		if err != nil {
			return err
		}
		offset := 0
		for {
			data, err := svc.JobEvents(id)
			if err != nil {
				return err
			}
			if len(data) > offset {
				os.Stdout.Write(data[offset:])
				offset = len(data)
			}
			if !*follow {
				return nil
			}
			rec, err := svc.Job(id)
			if err != nil {
				return err
			}
			// Interrupted still follows: a sibling process may be appending
			// to the same store. Ctrl-C stops the tail.
			if rec.State == repro.JobDone || rec.State == repro.JobFailed || rec.State == repro.JobCancelled {
				return nil
			}
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(200 * time.Millisecond):
			}
		}
	case "artifact":
		if len(rest) != 2 {
			return fmt.Errorf("usage: memdis jobs artifact -dir DIR ID <sweep|sensitivity>")
		}
		out, err := svc.JobArtifact(rest[0], rest[1], f)
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	default:
		return fmt.Errorf("unknown jobs verb %q (%s)", verb, usage)
	}
}

// watchJob blocks on a submitted or resumed job, tailing its event log to
// stderr; on completion it prints the campaign's two artifacts to stdout.
// An interrupt cancels the job at its next cell boundary — the checkpoint
// stays, so `memdis jobs resume` recomputes only the remainder.
func watchJob(ctx context.Context, svc *repro.Service, id string, f repro.ArtifactFormat) error {
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt)
	defer stop()
	offset := 0
	tail := func() {
		if data, err := svc.JobEvents(id); err == nil && len(data) > offset {
			os.Stderr.Write(data[offset:])
			offset = len(data)
		}
	}
	for {
		tail()
		rec, err := svc.Job(id)
		if err != nil {
			return err
		}
		switch rec.State {
		case repro.JobRunning:
		case repro.JobDone:
			tail()
			for _, name := range []string{"sweep", "sensitivity"} {
				out, err := svc.JobArtifact(id, name, f)
				if err != nil {
					return err
				}
				if f == repro.FormatText {
					fmt.Println(out)
				} else {
					fmt.Print(out)
				}
			}
			return nil
		default:
			tail()
			return fmt.Errorf("job %s %s at %d/%d tasks (resume with `memdis jobs resume`)%s",
				id, rec.State, rec.Done, rec.Total, errSuffix(rec.Error))
		}
		select {
		case <-ctx.Done():
			stop() // restore default signal handling: a second Ctrl-C kills
			fmt.Fprintf(os.Stderr, "memdis: interrupt — cancelling job %s at the next cell boundary (checkpoint kept)\n", id)
			rec, err := svc.CancelJob(id)
			if err != nil {
				return err
			}
			tail()
			return fmt.Errorf("job %s cancelled at %d/%d tasks (resume with `memdis jobs resume -dir DIR %s`)",
				id, rec.Done, rec.Total, id)
		case <-time.After(200 * time.Millisecond):
		}
	}
}

func errSuffix(msg string) string {
	if msg == "" {
		return ""
	}
	return ": " + msg
}

// parseWorkloads resolves a comma-separated workload-name list against the
// registry — shared by the global -workloads flag and the sweep
// subcommand's local one.
func parseWorkloads(list string) ([]repro.WorkloadEntry, error) {
	var entries []repro.WorkloadEntry
	for _, name := range strings.Split(list, ",") {
		e, err := repro.Workload(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// emit prints each artifact in the chosen format (with the historical
// banner for `all` text output) and, when outDir is set, writes the whole
// artifact set in every format there.
func emit(ctx context.Context, svc *repro.Service, platform string, ids []string, f repro.ArtifactFormat, outDir string, banner bool) error {
	for _, id := range ids {
		out, err := svc.Rendered(ctx, repro.ArtifactRequest{Platform: platform, Artifact: id}, f)
		if err != nil {
			return err
		}
		switch {
		case f == repro.FormatText && banner:
			fmt.Printf("==== %s ====\n%s\n", id, out)
		case f == repro.FormatText:
			// The historical `memdis <id>` layout: Println adds the blank
			// line that separated consecutive artifacts.
			fmt.Println(out)
		default:
			fmt.Print(out)
		}
	}
	if outDir == "" {
		return nil
	}
	paths, err := svc.WriteDir(ctx, outDir, platform, ids)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "memdis: wrote %d artifact files to %s\n", len(paths), outDir)
	return nil
}
