package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/pool"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/workloads/registry"
)

// testGrid is the campaign the manager tests share: enough cells that a
// kill lands mid-flight, one workload and a tiny Monte-Carlo count so the
// whole grid still computes in a couple of seconds.
func testGrid(cells int) sweep.Grid {
	vals := make([]float64, cells)
	for i := range vals {
		vals[i] = float64(i * 10)
	}
	return sweep.Grid{Base: scenario.Default(), Axes: []sweep.Axis{{Name: "lat", Values: vals}}}
}

// testRunner is the NewRunner hook every test manager shares — identical
// config everywhere, so job ids agree across managers and processes.
func testRunner(g sweep.Grid) *sweep.Runner {
	return &sweep.Runner{Grid: g, Entries: registry.All()[:1], Runs: 2}
}

func testManager(t *testing.T, st Store, workers int) *Manager {
	t.Helper()
	m, err := NewManager(Config{Store: st, NewRunner: testRunner, Limiter: pool.NewLimiter(workers)})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// runToDone submits g on a fresh manager over st and waits for the
// terminal record.
func runToDone(t *testing.T, st Store, workers int, g sweep.Grid) (*Manager, Record) {
	t.Helper()
	m := testManager(t, st, workers)
	rec, err := m.Submit(g)
	if err != nil {
		t.Fatal(err)
	}
	rec, err = m.Wait(context.Background(), rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	return m, rec
}

// artifactsOf reads every rendered artifact of a done job, keyed by
// name.ext.
func artifactsOf(t *testing.T, m *Manager, id string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, name := range []string{"sweep", "sensitivity"} {
		for _, f := range report.Formats {
			s, err := m.Artifact(id, name, f)
			if err != nil {
				t.Fatalf("Artifact(%s, %s, %s): %v", id, name, f, err)
			}
			out[name+"."+f.Ext()] = s
		}
	}
	return out
}

// TestJobLifecycle drives a job from submission to done on the in-memory
// store: terminal record, full bitmap, artifacts in every format, and an
// event log whose line sequence is submitted, one cell per task, done.
func TestJobLifecycle(t *testing.T) {
	st := NewMemStore()
	m := testManager(t, st, 1) // sequential, so the event order is deterministic
	g := testGrid(3)
	rec, err := m.Submit(g)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateRunning || rec.Total != 4 { // (3 cells + base) × 1 workload
		t.Fatalf("submitted record = %+v, want running with 4 tasks", rec)
	}
	if _, err := m.Artifact(rec.ID, "sweep", report.FormatText); !errors.Is(err, ErrNotDone) {
		t.Errorf("Artifact before done = %v, want ErrNotDone", err)
	}
	rec, err = m.Wait(context.Background(), rec.ID)
	if err != nil || rec.State != StateDone {
		t.Fatalf("Wait = %+v, %v, want done", rec, err)
	}
	if rec.Done != rec.Total {
		t.Errorf("done job has %d/%d tasks", rec.Done, rec.Total)
	}
	for i := 0; i < rec.Total; i++ {
		if !bitmapGet(rec.Bitmap, i) {
			t.Errorf("bitmap bit %d unset on a done job", i)
		}
	}
	arts := artifactsOf(t, m, rec.ID)
	if len(arts) != 6 || !strings.Contains(arts["sweep.txt"], "Campaign grid") {
		t.Errorf("artifacts = %d entries, sweep.txt %q...", len(arts), firstLine(arts["sweep.txt"]))
	}

	raw, err := m.Events(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("event line %q: %v", line, err)
		}
		events = append(events, ev)
	}
	if len(events) != rec.Total+2 {
		t.Fatalf("event log has %d lines, want submitted + %d cells + done", len(events), rec.Total)
	}
	if events[0].Event != "submitted" || events[len(events)-1].Event != "done" {
		t.Errorf("event log ends = %s...%s, want submitted...done", events[0].Event, events[len(events)-1].Event)
	}
	seenDone := 0
	for _, ev := range events[1 : len(events)-1] {
		if ev.Event != "cell" || ev.Total != rec.Total || ev.Workload != "HPL" || ev.Seed == 0 {
			t.Fatalf("cell event %+v malformed", ev)
		}
		if ev.Done != seenDone+1 {
			t.Errorf("cell event done = %d, want strictly increasing %d", ev.Done, seenDone+1)
		}
		seenDone = ev.Done
	}

	// Resubmitting the identical campaign re-attaches to the done job.
	again, err := m.Submit(g)
	if err != nil || again.ID != rec.ID || again.State != StateDone {
		t.Errorf("resubmit = %+v, %v, want the done record", again, err)
	}
	// And the listing shows exactly one job.
	ls, err := m.List()
	if err != nil || len(ls) != 1 || ls[0].ID != rec.ID {
		t.Errorf("List = %+v, %v", ls, err)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// TestUnknownJob pins the not-found mapping across the read surfaces.
func TestUnknownJob(t *testing.T) {
	m := testManager(t, NewMemStore(), 1)
	if _, err := m.Get("feedfeedfeedfeed"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(unknown) = %v, want ErrNotFound", err)
	}
	if _, err := m.Resume("feedfeedfeedfeed"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Resume(unknown) = %v, want ErrNotFound", err)
	}
	if _, err := m.Events("feedfeedfeedfeed"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Events(unknown) = %v, want ErrNotFound", err)
	}
	if _, err := m.Cancel("feedfeedfeedfeed"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Cancel(unknown) = %v, want ErrNotFound", err)
	}
}

// TestSubmitValidates pins that an invalid grid fails on the submit call
// with the shared sweep validation error, before anything persists.
func TestSubmitValidates(t *testing.T) {
	m := testManager(t, NewMemStore(), 1)
	g := sweep.Grid{Base: scenario.Default(), Axes: []sweep.Axis{{Name: "volts", Values: []float64{1}}}}
	if _, err := m.Submit(g); !errors.Is(err, sweep.ErrInvalid) {
		t.Errorf("Submit(invalid grid) = %v, want sweep.ErrInvalid", err)
	}
	if ls, _ := m.List(); len(ls) != 0 {
		t.Errorf("invalid submission persisted a record: %+v", ls)
	}
}

// waitForCells polls a disk job dir until the checkpoint holds at least n
// lines (or the deadline passes), returning the current line count.
func waitForCells(t *testing.T, dir, id string, n int, deadline time.Duration) int {
	t.Helper()
	path := filepath.Join(dir, "jobs", id, "cells.jsonl")
	end := time.Now().Add(deadline)
	for {
		if b, err := os.ReadFile(path); err == nil {
			if c := strings.Count(string(b), "\n"); c >= n {
				return c
			}
		}
		if time.Now().After(end) {
			t.Fatalf("checkpoint never reached %d cells", n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// resumedSkipCount extracts the "resumed" event's skipped counter from a
// job's event log (the last resumed line wins).
func resumedSkipCount(t *testing.T, m *Manager, id string) int {
	t.Helper()
	raw, err := m.Events(id)
	if err != nil {
		t.Fatal(err)
	}
	skipped := -1
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var ev Event
		if json.Unmarshal([]byte(line), &ev) == nil && ev.Event == "resumed" {
			skipped = ev.Skipped
		}
	}
	if skipped < 0 {
		t.Fatal("no resumed event in the log")
	}
	return skipped
}

// TestCancelResumeByteIdentical kills a campaign mid-flight with Cancel,
// resumes it on a *fresh manager* over the same disk store (the
// restarted-process shape), and checks the acceptance contract: at least
// one checkpointed cell is skipped, only the remainder recomputes, and
// the final artifacts are byte-identical to a never-interrupted run at
// both -j1 and -j8.
func TestCancelResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-campaign byte-identity is covered by the full tier")
	}
	g := testGrid(24)
	wm, want := runToDone(t, NewMemStore(), 1, g)
	wantArts := artifactsOf(t, wm, want.ID)

	for _, workers := range []int{1, 8} {
		dir := t.TempDir()
		st, err := NewDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		m := testManager(t, st, workers)
		rec, err := m.Submit(g)
		if err != nil {
			t.Fatal(err)
		}
		waitForCells(t, dir, rec.ID, 1, time.Minute)
		rec, err = m.Cancel(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if rec.State == StateDone {
			t.Skipf("campaign finished before the cancel landed (done=%d/%d); machine too fast for this grid", rec.Done, rec.Total)
		}
		if rec.State != StateCancelled || rec.Done == 0 {
			t.Fatalf("cancelled record = state %s done %d, want cancelled with progress", rec.State, rec.Done)
		}

		// A fresh manager over the same store: the restarted process.
		m2 := testManager(t, st, workers)
		if got, err := m2.Get(rec.ID); err != nil || got.State != StateCancelled {
			t.Fatalf("Get on fresh manager = %+v, %v", got, err)
		}
		res, err := m2.Resume(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		res, err = m2.Wait(context.Background(), res.ID)
		if err != nil || res.State != StateDone {
			t.Fatalf("resumed job = %+v, %v, want done", res, err)
		}
		if skipped := resumedSkipCount(t, m2, res.ID); skipped < 1 || skipped != rec.Done {
			t.Errorf("resume skipped %d cells, want the %d checkpointed ones", skipped, rec.Done)
		}
		got := artifactsOf(t, m2, res.ID)
		for k, w := range wantArts {
			if got[k] != w {
				t.Errorf("-j%d resumed artifact %s differs from the uninterrupted run (%d vs %d bytes)",
					workers, k, len(got[k]), len(w))
			}
		}
	}
}

// helperEnvDir is the env var that switches the test binary into the
// SIGKILL helper role: run the shared campaign over the given disk store
// until killed.
const helperEnvDir = "REPRO_JOBS_HELPER_DIR"

// TestHelperJobProcess is not a test: it is the subprocess body of
// TestSIGKILLResumeByteIdentical, selected via helperEnvDir.
func TestHelperJobProcess(t *testing.T) {
	dir := os.Getenv(helperEnvDir)
	if dir == "" {
		t.Skip("helper process body; driven by TestSIGKILLResumeByteIdentical")
	}
	st, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := testManager(t, st, 2)
	rec, err := m.Submit(testGrid(24))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(context.Background(), rec.ID); err != nil {
		t.Fatal(err)
	}
}

// TestSIGKILLResumeByteIdentical is the acceptance test for the hard
// kill: a subprocess runs the campaign, the parent SIGKILLs it after the
// first checkpointed cell (no graceful shutdown, no deferred writes),
// and a fresh manager resumes the job from the on-disk checkpoint. The
// resumed job must skip at least one checkpointed cell, recompute only
// the remainder, and produce artifacts byte-identical to a
// never-interrupted run at both -j1 and -j8.
func TestSIGKILLResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill-resume is covered by the full tier and the CI smoke")
	}
	g := testGrid(24)
	wm, want := runToDone(t, NewMemStore(), 1, g)
	wantArts := artifactsOf(t, wm, want.ID)

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelperJobProcess$", "-test.v")
	cmd.Env = append(os.Environ(), helperEnvDir+"="+dir)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	id := mustID(t, g)
	waitForCells(t, dir, id, 1, time.Minute)
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: the process gets no say
		t.Fatal(err)
	}
	_ = cmd.Wait()

	st, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := testManager(t, st, 1)
	rec, err := m.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State == StateDone {
		t.Skipf("campaign finished before the kill landed; machine too fast for this grid")
	}
	if rec.State != StateInterrupted {
		t.Fatalf("killed job reports %s, want interrupted", rec.State)
	}

	for _, workers := range []int{1, 8} {
		// Resume on a copy of the killed store, once per worker count, so
		// both resumes start from the same post-kill checkpoint.
		cdir := t.TempDir()
		copyTree(t, dir, cdir)
		cst, err := NewDiskStore(cdir)
		if err != nil {
			t.Fatal(err)
		}
		rm := testManager(t, cst, workers)
		res, err := rm.Resume(id)
		if err != nil {
			t.Fatal(err)
		}
		res, err = rm.Wait(context.Background(), res.ID)
		if err != nil || res.State != StateDone {
			t.Fatalf("-j%d resume = %+v, %v, want done", workers, res, err)
		}
		if skipped := resumedSkipCount(t, rm, id); skipped < 1 {
			t.Errorf("-j%d resume skipped %d checkpointed cells, want >= 1", workers, skipped)
		}
		got := artifactsOf(t, rm, id)
		for k, w := range wantArts {
			if got[k] != w {
				t.Errorf("-j%d SIGKILL-resumed artifact %s differs from the uninterrupted run (%d vs %d bytes)",
					workers, k, len(got[k]), len(w))
			}
		}
	}
}

// mustID computes the deterministic job id of g under the shared test
// runner config.
func mustID(t *testing.T, g sweep.Grid) string {
	t.Helper()
	names, runs, seed := normalize(testRunner(g))
	id, err := jobID(g, names, runs, seed)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// copyTree copies a job store directory (regular files only).
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(p string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		return os.WriteFile(out, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestResumeRevalidates pins the tamper guard: a record whose stored
// declaration no longer hashes to its id refuses to run.
func TestResumeRevalidates(t *testing.T) {
	st := NewMemStore()
	m := testManager(t, st, 1)
	rec, err := m.Submit(testGrid(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(context.Background(), rec.ID); err != nil {
		t.Fatal(err)
	}
	// Tamper: bump the run count in the stored record.
	loaded, err := m.loadRecord(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	loaded.Runs++
	loaded.State = StateFailed // make it resumable
	if err := m.putRecord(loaded); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Resume(rec.ID); !errors.Is(err, ErrRecordModified) {
		t.Errorf("Resume(tampered) = %v, want ErrRecordModified", err)
	}
}

// TestJobIDStable pins the id of the default campaign. A job id hashes the
// JSON of its grid, and that JSON carries every field of machine.Config,
// and so of cache.Config, link.Config and mem.Config, under its Go name:
// adding, removing or renaming one such field changes every id, so Submit
// no longer re-attaches to a stored job and Resume of a stored job fails
// with ErrRecordModified. Change this id only together with a migration of
// stored jobs.
func TestJobIDStable(t *testing.T) {
	id, err := jobID(sweep.DefaultGrid(scenario.Default()), registry.Names(), 100, sweep.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if want := "a91873049f902e89"; id != want {
		t.Errorf("default campaign job id = %s, want %s", id, want)
	}
}
