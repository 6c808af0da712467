package main

import (
	"context"
	"errors"
	"testing"

	"repro"
	"repro/internal/jobs"
)

func TestCountingStoreCounts(t *testing.T) {
	s := newCountingStore()
	if err := s.Put("jobs/a/job.json", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("jobs/a/cells.jsonl", []byte("abc\n")); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("jobs/a/cells.jsonl", []byte("de\n")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("jobs/a/cells.jsonl")
	if err != nil || string(got) != "abc\nde\n" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if _, err := s.Get("jobs/missing"); !errors.Is(err, jobs.ErrNotExist) {
		t.Fatalf("Get of a missing key = %v, want ErrNotExist", err)
	}
	keys, err := s.List("jobs/a/")
	if err != nil || len(keys) != 2 {
		t.Fatalf("List = %v, %v", keys, err)
	}
	if err := s.Delete("jobs/a"); err != nil {
		t.Fatal(err)
	}
	st := s.stats()
	// Put 5 + Append 4 + Append 3 + Get 7 + missing Get 0 + List + Delete.
	if st.ops != 7 || st.bytes != 19 {
		t.Errorf("stats = %d ops, %d bytes; want 7 ops, 19 bytes", st.ops, st.bytes)
	}
	if st.busy <= 0 {
		t.Errorf("busy = %v, want > 0", st.busy)
	}
}

// TestCountingStoreBacksJobs runs a small campaign job through the store
// installed with repro.WithJobStore: the job must finish and its artifacts
// must be readable through the Service, so the counts the benchmark
// reports are counts of a working store.
func TestCountingStoreBacksJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("executes a workload on the emulated machine")
	}
	e, err := repro.Workload("XSBench")
	if err != nil {
		t.Fatal(err)
	}
	s := newCountingStore()
	svc, err := repro.New(repro.WithJobStore(s), repro.WithWorkloads(e), repro.WithRuns(5), repro.WithLogger(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ax, err := repro.ParseSweepAxis("lat=0,100")
	if err != nil {
		t.Fatal(err)
	}
	g, err := svc.Grid("", ax)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := svc.SubmitSweep(g)
	if err != nil {
		t.Fatal(err)
	}
	if rec, err = svc.WaitJob(context.Background(), rec.ID); err != nil || rec.State != repro.JobDone {
		t.Fatalf("job ended %v, %v", rec.State, err)
	}
	if _, err := svc.JobArtifact(rec.ID, "sweep", repro.FormatJSON); err != nil {
		t.Fatal(err)
	}
	st := s.stats()
	// One checkpoint append per computed cell (base row plus two cells)
	// and six artifacts, at the least.
	if st.ops < int64(rec.Total)+6 || st.bytes == 0 {
		t.Errorf("stats = %d ops, %d bytes after a %d-cell job", st.ops, st.bytes, rec.Total)
	}
}
