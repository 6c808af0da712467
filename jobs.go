package repro

import (
	"context"
	"fmt"

	"repro/internal/jobs"
	"repro/internal/sweep"
)

// Async campaign jobs. A sweep campaign over a large grid can outlive any
// reasonable HTTP request; SubmitSweep runs it as a background job whose
// every finished cell streams into a persistent checkpoint. The engine's
// determinism-first discipline makes the checkpoint trustworthy: each
// (cell, workload) task is a pure function of its grid coordinates, so a
// job killed mid-campaign — cancelled, crashed, or SIGKILLed — resumes by
// replaying checkpointed cells and recomputing only the remainder, with
// final artifacts byte-identical to an uninterrupted run at any worker
// count.

// JobRecord is one campaign job's state: the full grid declaration, the
// per-cell completion bitmap, progress counters and lifecycle state.
type JobRecord = jobs.Record

// JobState is a job's lifecycle phase (see the JobRunning... constants).
type JobState = jobs.State

// JobEvent is one line of a job's JSON-lines event log.
type JobEvent = jobs.Event

// JobStore is the pluggable persistence backend job state lives in: a flat
// key → bytes namespace deliberately shaped like an object store. The
// library ships a disk implementation (NewDiskJobStore) and an in-memory
// one (the default); a bucket-backed implementation can slot in without
// touching the job manager.
type JobStore = jobs.Store

// The job lifecycle states. JobInterrupted is derived, never persisted: a
// record that says running with no live execution in this process — the
// killed-process case ResumeJob exists for.
const (
	JobRunning     = jobs.StateRunning
	JobDone        = jobs.StateDone
	JobFailed      = jobs.StateFailed
	JobCancelled   = jobs.StateCancelled
	JobInterrupted = jobs.StateInterrupted
)

// Job error sentinels, errors.Is-matchable like the Service's other
// classification sentinels.
var (
	// ErrUnknownJob matches a lookup of a job id that was never submitted.
	ErrUnknownJob = jobs.ErrNotFound
	// ErrJobNotDone matches an artifact read from a job that has not
	// completed.
	ErrJobNotDone = jobs.ErrNotDone
	// ErrUnknownJobArtifact matches a job artifact read of a name other
	// than "sweep" and "sensitivity".
	ErrUnknownJobArtifact = jobs.ErrUnknownArtifact
	// ErrJobRecordModified matches a resume whose stored declaration no
	// longer hashes to the job id — a tampered or corrupted record that
	// must never run. The HTTP layer serves it as a 409 conflict.
	ErrJobRecordModified = jobs.ErrRecordModified
)

// NewDiskJobStore opens (creating if needed) the durable filesystem job
// store rooted at dir — the backend behind `memdis jobs -dir` and
// WithJobDir. Jobs submitted against it survive the process and resume
// from their on-disk checkpoint.
func NewDiskJobStore(dir string) (JobStore, error) { return jobs.NewDiskStore(dir) }

// NewMemJobStore returns an in-memory job store: jobs run and report
// exactly like disk-backed ones but do not survive the process. It is the
// default backend of a Service built without WithJobStore or WithJobDir.
func NewMemJobStore() JobStore { return jobs.NewMemStore() }

// WithJobStore installs the persistence backend for campaign jobs. The
// default is an in-memory store (jobs die with the process); pass
// NewDiskJobStore's result — or any object-store-shaped implementation —
// to make jobs durable.
func WithJobStore(st JobStore) Option {
	return func(s *Service) error {
		if st == nil {
			return fmt.Errorf("repro: WithJobStore: nil store")
		}
		s.jobStore = st
		return nil
	}
}

// WithJobDir is WithJobStore over a disk store rooted at dir: campaign
// jobs checkpoint to disk and survive the process.
func WithJobDir(dir string) Option {
	return func(s *Service) error {
		st, err := jobs.NewDiskStore(dir)
		if err != nil {
			return fmt.Errorf("repro: WithJobDir: %w", err)
		}
		s.jobStore = st
		return nil
	}
}

// newSweepRunner builds the sweep runner a campaign job executes — the
// same construction Service.Sweep uses, including routing the grid to the
// suite owning its base system so the job shares that suite's warm
// profiler caches.
func (s *Service) newSweepRunner(g SweepGrid) *sweep.Runner {
	r := &sweep.Runner{Grid: g, Entries: s.entries, Runs: s.runs, Cache: s.profCache}
	for _, sp := range s.scenarios {
		base := Scenario{
			Name:              sp.Platform.Name,
			Platform:          sp.Platform,
			CapacityFractions: sp.CapacityFractions,
			HeadlineFraction:  sp.HeadlineFraction,
		}
		if specEqual(base, g.Base) {
			if su, err := s.suite(sp.Name); err == nil {
				r.BaseProfiler = su.Profiler
			}
			break
		}
	}
	return r
}

// SubmitSweep starts the campaign for g as an asynchronous job and returns
// its record immediately; poll with Job or block with WaitJob. Job ids are
// deterministic in the campaign declaration (grid, workload table, run
// count, seed), so submitting an identical grid re-attaches to the running
// or finished job — and submitting after a crash resumes its checkpoint —
// instead of duplicating work. The job executes detached from any request
// context on the Service's shared worker budget; stop it with CancelJob.
// Unlike the synchronous HTTP sweep surface, jobs accept grids of any
// validating size.
func (s *Service) SubmitSweep(g SweepGrid) (JobRecord, error) {
	return s.jobs.Submit(g)
}

// ResumeJob restarts an interrupted, failed or cancelled job from its
// persisted checkpoint: the stored grid declaration is revalidated
// (including that it still hashes to the job id), checkpointed cells are
// skipped by coordinate, and only the remainder recomputes — the resumed
// artifacts are byte-identical to an uninterrupted run.
func (s *Service) ResumeJob(id string) (JobRecord, error) {
	return s.jobs.Resume(id)
}

// Job returns one job's record; lookups of unknown ids match
// ErrUnknownJob. A record persisted as running with no live execution in
// this process is reported as JobInterrupted.
func (s *Service) Job(id string) (JobRecord, error) { return s.jobs.Get(id) }

// Jobs lists every job in the store, oldest submission first.
func (s *Service) Jobs() ([]JobRecord, error) { return s.jobs.List() }

// CancelJob stops a running job at its next cell boundary and returns its
// record. Finished cells stay checkpointed: ResumeJob picks the campaign
// back up without recomputing them.
func (s *Service) CancelJob(id string) (JobRecord, error) { return s.jobs.Cancel(id) }

// WaitJob blocks until the job reaches a terminal state in this process —
// done, failed or cancelled — or ctx dies, and returns the record.
func (s *Service) WaitJob(ctx context.Context, id string) (JobRecord, error) {
	return s.jobs.Wait(ctx, id)
}

// JobEvents returns the job's raw JSON-lines event log (one JobEvent per
// line): submission, resume, one `cell done i/total` line per finished
// cell with its generated name and substream seed, and the terminal event.
// The log is append-only, so a follower can re-read and print only the
// suffix beyond its last offset.
func (s *Service) JobEvents(id string) ([]byte, error) { return s.jobs.Events(id) }

// JobArtifact returns a done job's rendered artifact — "sweep" or
// "sensitivity" — in the given format, straight from the store. Reads
// from a job that has not completed match ErrJobNotDone, and any other
// artifact name matches ErrUnknownJobArtifact.
func (s *Service) JobArtifact(id, artifact string, f ArtifactFormat) (string, error) {
	return s.jobs.Artifact(id, artifact, f)
}

// Close stops the Service's background work: every live campaign job is
// cancelled and awaited. Checkpoints persist, so a durable store's jobs
// resume in the next process (ResumeJob or an identical SubmitSweep).
func (s *Service) Close() { s.jobs.Close() }
