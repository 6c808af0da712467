package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/pool"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/workloads/registry"
)

// Config wires a Manager to its execution engine and its persistence
// backend.
type Config struct {
	// Store persists every job's state; required.
	Store Store
	// NewRunner builds the sweep runner for a grid, carrying the owning
	// service's workload table, Monte-Carlo run count, base seed and warm
	// profiler caches. The manager installs its own Skip/OnCell hooks on
	// the returned runner; required.
	NewRunner func(g sweep.Grid) *sweep.Runner
	// Limiter is the concurrency budget job execution draws from (nil
	// means sequential) — typically the service's shared pool, so jobs
	// and synchronous requests never multiply workers.
	Limiter *pool.Limiter
}

// Manager owns asynchronous campaign jobs: Submit starts (or re-attaches
// to) a job, execution streams finished cells into the store's
// checkpoint, and Resume picks a killed job up from that checkpoint,
// recomputing only the remainder. One Manager per store prefix: a
// running job's keys are owned by exactly one manager at a time.
type Manager struct {
	cfg  Config
	mu   sync.Mutex
	live map[string]*liveJob
}

// liveJob is one executing job's in-memory handle.
type liveJob struct {
	mu        sync.Mutex
	rec       Record
	cancel    context.CancelFunc
	cancelled bool  // Cancel was requested (distinguishes cancel from kill)
	storeErr  error // first checkpoint-persistence failure, fails the job
	done      chan struct{}
}

// NewManager builds a Manager over the given configuration.
func NewManager(c Config) (*Manager, error) {
	if c.Store == nil {
		return nil, fmt.Errorf("jobs: NewManager: nil Store")
	}
	if c.NewRunner == nil {
		return nil, fmt.Errorf("jobs: NewManager: nil NewRunner")
	}
	return &Manager{cfg: c, live: map[string]*liveJob{}}, nil
}

// normalize applies the runner's documented defaults, so the record pins
// the values execution actually uses (and the job id hashes them).
func normalize(r *sweep.Runner) (names []string, runs int, seed uint64) {
	entries := r.Entries
	if entries == nil {
		entries = registry.All()
	}
	for _, e := range entries {
		names = append(names, e.Name)
	}
	runs = r.Runs
	if runs <= 0 {
		runs = 100
	}
	seed = r.Seed
	if seed == 0 {
		seed = sweep.DefaultSeed
	}
	return names, runs, seed
}

// Submit starts the campaign for g as an asynchronous job and returns its
// record immediately. Job ids are deterministic in the campaign
// declaration, so submitting an identical grid while its job is running
// (or after it finished) re-attaches instead of duplicating work — and
// submitting after a crash resumes from the checkpoint. The job executes
// detached from any request context; stop it with Cancel.
func (m *Manager) Submit(g sweep.Grid) (Record, error) {
	if err := g.Validate(); err != nil {
		return Record{}, err
	}
	r := m.cfg.NewRunner(g)
	names, runs, seed := normalize(r)
	id, err := jobID(g, names, runs, seed)
	if err != nil {
		return Record{}, err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if lj, ok := m.live[id]; ok {
		return lj.snapshot(), nil
	}
	if rec, err := m.loadRecord(id); err == nil {
		if rec.State == StateDone {
			return rec, nil
		}
		// A prior run exists but is not live here: resume its checkpoint.
		return m.startLocked(r, rec, true)
	} else if !errors.Is(err, ErrNotExist) {
		return Record{}, err
	}
	now := time.Now().UTC()
	rec := Record{
		ID:        id,
		Grid:      g,
		Key:       g.Key(),
		Workloads: names,
		Runs:      runs,
		Seed:      seed,
		State:     StateRunning,
		Total:     (g.Size() + 1) * len(names),
		Created:   now,
		Updated:   now,
	}
	m.event(Event{Event: "submitted", Job: id, Time: now, Total: rec.Total})
	return m.startLocked(r, rec, false)
}

// Resume restarts an interrupted, failed or cancelled job from its
// persisted checkpoint: the grid declaration is revalidated (including
// that it still hashes to the job's id — a tampered record never runs),
// checkpointed cells are skipped by coordinate, and only the remainder
// recomputes. Resuming a running job returns its record; resuming a done
// job returns it unchanged.
func (m *Manager) Resume(id string) (Record, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if lj, ok := m.live[id]; ok {
		return lj.snapshot(), nil
	}
	rec, err := m.loadRecord(id)
	if errors.Is(err, ErrNotExist) {
		return Record{}, &notFoundError{id: id}
	}
	if err != nil {
		return Record{}, err
	}
	if rec.State == StateDone {
		return rec, nil
	}
	if err := rec.Grid.Validate(); err != nil {
		return Record{}, fmt.Errorf("jobs: resume %s: stored grid no longer validates: %w", id, err)
	}
	wantID, err := jobID(rec.Grid, rec.Workloads, rec.Runs, rec.Seed)
	if err != nil {
		return Record{}, err
	}
	if wantID != id {
		return Record{}, fmt.Errorf("jobs: resume %s: record hashes to %s: %w", id, wantID, ErrRecordModified)
	}
	r := m.cfg.NewRunner(rec.Grid)
	names, runs, seed := normalize(r)
	if !equalStrings(names, rec.Workloads) || runs != rec.Runs || seed != rec.Seed {
		return Record{}, fmt.Errorf(
			"jobs: resume %s: job was declared with workloads %v, %d runs, seed %d but the service is configured for %v, %d runs, seed %d",
			id, rec.Workloads, rec.Runs, rec.Seed, names, runs, seed)
	}
	return m.startLocked(r, rec, true)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// startLocked launches (or re-launches) a job's execution goroutine.
// Caller holds m.mu.
func (m *Manager) startLocked(r *sweep.Runner, rec Record, resumed bool) (Record, error) {
	// Load the checkpoint before declaring the job live, so a corrupt
	// checkpoint surfaces on the submit/resume call, not inside the
	// goroutine.
	var cells map[int]sweep.Cell
	if data, err := m.cfg.Store.Get(keyCells(rec.ID)); err == nil {
		if cells, err = decodeCheckpoint(data, rec.Total); err != nil {
			return Record{}, err
		}
	} else if !errors.Is(err, ErrNotExist) {
		return Record{}, err
	}
	rec.State = StateRunning
	rec.Error = ""
	rec.Done = len(cells)
	rec.Bitmap = bitmapOf(cells)
	rec.Updated = time.Now().UTC()
	if err := m.putRecord(rec); err != nil {
		return Record{}, err
	}
	if resumed {
		m.event(Event{Event: "resumed", Job: rec.ID, Time: rec.Updated,
			Done: rec.Done, Total: rec.Total, Skipped: len(cells)})
	}

	// A job deliberately outlives the submitting request: its lifecycle
	// is Cancel/Close, not the caller's context.
	//repro:allow ctxflow — background job detaches from the request by design; stop via Cancel/Close
	ctx, cancel := context.WithCancel(context.Background())
	lj := &liveJob{rec: rec, cancel: cancel, done: make(chan struct{})}
	m.live[rec.ID] = lj
	go m.run(ctx, lj, r, cells)
	return lj.snapshot(), nil
}

// run executes one job to a terminal state. The runner's Skip hook
// replays checkpointed cells; OnCell appends each computed cell to the
// checkpoint *before* updating the record, so a crash between the two
// loses bookkeeping, never results.
func (m *Manager) run(ctx context.Context, lj *liveJob, r *sweep.Runner, cells map[int]sweep.Cell) {
	id := lj.rec.ID
	nw := len(lj.rec.Workloads)
	total := lj.rec.Total
	seed := lj.rec.Seed
	r.Skip = func(i int) (sweep.Cell, bool) {
		c, ok := cells[i]
		return c, ok
	}
	r.OnCell = func(i int, c sweep.Cell) {
		line, err := json.Marshal(cellLine{I: i, Cell: c})
		if err == nil {
			err = m.cfg.Store.Append(keyCells(id), append(line, '\n'))
		}
		lj.mu.Lock()
		if err != nil {
			if lj.storeErr == nil {
				lj.storeErr = fmt.Errorf("jobs: checkpoint append: %w", err)
				lj.cancel() // stop admitting cells; the job fails below
			}
			lj.mu.Unlock()
			return
		}
		lj.rec.Done++
		lj.rec.Bitmap = bitmapSet(lj.rec.Bitmap, i)
		lj.rec.Updated = time.Now().UTC()
		rec := lj.rec
		lj.mu.Unlock()
		_ = m.putRecord(rec)
		ev := Event{Event: "cell", Job: id, Time: rec.Updated,
			I: i, Done: rec.Done, Total: total, Cell: c.Cell, Workload: c.Workload,
			Seed: stats.SeedAt(seed, uint64(i/nw), uint64(i%nw))}
		if r.Cache != nil {
			// Cumulative shared-cache counters: how cheap the campaign is
			// running, visible line by line in the event log.
			cs := r.Cache.Stats()
			ev.CacheHits, ev.CacheMisses, ev.CacheJoins = cs.Hits, cs.Misses, cs.Joins
		}
		m.event(ev)
	}

	camp, err := r.RunContext(ctx, m.cfg.Limiter)

	lj.mu.Lock()
	cancelled := lj.cancelled
	if lj.storeErr != nil {
		err = lj.storeErr
	}
	lj.mu.Unlock()

	var final State
	var diag string
	switch {
	case err == nil:
		if err := m.putArtifacts(lj.rec.ID, lj.rec.Grid, camp); err != nil {
			final, diag = StateFailed, err.Error()
		} else {
			final = StateDone
		}
	case cancelled && errors.Is(err, context.Canceled):
		final = StateCancelled
	default:
		final, diag = StateFailed, err.Error()
	}

	lj.mu.Lock()
	lj.rec.State = final
	lj.rec.Error = diag
	lj.rec.Updated = time.Now().UTC()
	rec := lj.rec
	lj.mu.Unlock()
	_ = m.putRecord(rec)
	ev := Event{Event: string(final), Job: id, Time: rec.Updated,
		Done: rec.Done, Total: rec.Total, Error: diag}
	m.event(ev)

	m.mu.Lock()
	delete(m.live, id)
	m.mu.Unlock()
	lj.cancel() // release the context's resources on every path
	close(lj.done)
}

// putArtifacts renders the finished campaign's two artifacts in every
// format into the store, so status surfaces serve them without
// recomputation and a done job's results survive the process.
func (m *Manager) putArtifacts(id string, g sweep.Grid, camp *sweep.Campaign) error {
	for name, doc := range map[string]report.Doc{
		"sweep": camp.Sweep(), "sensitivity": camp.Sensitivity(),
	} {
		doc.Platform = g.Base.Name
		for _, f := range report.Formats {
			out, err := report.Render(doc, f)
			if err != nil {
				return fmt.Errorf("jobs: render %s.%s: %w", name, f.Ext(), err)
			}
			if err := m.cfg.Store.Put(keyArtifacts(id)+name+"."+f.Ext(), []byte(out)); err != nil {
				return fmt.Errorf("jobs: persist %s.%s: %w", name, f.Ext(), err)
			}
		}
	}
	return nil
}

// Get returns a job's record: the live in-memory state for a running
// job, the persisted record otherwise. A persisted record that claims to
// be running with no live execution here — the killed-process case — is
// reported as interrupted, which is exactly the state Resume accepts.
func (m *Manager) Get(id string) (Record, error) {
	m.mu.Lock()
	lj, ok := m.live[id]
	m.mu.Unlock()
	if ok {
		return lj.snapshot(), nil
	}
	rec, err := m.loadRecord(id)
	if errors.Is(err, ErrNotExist) {
		return Record{}, &notFoundError{id: id}
	}
	if err != nil {
		return Record{}, err
	}
	if rec.State == StateRunning {
		rec.State = StateInterrupted
	}
	return rec, nil
}

// List returns every job's record (see Get for the state derivation),
// oldest submission first.
func (m *Manager) List() ([]Record, error) {
	keys, err := m.cfg.Store.List("jobs/")
	if err != nil {
		return nil, err
	}
	var out []Record
	for _, k := range keys {
		if !strings.HasSuffix(k, "/job.json") {
			continue
		}
		id := strings.TrimSuffix(strings.TrimPrefix(k, "jobs/"), "/job.json")
		rec, err := m.Get(id)
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Created.Equal(out[j].Created) {
			return out[i].Created.Before(out[j].Created)
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

// Cancel stops a running job at its next cell boundary (already-finished
// cells stay checkpointed; Resume restarts from them) and returns the
// job's record. Cancelling a job that is not running marks the persisted
// record cancelled; cancelling a done job is a no-op.
func (m *Manager) Cancel(id string) (Record, error) {
	m.mu.Lock()
	lj, ok := m.live[id]
	m.mu.Unlock()
	if ok {
		lj.mu.Lock()
		lj.cancelled = true
		lj.mu.Unlock()
		lj.cancel()
		// Wait for the run loop to persist the terminal state, so the
		// returned record (and an immediately following Get) reflects the
		// cancellation instead of racing it.
		<-lj.done
		return m.Get(id)
	}
	rec, err := m.Get(id)
	if err != nil {
		return Record{}, err
	}
	if rec.State == StateDone || rec.State == StateCancelled {
		return rec, nil
	}
	rec.State = StateCancelled
	rec.Updated = time.Now().UTC()
	if err := m.putRecord(rec); err != nil {
		return Record{}, err
	}
	m.event(Event{Event: string(StateCancelled), Job: id, Time: rec.Updated,
		Done: rec.Done, Total: rec.Total})
	return rec, nil
}

// Wait blocks until the job reaches a terminal-on-this-manager state —
// done, failed or cancelled, or until ctx dies — and returns the record.
// Waiting on a job this manager is not executing returns its record
// immediately.
func (m *Manager) Wait(ctx context.Context, id string) (Record, error) {
	m.mu.Lock()
	lj, ok := m.live[id]
	m.mu.Unlock()
	if !ok {
		return m.Get(id)
	}
	select {
	case <-lj.done:
		return m.Get(id)
	case <-ctx.Done():
		return Record{}, ctx.Err()
	}
}

// Events returns the job's raw JSON-lines event log (one Event per
// line). The log is append-only, so a follower can re-read and print
// only the suffix beyond its last offset.
func (m *Manager) Events(id string) ([]byte, error) {
	if _, err := m.Get(id); err != nil {
		return nil, err
	}
	data, err := m.cfg.Store.Get(keyEvents(id))
	if errors.Is(err, ErrNotExist) {
		return nil, nil
	}
	return data, err
}

// Artifact returns a done job's rendered artifact ("sweep" or
// "sensitivity") in the given format, straight from the store. A job
// that has not completed yet errors with ErrNotDone.
func (m *Manager) Artifact(id, artifact string, f report.Format) (string, error) {
	rec, err := m.Get(id)
	if err != nil {
		return "", err
	}
	if artifact != "sweep" && artifact != "sensitivity" {
		return "", fmt.Errorf("%w %q (want sweep or sensitivity)", ErrUnknownArtifact, artifact)
	}
	if rec.State != StateDone {
		return "", fmt.Errorf("jobs: job %s is %s: %w", id, rec.State, ErrNotDone)
	}
	out, err := m.cfg.Store.Get(keyArtifacts(id) + artifact + "." + f.Ext())
	if err != nil {
		return "", err
	}
	return string(out), nil
}

// Close cancels every live job and waits for their goroutines to exit.
// Checkpoints persist, so closed-over jobs resume in the next process.
func (m *Manager) Close() {
	m.mu.Lock()
	live := make([]*liveJob, 0, len(m.live))
	for _, lj := range m.live {
		live = append(live, lj)
	}
	m.mu.Unlock()
	for _, lj := range live {
		lj.cancel()
	}
	for _, lj := range live {
		<-lj.done
	}
}

// snapshot returns a copy of the live record safe to hand out (the
// bitmap is cloned; everything else is value- or read-only data).
func (lj *liveJob) snapshot() Record {
	lj.mu.Lock()
	defer lj.mu.Unlock()
	rec := lj.rec
	rec.Bitmap = append([]byte(nil), rec.Bitmap...)
	return rec
}

// loadRecord reads and decodes a job record; missing records surface the
// store's ErrNotExist. So does an id other than the 16 lowercase hex
// digits jobID issues: it names no record, whatever a store would make of
// it as a key.
func (m *Manager) loadRecord(id string) (Record, error) {
	if len(id) != 16 || strings.Trim(id, "0123456789abcdef") != "" {
		return Record{}, ErrNotExist
	}
	data, err := m.cfg.Store.Get(keyJob(id))
	if err != nil {
		return Record{}, err
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return Record{}, fmt.Errorf("jobs: job %s record: %w", id, err)
	}
	return rec, nil
}

// putRecord persists a record (atomically, per the Store contract).
func (m *Manager) putRecord(rec Record) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return m.cfg.Store.Put(keyJob(rec.ID), append(data, '\n'))
}

// event appends one event line to the job's log. Event emission is
// best-effort bookkeeping: a failed append never fails the job (the
// checkpoint, not the log, is the source of truth).
func (m *Manager) event(ev Event) {
	line, err := json.Marshal(ev)
	if err != nil {
		return
	}
	_ = m.cfg.Store.Append(keyEvents(ev.Job), append(line, '\n'))
}
