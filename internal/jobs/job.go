// Package jobs is the asynchronous campaign job manager: it runs
// sweep-campaign grids detached from any request lifetime, streams every
// finished cell into a persistent checkpoint, and resumes a killed
// campaign exactly where it stopped.
//
// The design leans on the engine's determinism-first discipline: every
// (cell, workload) task is a pure function of its grid coordinates — the
// scenario derives from the grid declaration, the Monte-Carlo substream
// from stats.SeedAt(seed, cell, workload) — so a checkpointed cell
// replayed from disk is byte-identical to a recomputed one, and a resumed
// campaign's artifacts are byte-identical to an uninterrupted run at any
// worker count. That is what makes SIGKILL survivable: there is no hidden
// state to lose, only finished cells to skip.
//
// State persists through a pluggable Store (disk now, object-store-shaped
// for later): a JSON job record with the grid declaration and a per-cell
// completion bitmap, a JSON-lines cell checkpoint appended as cells
// finish, a JSON-lines event log (`cell done i/total, name, seed` — the
// structured per-iteration progress idiom), and the rendered
// sweep/sensitivity artifacts once the campaign completes.
package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/sweep"
)

// State is a job's lifecycle phase.
type State string

// The job states. A job is born Running (submission starts execution
// immediately); Done, Failed and Cancelled are terminal on disk but
// Failed/Cancelled jobs — and Interrupted ones — can be resumed.
// Interrupted is never persisted: it is derived at read time for a job
// whose record says Running but which no live manager is executing (the
// process that ran it was killed), i.e. exactly the jobs Resume exists
// for.
const (
	StateRunning     State = "running"
	StateDone        State = "done"
	StateFailed      State = "failed"
	StateCancelled   State = "cancelled"
	StateInterrupted State = "interrupted"
)

// Terminal reports whether a state needs no further execution.
func (s State) Terminal() bool { return s == StateDone }

// ErrNotFound marks a lookup of an unknown job id; errors.Is-matchable so
// the HTTP layer maps it to a 404 without string matching.
var ErrNotFound = errors.New("jobs: no such job")

// ErrNotDone marks an artifact read from a job that has not completed;
// the HTTP layer maps it to a 409.
var ErrNotDone = errors.New("jobs: job is not done")

// ErrUnknownArtifact marks an artifact read of a name other than sweep
// and sensitivity; the HTTP layer maps it to a 404.
var ErrUnknownArtifact = errors.New("jobs: unknown artifact")

// ErrRecordModified marks a resume whose stored declaration no longer
// hashes to the job id — the record was tampered with (or corrupted) at
// rest, so it must never run. The HTTP layer maps it to a 409.
var ErrRecordModified = errors.New("jobs: stored job declaration was modified")

// notFoundError is a lookup failure matching ErrNotFound.
type notFoundError struct{ id string }

func (e *notFoundError) Error() string        { return fmt.Sprintf("jobs: no such job %q", e.id) }
func (e *notFoundError) Is(target error) bool { return target == ErrNotFound }

// Record is one job's persistent state: the full campaign declaration
// (enough to revalidate and re-derive every cell), the completion
// bitmap, and the progress counters the status surfaces serve.
type Record struct {
	// ID is the job id — a hash of the campaign declaration (grid, runs,
	// seed, workload names), so resubmitting an identical campaign
	// addresses the same job and its checkpoint instead of starting a
	// duplicate.
	ID string `json:"id"`
	// Grid is the declarative campaign; the record stores it verbatim so
	// Resume re-derives exactly the submitted cells.
	Grid sweep.Grid `json:"grid"`
	// Key is the grid's canonical one-line form (sweep.Grid.Key), shown
	// in listings.
	Key string `json:"key"`
	// Workloads are the workload names of the campaign's table, in table
	// order; Runs is the per-cell Monte-Carlo run count; Seed the
	// campaign base seed. Together with Grid they pin every cell's value.
	Workloads []string `json:"workloads"`
	Runs      int      `json:"runs"`
	Seed      uint64   `json:"seed"`
	// State is the lifecycle phase; Error carries the failure diagnostic
	// when State is "failed".
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
	// Total is the campaign's task count — (grid cells + 1 base row) ×
	// workloads — and Done how many are checkpointed; Bitmap is the
	// per-task completion bitmap (bit i set ⇔ task i checkpointed),
	// base64 in JSON.
	Total  int    `json:"total"`
	Done   int    `json:"done"`
	Bitmap []byte `json:"bitmap,omitempty"`
	// Created and Updated are the submission and last-checkpoint times.
	Created time.Time `json:"created"`
	Updated time.Time `json:"updated"`
}

// jobID derives the deterministic job id: the first 16 hex digits of the
// SHA-256 over the canonical campaign declaration.
func jobID(g sweep.Grid, workloads []string, runs int, seed uint64) (string, error) {
	material, err := json.Marshal(struct {
		Grid      sweep.Grid
		Workloads []string
		Runs      int
		Seed      uint64
	}{g, workloads, runs, seed})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(material)
	return hex.EncodeToString(sum[:8]), nil
}

// Store keys of one job's state, all under "jobs/<id>/".
func keyJob(id string) string       { return "jobs/" + id + "/job.json" }
func keyCells(id string) string     { return "jobs/" + id + "/cells.jsonl" }
func keyEvents(id string) string    { return "jobs/" + id + "/events.jsonl" }
func keyArtifacts(id string) string { return "jobs/" + id + "/artifacts/" }

// cellLine is one checkpoint line: a finished task index and its cell.
type cellLine struct {
	I    int        `json:"i"`
	Cell sweep.Cell `json:"cell"`
}

// Event is one JSON-lines progress event. Job-level events ("submitted",
// "resumed", "done", "failed", "cancelled") carry the job fields; the
// per-cell "cell" event carries the finished task's coordinates — index,
// done/total progress, generated cell name, workload and the cell's
// derived Monte-Carlo seed — the structured per-iteration progress line
// observability rides on.
type Event struct {
	// Event is the kind: submitted, resumed, cell, done, failed,
	// cancelled.
	Event string `json:"event"`
	// Job is the job id; Time the emission time.
	Job  string    `json:"job"`
	Time time.Time `json:"time"`
	// I, Done, Total, Cell, Workload and Seed describe a "cell" event:
	// task I finished (Done of Total now checkpointed), measuring
	// workload Workload on grid cell Cell with substream seed Seed.
	I        int    `json:"i"`
	Done     int    `json:"done"`
	Total    int    `json:"total"`
	Cell     string `json:"cell,omitempty"`
	Workload string `json:"workload,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`
	// Skipped is the checkpointed-cell count a "resumed" event replays;
	// Error the diagnostic on a "failed" event.
	Skipped int    `json:"skipped,omitempty"`
	Error   string `json:"error,omitempty"`
	// CacheHits, CacheMisses and CacheJoins are the cumulative shared
	// profile-cache counters at the time of a "cell" event (hits count
	// cross-cell reuse, joins coalesced in-flight computes), so a follower
	// can watch campaign cheapness build up as the grid fills in.
	CacheHits   int64 `json:"cache_hits,omitempty"`
	CacheMisses int64 `json:"cache_misses,omitempty"`
	CacheJoins  int64 `json:"cache_joins,omitempty"`
}

// bitmapSet sets bit i in b, growing it as needed.
func bitmapSet(b []byte, i int) []byte {
	for len(b) <= i/8 {
		b = append(b, 0)
	}
	b[i/8] |= 1 << (i % 8)
	return b
}

// bitmapGet reports bit i of b.
func bitmapGet(b []byte, i int) bool {
	return i/8 < len(b) && b[i/8]&(1<<(i%8)) != 0
}

// decodeCheckpoint parses a cells.jsonl blob into index → cell. A partial
// trailing line (the SIGKILL case: the process died mid-append) is
// ignored; duplicate indices keep the last value (they are identical by
// determinism anyway). Indices outside [0, total) are rejected — a
// checkpoint that disagrees with its grid declaration is corruption, not
// progress.
func decodeCheckpoint(data []byte, total int) (map[int]sweep.Cell, error) {
	cells := map[int]sweep.Cell{}
	for len(data) > 0 {
		nl := -1
		for j, c := range data {
			if c == '\n' {
				nl = j
				break
			}
		}
		if nl < 0 {
			break // partial trailing line: the append was cut mid-write
		}
		line := data[:nl]
		data = data[nl+1:]
		if len(line) == 0 {
			continue
		}
		var cl cellLine
		if err := json.Unmarshal(line, &cl); err != nil {
			break // torn line that still ends in \n: drop it and the rest
		}
		if cl.I < 0 || cl.I >= total {
			return nil, fmt.Errorf("jobs: checkpoint cell index %d outside [0,%d)", cl.I, total)
		}
		cells[cl.I] = cl.Cell
	}
	return cells, nil
}

// bitmapOf rebuilds the completion bitmap from a decoded checkpoint.
func bitmapOf(cells map[int]sweep.Cell) []byte {
	idx := make([]int, 0, len(cells))
	for i := range cells {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	var b []byte
	for _, i := range idx {
		b = bitmapSet(b, i)
	}
	return b
}
