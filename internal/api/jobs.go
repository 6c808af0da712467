package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/jobs"
	"repro/internal/sweep"
)

// JobRequest is the POST /v1/jobs body: either a campaign declaration —
// a platform plus axis declarations, exactly the /v1/sweep vocabulary —
// or the id of an existing job to resume. An empty body submits the
// default grid on the default platform.
type JobRequest struct {
	// ID, when set, resumes the identified job from its checkpoint
	// instead of declaring a new campaign; the other fields must be
	// empty.
	ID string `json:"id,omitempty"`
	// Platform is the scenario whose base system the grid sweeps around;
	// empty selects the backend's default.
	Platform string `json:"platform,omitempty"`
	// Axes are sweep.ParseAxis declarations ("gen=0,5,6",
	// "lat=0:400:100"); none selects the platform's canonical default
	// grid.
	Axes []string `json:"axes,omitempty"`
}

// handleJobSubmit is POST /v1/jobs: submit a campaign job (or resume one
// by id) and answer 202 Accepted with the job record and a Location
// pointing at its status resource. Unlike the synchronous /v1/sweep
// route, jobs accept grids of any validating size — this is where the
// over-cap campaigns go.
func (s *server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20)); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		return
	} else if len(body) > 0 {
		// A field the request does not know is an error, not a default:
		// {"axis": ...} or {"runs": ...} would otherwise launch a campaign
		// the client did not declare.
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err := dec.Decode(&req)
		if err == nil {
			if _, terr := dec.Token(); terr != io.EOF {
				err = errors.New("trailing data after the request object")
			}
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("malformed job request: %w", err))
			return
		}
	}

	var rec jobs.Record
	var err error
	if req.ID != "" {
		if req.Platform != "" || len(req.Axes) > 0 {
			writeError(w, http.StatusBadRequest,
				errors.New(`a resume request carries only "id" (declare a campaign with "platform"/"axes" instead)`))
			return
		}
		rec, err = s.cfg.Backend.ResumeJob(req.ID)
	} else {
		var axes []sweep.Axis
		for _, a := range req.Axes {
			ax, perr := sweep.ParseAxis(a)
			if perr != nil {
				writeError(w, http.StatusBadRequest, perr)
				return
			}
			axes = append(axes, ax)
		}
		var g sweep.Grid
		if g, err = s.cfg.Backend.Grid(req.Platform, axes...); err == nil {
			rec, err = s.cfg.Backend.SubmitSweep(g)
		}
	}
	if err != nil {
		writeStatusError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+rec.ID)
	w.Header().Set("Cache-Control", "no-store")
	writeJSON(w, http.StatusAccepted, rec)
}

// handleJobs is GET /v1/jobs: every job's record, oldest first. Job state
// is live progress, so the listing is never cacheable.
func (s *server) handleJobs(w http.ResponseWriter, r *http.Request) {
	recs, err := s.cfg.Backend.Jobs()
	if err != nil {
		writeStatusError(w, err)
		return
	}
	if recs == nil {
		recs = []jobs.Record{}
	}
	w.Header().Set("Cache-Control", "no-store")
	writeJSON(w, http.StatusOK, map[string]any{
		"jobs": recs,
		"url":  "/v1/jobs/{id} (DELETE cancels; /events streams progress; /artifacts/{sweep|sensitivity}?format= serves results)",
	})
}

// handleJob is GET /v1/jobs/{id}: one job's record.
func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	rec, err := s.cfg.Backend.Job(r.PathValue("id"))
	if err != nil {
		writeStatusError(w, err)
		return
	}
	w.Header().Set("Cache-Control", "no-store")
	writeJSON(w, http.StatusOK, rec)
}

// handleJobCancel is DELETE /v1/jobs/{id}: stop the job at its next cell
// boundary and return its record. The checkpoint survives — resubmitting
// the campaign (or POSTing {"id": ...}) resumes it.
func (s *server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	rec, err := s.cfg.Backend.CancelJob(r.PathValue("id"))
	if err != nil {
		writeStatusError(w, err)
		return
	}
	w.Header().Set("Cache-Control", "no-store")
	writeJSON(w, http.StatusOK, rec)
}

// handleJobEvents is GET /v1/jobs/{id}/events: the job's JSON-lines event
// log, served verbatim as NDJSON. The log is append-only; pollers re-read
// and act on the suffix beyond their last offset.
func (s *server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	data, err := s.cfg.Backend.JobEvents(r.PathValue("id"))
	if err != nil {
		writeStatusError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	_, _ = w.Write(data)
}

// handleJobArtifact is GET /v1/jobs/{id}/artifacts/{artifact}: a done
// job's rendered sweep or sensitivity artifact in the negotiated format,
// straight from the job store. A job still running answers 409. Done
// artifacts are immutable, so this route answers through writeRep like the
// other data routes.
func (s *server) handleJobArtifact(w http.ResponseWriter, r *http.Request) {
	f, err := negotiate(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	out, err := s.cfg.Backend.JobArtifact(r.PathValue("id"), r.PathValue("artifact"), f)
	if err != nil {
		writeStatusError(w, err)
		return
	}
	s.writeRep(w, r, f, rep{body: out, stem: etagStem(out)})
}
