package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// ErrorBody is the one JSON error envelope every /v1 failure — and the
// panic-recovery path — serializes to:
//
//	{"error": {"status": 404, "message": "...", "formats": [...]}}
//
// Status duplicates the HTTP status code so piped output (`curl | jq`)
// keeps it; Formats is present exactly when the failure is a
// report.FormatError, carrying its accepted spellings verbatim.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail is the envelope payload.
type ErrorDetail struct {
	// Status is the HTTP status code of the response.
	Status int `json:"status"`
	// Message is the diagnostic, identical to the library error's text.
	Message string `json:"message"`
	// Formats lists every accepted format spelling when the failure is a
	// format error.
	Formats []string `json:"formats,omitempty"`
}

// statusOf classifies an error into an HTTP status by kind, never by
// message text: validation failures (the shared sweep validator, format
// parsing) are 400s, failed lookups (platforms, artifact ids, aliases)
// 404s, abandoned computations 503/504, everything else a 500.
func statusOf(err error) int {
	var fe *report.FormatError
	switch {
	case errors.As(err, &fe), errors.Is(err, sweep.ErrInvalid):
		return http.StatusBadRequest
	case errors.Is(err, scenario.ErrUnknown), errors.Is(err, experiments.ErrUnknownID),
		errors.Is(err, jobs.ErrNotFound), errors.Is(err, jobs.ErrUnknownArtifact):
		return http.StatusNotFound
	case errors.Is(err, jobs.ErrNotDone), errors.Is(err, jobs.ErrRecordModified):
		return http.StatusConflict
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

// writeStatusError writes err in the envelope under its classified status.
func writeStatusError(w http.ResponseWriter, err error) {
	writeError(w, statusOf(err), err)
}

// writeError writes err in the JSON error envelope. Responses are always
// JSON regardless of the request's negotiated format: clients get one
// machine-parseable error shape everywhere — and never a cache validator:
// errors are transient (a cancelled computation, a typo'd query), so a
// cached 404 must not shadow a later success.
func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Cache-Control", "no-store")
	detail := ErrorDetail{Status: status, Message: err.Error()}
	var fe *report.FormatError
	if errors.As(err, &fe) {
		detail.Formats = fe.Accepted
	}
	writeJSON(w, status, ErrorBody{Error: detail})
}

// writeJSON writes v as indented JSON with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// errNoRoute reports an unrecognized path.
func errNoRoute(path string) error {
	return fmt.Errorf("no such route %q (see GET /v1)", path)
}

// errBadSweepArtifact reports an unrecognized sweep view selector.
func errBadSweepArtifact(got string) error {
	return fmt.Errorf("unknown artifact %q (want sweep or sensitivity)", got)
}
