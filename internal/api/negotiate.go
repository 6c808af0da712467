package api

import (
	"net/http"
	"strconv"
	"strings"

	"repro/internal/report"
)

// negotiate picks the response format: an explicit ?format= always wins
// (and must parse — report.ParseFormat, the same parser the CLI flag
// uses), otherwise the Accept header's media types are scanned in order
// for the first one a renderer backs and the client did not refuse with
// q=0. Unrecognized Accept types are skipped rather than rejected — a
// plain `curl` gets text — so only an explicit malformed ?format= is a
// client error.
func negotiate(r *http.Request) (report.Format, error) {
	if q := r.URL.Query().Get("format"); q != "" {
		return report.ParseFormat(q)
	}
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		mediaType, params, _ := strings.Cut(part, ";")
		if refused(params) {
			continue
		}
		switch strings.ToLower(strings.TrimSpace(mediaType)) {
		case "application/json":
			return report.FormatJSON, nil
		case "text/csv":
			return report.FormatCSV, nil
		case "text/plain":
			return report.FormatText, nil
		}
	}
	return report.FormatText, nil
}

// refused reports whether the parameters of one Accept or Accept-Encoding
// member carry a zero qvalue, the client's explicit "not this one".
func refused(params string) bool {
	for _, p := range strings.Split(params, ";") {
		name, v, _ := strings.Cut(p, "=")
		if strings.EqualFold(strings.TrimSpace(name), "q") {
			q, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return err == nil && q == 0
		}
	}
	return false
}
