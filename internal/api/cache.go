package api

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/report"
)

// cacheControl is the policy stamped on every cacheable /v1 success
// response. Artifacts are immutable per (platform, artifact, seed,
// code version): a deploy changes the ETag, so validators keep long-lived
// caches correct and max-age only bounds how stale an un-revalidated copy
// may get.
const cacheControl = "public, max-age=86400"

// maxSweepReps bounds the memoized /v1/sweep representations. Their grids
// are request-controlled, so the memo keeps no more than the campaigns the
// service itself memoizes can produce: experiments.MaxCampaigns grids, each
// in both views (sweep, sensitivity) and all three formats. An entry is an
// ETag stem plus gzip bytes (about 2 KB for an 8-cell grid), never the
// identity body.
const maxSweepReps = experiments.MaxCampaigns * 2 * 3

// etagStem is the strong-validator stem of a response body: the first 16
// hex digits of its SHA-256. The identity representation serves `"<stem>"`,
// the gzip representation `"<stem>-gzip"` — per-representation tags, as the
// ETag contract requires, that still revalidate against each other (a
// client that cached either encoding gets its 304).
func etagStem(body string) string {
	sum := sha256.Sum256([]byte(body))
	return hex.EncodeToString(sum[:8])
}

// etagFor quotes the variant tag for a stem.
func etagFor(stem string, gzipped bool) string {
	if gzipped {
		return `"` + stem + `-gzip"`
	}
	return `"` + stem + `"`
}

// inmMatches reports whether an If-None-Match header revalidates a body
// with the given stem: any listed tag equal to either encoding variant (or
// the wildcard) is a match. Weak-prefixed tags compare by their opaque
// value — the weak comparison If-None-Match mandates.
func inmMatches(header, stem string) bool {
	if header == "" {
		return false
	}
	for _, tag := range strings.Split(header, ",") {
		tag = strings.TrimSpace(tag)
		tag = strings.TrimPrefix(tag, "W/")
		if tag == "*" || tag == etagFor(stem, false) || tag == etagFor(stem, true) {
			return true
		}
	}
	return false
}

// rep is one successful representation of a cacheable response: the
// identity body, its ETag stem and its gzip encoding. A nil gz means the
// encoding has not been derived; writeRep then compresses on demand.
type rep struct {
	body string
	stem string
	gz   []byte
}

// wantsBody reports whether answering r needs rp's identity body: only an
// identity 200 does, since a 304 carries no body and a gzip 200 carries
// the gzip bytes.
func wantsBody(r *http.Request, rp rep) bool {
	return !acceptsGzip(r) && !inmMatches(r.Header.Get("If-None-Match"), rp.stem)
}

// writeRep is the one writer every cacheable route ends in: it stamps
// the strong ETag, Cache-Control and Vary, answers a matching
// If-None-Match with an empty-body 304, and otherwise writes the
// negotiated encoding with its media type and Content-Length. Failures
// never reach it — error envelopes and 405s go out through writeError,
// uncacheable (Cache-Control: no-store, never a validator) — so no two
// routes can drift in caching semantics.
func (s *server) writeRep(w http.ResponseWriter, r *http.Request, f report.Format, rp rep) {
	h := w.Header()
	gz := acceptsGzip(r)
	h.Set("ETag", etagFor(rp.stem, gz))
	h.Set("Cache-Control", cacheControl)
	// The representation depends on both negotiation inputs: Accept picks
	// the format, Accept-Encoding the encoding.
	h.Set("Vary", "Accept, Accept-Encoding")
	if inmMatches(r.Header.Get("If-None-Match"), rp.stem) {
		s.metrics.NotModified.Add(1)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h.Set("Content-Type", report.ContentType(f))
	if !gz {
		h.Set("Content-Length", strconv.Itoa(len(rp.body)))
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, rp.body)
		return
	}
	if rp.gz == nil {
		rp.gz = gzipString(rp.body)
	}
	h.Set("Content-Encoding", "gzip")
	h.Set("Content-Length", strconv.Itoa(len(rp.gz)))
	s.metrics.Gzipped.Add(1)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(rp.gz)
}

// repKey identifies one memoized representation. A typed comparable
// struct per the cachekeys contract: the fields are exactly the inputs the
// rendered bytes depend on, there is no separator to collide on, and
// adding a dependency means adding a field the compiler checks at every
// call site.
type repKey struct {
	// platform is the canonical platform name (the default platform's
	// name when the request left it implicit, so both spellings share one
	// entry).
	platform string
	// artifact is the canonical artifact id, or the sweep view name.
	artifact string
	// grid is the canonical sweep declaration (Grid.Key()) for sweep
	// entries, empty for plain artifact renders.
	grid string
	// format is the negotiated rendering format.
	format report.Format
}
