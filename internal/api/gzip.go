package api

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
)

// acceptsGzip reports whether the request negotiated a gzip response: an
// Accept-Encoding member named gzip (or x-gzip) whose qvalue is not zero.
// Anything else — absent header, identity-only, gzip;q=0 — keeps the
// identity encoding, so a plain curl or a conditional GET revalidating an
// identity tag is never surprised by compressed bytes.
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		coding, params, _ := strings.Cut(part, ";")
		switch strings.ToLower(strings.TrimSpace(coding)) {
		case "gzip", "x-gzip":
			return !refused(params)
		}
	}
	return false
}

// gzipString compresses a response body at the default level. The result
// is trimmed to its length, since a memoized representation keeps it for
// the life of the server.
func gzipString(body string) []byte {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	_, _ = io.WriteString(zw, body)
	_ = zw.Close()
	return bytes.Clone(buf.Bytes())
}

// Metrics is the serving-layer counter set: every request, every render a
// flight executed, every waiter a flight absorbed, every 304 and every
// gzipped body. `GET /v1/stats` serves a snapshot, which is what the
// sbench harness diffs around a load run.
type Metrics struct {
	// Requests counts every request through the handler, any route.
	Requests atomic.Int64
	// Renders counts coalesced-flight executions: cold misses, artifact
	// entries rebuilt after the backend's document changed, and /v1/sweep
	// identity 200s, which re-render because a sweep entry keeps no body.
	// Warm requests served from the representation memo do not count.
	Renders atomic.Int64
	// Coalesced counts requests that joined an already-in-flight render
	// instead of starting their own.
	Coalesced atomic.Int64
	// NotModified counts conditional requests answered 304.
	NotModified atomic.Int64
	// Gzipped counts success bodies served gzip-encoded.
	Gzipped atomic.Int64
}

// Snapshot returns the counters as a JSON-ready map.
func (m *Metrics) Snapshot() map[string]int64 {
	return map[string]int64{
		"requests":     m.Requests.Load(),
		"renders":      m.Renders.Load(),
		"coalesced":    m.Coalesced.Load(),
		"not_modified": m.NotModified.Load(),
		"gzipped":      m.Gzipped.Load(),
	}
}

// counted increments the request counter around a handler.
func counted(m *Metrics, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m.Requests.Add(1)
		h.ServeHTTP(w, r)
	})
}
