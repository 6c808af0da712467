package api

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/report"
)

// cacheControl is the policy stamped on every cacheable /v1 success
// response. Artifacts are immutable per (platform, artifact, seed,
// code version): a deploy changes the ETag, so validators keep long-lived
// caches correct and max-age only bounds how stale an un-revalidated copy
// may get.
const cacheControl = "public, max-age=86400"

// etagStem is the strong-validator stem of a response body: the first 16
// hex digits of its SHA-256. The identity representation serves `"<stem>"`,
// the gzip representation `"<stem>-gzip"` — per-representation tags, as the
// ETag contract requires, that still revalidate against each other (a
// client that cached either encoding gets its 304).
func etagStem(body []byte) string {
	sum := sha256.Sum256(body)
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

// bufferedResponse captures a handler's response so the conditional layer
// can hash, revalidate and compress it before anything reaches the wire.
type bufferedResponse struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (b *bufferedResponse) Header() http.Header { return b.header }

func (b *bufferedResponse) WriteHeader(status int) {
	if b.status == 0 {
		b.status = status
	}
}

func (b *bufferedResponse) Write(p []byte) (int, error) {
	if b.status == 0 {
		b.status = http.StatusOK
	}
	return b.body.Write(p)
}

// cacheable is the conditional-request middleware: it buffers the wrapped
// handler's response and, on a 200, stamps the strong ETag, Cache-Control
// and Vary, answers a matching If-None-Match with an empty-body 304, and
// gzips the body when the client negotiated it. Everything else — error
// envelopes, 405s — passes through uncacheable (Cache-Control: no-store,
// never a validator). Every /v1 data route mounts behind this one
// middleware, so no two routes can drift in caching semantics.
func cacheable(m *Metrics, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		br := &bufferedResponse{header: http.Header{}}
		h.ServeHTTP(br, r)
		if br.status == 0 {
			br.status = http.StatusOK
		}
		dst := w.Header()
		for k, vs := range br.header {
			dst[k] = vs
		}
		if br.status != http.StatusOK {
			if dst.Get("Cache-Control") == "" {
				dst.Set("Cache-Control", "no-store")
			}
			w.WriteHeader(br.status)
			_, _ = w.Write(br.body.Bytes())
			return
		}
		body := br.body.Bytes()
		stem := etagStem(body)
		gz := acceptsGzip(r)
		dst.Set("ETag", etagFor(stem, gz))
		dst.Set("Cache-Control", cacheControl)
		// The representation depends on both negotiation inputs: Accept
		// picks the format, Accept-Encoding the encoding.
		dst.Set("Vary", "Accept, Accept-Encoding")
		if inmMatches(r.Header.Get("If-None-Match"), stem) {
			m.NotModified.Add(1)
			dst.Del("Content-Type")
			dst.Del("Content-Length")
			w.WriteHeader(http.StatusNotModified)
			return
		}
		if gz {
			body = gzipBytes(body)
			dst.Set("Content-Encoding", "gzip")
			m.Gzipped.Add(1)
		}
		dst.Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(br.status)
		_, _ = w.Write(body)
	})
}

// flight is one in-progress render shared by every request that asked for
// the same (platform, artifact, format) while it was in the air.
type flight struct {
	refs     int
	cancel   context.CancelFunc
	done     chan struct{}
	out      string
	err      error
	panicked any
}

// flightKey identifies one coalesceable render. A typed comparable struct
// per the cachekeys contract: the fields are exactly the inputs the
// rendered bytes depend on, there is no separator to collide on, and
// adding a dependency means adding a field the compiler checks at every
// call site.
type flightKey struct {
	// platform is the canonical platform name (the default platform's
	// name when the request left it implicit, so both spellings coalesce).
	platform string
	// artifact is the canonical artifact id, or the sweep view name.
	artifact string
	// grid is the canonical sweep declaration (Grid.Key()) for sweep
	// flights, empty for plain artifact renders.
	grid string
	// format is the negotiated rendering format.
	format report.Format
}

// flightGroup coalesces concurrent cache-miss renders: the first request
// for a key starts the render, later arrivals wait on the same flight, and
// the underlying computation runs under a context that dies only when the
// last waiter has gone — one caller disconnecting never poisons the result
// for the rest. Results are not cached here (the store memoizes); a
// completed flight leaves the map immediately.
type flightGroup struct {
	metrics *Metrics
	mu      sync.Mutex
	flights map[flightKey]*flight
}

func newFlightGroup(m *Metrics) *flightGroup {
	return &flightGroup{metrics: m, flights: map[flightKey]*flight{}}
}

// Do returns fn's result for key, executing it at most once across all
// concurrent callers. A caller whose ctx dies returns ctx.Err()
// immediately; the flight itself is cancelled (and evicted, so later
// requests start fresh) only when no caller remains. A panic inside fn
// re-panics in every waiting caller, keeping the recovery middleware's
// one-envelope contract.
func (g *flightGroup) Do(ctx context.Context, key flightKey, fn func(context.Context) (string, error)) (string, error) {
	g.mu.Lock()
	f, ok := g.flights[key]
	if ok {
		f.refs++
		g.metrics.Coalesced.Add(1)
	} else {
		// The flight deliberately outlives any single waiter: its context
		// dies when the last waiter leaves, not when the first one does.
		//repro:allow ctxflow — coalesced flight lifecycle is detached by design; cancellation is refcounted below
		fctx, cancel := context.WithCancel(context.Background())
		f = &flight{refs: 1, cancel: cancel, done: make(chan struct{})}
		g.flights[key] = f
		g.metrics.Renders.Add(1)
		go func() {
			defer func() {
				if v := recover(); v != nil {
					f.panicked = v
				}
				g.mu.Lock()
				if g.flights[key] == f {
					delete(g.flights, key)
				}
				g.mu.Unlock()
				cancel()
				close(f.done)
			}()
			f.out, f.err = fn(fctx)
		}()
	}
	g.mu.Unlock()
	select {
	case <-f.done:
		if f.panicked != nil {
			panic(f.panicked)
		}
		return f.out, f.err
	case <-ctx.Done():
		g.mu.Lock()
		f.refs--
		if f.refs == 0 {
			// Last caller gone: abandon the render and evict the flight so
			// a later request is not handed the cancellation error.
			f.cancel()
			if g.flights[key] == f {
				delete(g.flights, key)
			}
		}
		g.mu.Unlock()
		return "", ctx.Err()
	}
}
