package api

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

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

// flight is one in-progress render shared by every request that asked for
// the same (platform, artifact, format) while it was in the air.
type flight struct {
	refs     int
	cancel   context.CancelFunc
	done     chan struct{}
	rep      rep
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

// flightGroup coalesces concurrent cache-miss renders and memoizes what
// they produce. The first request for a key starts the render, later
// arrivals wait on the same flight, and the underlying computation runs
// under a context that dies only when the last waiter has gone — one
// caller disconnecting never poisons the result for the rest. A
// successful flight derives its representation's ETag stem and gzip bytes
// once and keeps them as the key's entry, so a warm request answered from
// that entry starts no flight and no goroutine and hashes and compresses
// nothing. Errors and abandoned flights are never memoized.
type flightGroup struct {
	metrics *Metrics
	mu      sync.Mutex
	flights map[flightKey]*flight
	// reps holds each key's last successful representation. A sweep entry
	// (a key with a grid) keeps no body; sweeps lists those keys oldest
	// first, and the oldest is evicted past maxSweepReps.
	reps   map[flightKey]rep
	sweeps []flightKey
}

func newFlightGroup(m *Metrics) *flightGroup {
	return &flightGroup{metrics: m, flights: map[flightKey]*flight{}, reps: map[flightKey]rep{}}
}

// cached returns key's memoized representation, if there is one.
func (g *flightGroup) cached(key flightKey) (rep, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	rp, ok := g.reps[key]
	return rp, ok
}

// Do returns the representation of fn's result for key, executing fn at
// most once across all concurrent callers and memoizing the result. A
// caller whose ctx dies returns ctx.Err() immediately; the flight itself
// is cancelled (and evicted, so later requests start fresh) only when no
// caller remains. A panic inside fn re-panics in every waiting caller,
// keeping the recovery middleware's one-envelope contract.
func (g *flightGroup) Do(ctx context.Context, key flightKey, fn func(context.Context) (string, error)) (rep, error) {
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
			var out string
			if out, f.err = fn(fctx); f.err == nil {
				f.rep = g.memoize(key, out)
			}
		}()
	}
	g.mu.Unlock()
	select {
	case <-f.done:
		if f.panicked != nil {
			panic(f.panicked)
		}
		return f.rep, f.err
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
		return rep{}, ctx.Err()
	}
}

// memoize derives the representation of a freshly rendered body and keeps
// it as key's entry. A body that hashes to the entry's stem keeps the
// entry's gzip bytes (a /v1/sweep identity request re-renders the same
// campaign), so each distinct body is compressed once.
func (g *flightGroup) memoize(key flightKey, body string) rep {
	rp := rep{body: body, stem: etagStem(body)}
	if old, ok := g.cached(key); ok && old.stem == rp.stem {
		rp.gz = old.gz
	} else {
		rp.gz = gzipString(body)
	}
	kept := rp
	g.mu.Lock()
	defer g.mu.Unlock()
	if key.grid != "" {
		kept.body = ""
		if _, ok := g.reps[key]; !ok {
			if len(g.sweeps) == maxSweepReps {
				delete(g.reps, g.sweeps[0])
				g.sweeps = g.sweeps[1:]
			}
			g.sweeps = append(g.sweeps, key)
		}
	}
	g.reps[key] = kept
	return rp
}
