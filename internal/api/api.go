// Package api is the versioned HTTP surface of the reproduction service:
// one mux, one JSON error envelope, one content-negotiation rule, one
// caching policy and one middleware chain (request logging, panic
// recovery, request counting) over every route, and one writer for every
// cacheable response (conditional requests, gzip). Paths outside the
// routes below answer the envelope 404.
//
// Routes (GET unless noted):
//
//	/healthz                   liveness + readiness: {"status":"ok","ready":true}
//	/v1                        index: artifact ids, platforms, formats, routes
//	/v1/stats                  serving + profile-cache counters (renders, coalesced, profile_hits, ...)
//	/v1/artifacts              artifact index
//	/v1/artifacts/{id}         one artifact (canonical ids only)
//	/v1/platforms              the scenario table
//	/v1/workloads              the workload table
//	/v1/sweep                  a synchronous sweep campaign (axis=, artifact=, platform=)
//	/v1/jobs                   POST submits an async campaign job (202 + Location); GET lists
//	/v1/jobs/{id}              job status; DELETE cancels (checkpoint survives)
//	/v1/jobs/{id}/events       the job's JSON-lines progress log (NDJSON)
//	/v1/jobs/{id}/artifacts/{artifact}  a done job's rendered sweep|sensitivity
//
// The synchronous /v1/sweep route caps grids at sweep.MaxSyncGridCells;
// larger campaigns go through POST /v1/jobs, which streams progress into a
// persistent checkpoint and survives restarts (see the jobs package).
//
// Every data route accepts ?platform= (default: the backend's) and picks
// its representation from ?format= (text, json, csv — txt accepted,
// case-insensitive) or, absent that, the Accept header (application/json,
// text/csv, text/plain; members with q=0 and unrecognized types are
// skipped, and text is the fallback).
//
// Serving semantics: documents are immutable per (platform, artifact,
// seed, code version), so every successful data response carries a strong
// ETag (SHA-256 of the rendered bytes), Cache-Control: public and
// Vary: Accept, Accept-Encoding; If-None-Match revalidations are an
// empty-body 304, gzip is negotiated via Accept-Encoding, and N
// concurrent cache-miss requests for one (platform, artifact, format)
// coalesce into a single render. An artifact or sweep representation is
// hashed and gzipped once, by that render, and memoized: warm 304s and
// gzip hits call no backend. Error envelopes are never cacheable.
//
// Errors — unknown artifact or platform (404), alias ids (404, pointing
// at the canonical id), malformed formats or axes and oversized grids
// (400), cancelled computations (503/504), panics (500) — all share one
// JSON envelope:
//
//	{"error": {"status": 404, "message": "..."}}
//
// with a "formats" field listing the accepted spellings verbatim when the
// failure is a format error. Validation runs the exact same validators the
// library path runs (report.ParseFormat, sweep.Grid.Validate via the
// backend's Sweep), so the two surfaces cannot drift apart.
package api

import (
	"context"
	"log"
	"net/http"

	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/memo"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/workloads/registry"
)

// Backend is the service surface the HTTP API serves — implemented by
// repro.Service.
type Backend interface {
	// CanonicalID resolves an artifact id or alias to the canonical id
	// the backend serves it under; unknown ids error (matching
	// experiments.ErrUnknownID for the envelope's 404 mapping).
	CanonicalID(id string) (string, error)
	// Rendered returns one artifact rendered in one format; platform ""
	// means the backend's default.
	Rendered(ctx context.Context, platform, artifact string, f report.Format) (string, error)
	// Grid returns the sweep grid on a platform's base system over the
	// given axes (none selects the canonical default grid).
	Grid(platform string, axes ...sweep.Axis) (sweep.Grid, error)
	// Sweep executes (or returns the memoized) campaign for a grid.
	Sweep(ctx context.Context, g sweep.Grid) (*sweep.Campaign, error)
	// Scenarios, Workloads and IDs enumerate the served tables.
	Scenarios() []scenario.Spec
	Workloads() []registry.Entry
	IDs() []string
	// DefaultPlatform is the scenario an absent ?platform= resolves to.
	DefaultPlatform() string

	// SubmitSweep starts (or re-attaches to) the asynchronous campaign
	// job for a grid; ResumeJob restarts one from its checkpoint. Job,
	// Jobs and CancelJob are the status surfaces; unknown ids match
	// jobs.ErrNotFound for the envelope's 404 mapping.
	SubmitSweep(g sweep.Grid) (jobs.Record, error)
	ResumeJob(id string) (jobs.Record, error)
	Job(id string) (jobs.Record, error)
	Jobs() ([]jobs.Record, error)
	CancelJob(id string) (jobs.Record, error)
	// JobEvents returns a job's raw JSON-lines event log; JobArtifact a
	// done job's rendered artifact (jobs.ErrNotDone → 409 before then).
	JobEvents(id string) ([]byte, error)
	JobArtifact(id, artifact string, f report.Format) (string, error)
}

// Config wires a Backend into the HTTP surface.
type Config struct {
	// Backend serves every /v1 route.
	Backend Backend
	// Logger receives one request-log line per request; nil disables
	// request logging.
	Logger *log.Logger
	// Ready reports whether the backend has finished its startup cache
	// warm; nil means always ready. /healthz serves it so orchestrators
	// can distinguish a live pod from one still recomputing its caches.
	Ready func() bool
	// WarmErr reports why the last startup warm failed (nil while
	// in-flight or after success); nil disables the field. /healthz
	// surfaces it as "warm_error" so a stuck not-ready pod is diagnosable
	// from the probe alone.
	WarmErr func() error
	// Metrics receives the serving counters; nil allocates a private set.
	// Served as a snapshot on GET /v1/stats either way.
	Metrics *Metrics
	// ProfileCache reports the backend's shared profile-cache counters;
	// nil omits them. GET /v1/stats merges them into the snapshot as the
	// flat keys profile_hits, profile_misses and profile_joins, keeping
	// the route a plain string → int64 map for harnesses that diff it.
	ProfileCache func() (hits, misses, joins int64)
}

// server is the built API: the configuration plus the shared serving
// state every handler needs — the counter set and the two representation
// memos — and the middleware chain that serves it.
type server struct {
	cfg     Config
	metrics *Metrics
	// arts memoizes artifact representations. Their keys range over the
	// platforms, artifacts and formats the backend serves, so the memo
	// needs no bound.
	arts *memo.Memo[repKey, rep]
	// sweeps memoizes /v1/sweep representations, whose grids are
	// request-controlled; its entries keep no identity body.
	sweeps  *memo.Memo[repKey, rep]
	handler http.Handler
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// New builds the versioned API handler: the /v1 routes and /healthz behind
// the middleware chain, with every other path answering the envelope 404
// whatever the method.
// Data routes answer through writeRep, the conditional-request/gzip
// writer; /healthz, the indexes and /v1/stats stay uncacheable.
func New(c Config) http.Handler {
	m := c.Metrics
	if m == nil {
		m = &Metrics{}
	}
	s := &server{
		cfg:     c,
		metrics: m,
		arts:    memo.New[repKey, rep](0, &m.Reps),
		sweeps:  memo.New[repKey, rep](maxSweepReps, &m.Reps),
	}
	mux := http.NewServeMux()
	mux.Handle("/healthz", get(s.handleHealthz))
	mux.Handle("/v1", get(s.handleIndex))
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, errNoRoute(r.URL.Path))
	})
	mux.Handle("/v1/stats", get(s.handleStats))
	mux.Handle("/v1/artifacts", get(s.handleArtifactIndex))
	mux.Handle("/v1/artifacts/{id}", get(s.handleArtifact))
	mux.Handle("/v1/platforms", get(s.handlePlatforms))
	mux.Handle("/v1/workloads", get(s.handleWorkloads))
	mux.Handle("/v1/sweep", get(s.handleSweep))
	mux.Handle("/v1/jobs", methods(map[string]http.HandlerFunc{
		http.MethodGet:  s.handleJobs,
		http.MethodPost: s.handleJobSubmit,
	}))
	mux.Handle("/v1/jobs/{id}", methods(map[string]http.HandlerFunc{
		http.MethodGet:    s.handleJob,
		http.MethodDelete: s.handleJobCancel,
	}))
	mux.Handle("/v1/jobs/{id}/events", get(s.handleJobEvents))
	mux.Handle("/v1/jobs/{id}/artifacts/{artifact}", get(s.handleJobArtifact))
	s.handler = logging(c.Logger, recovery(counted(m, mux)))
	return s
}

// handleHealthz is the health probe: always 200 while the process serves
// (liveness), with a ready field that flips true once the startup cache
// warm — when one was requested — has completed (readiness). It never
// touches the experiment engine.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ready := s.cfg.Ready == nil || s.cfg.Ready()
	w.Header().Set("Cache-Control", "no-store")
	body := map[string]any{"status": "ok", "ready": ready}
	if s.cfg.WarmErr != nil {
		if err := s.cfg.WarmErr(); err != nil {
			// A failed warm leaves the pod live but not ready; surfacing
			// the diagnostic here makes that state debuggable from the
			// probe alone (the response stays no-store either way).
			body["warm_error"] = err.Error()
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// handleStats serves a snapshot of the serving counters — what the CI
// serving smoke and perfbench's warm-http workload read around their
// requests.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Cache-Control", "no-store")
	snap := s.metrics.Snapshot()
	if s.cfg.ProfileCache != nil {
		hits, misses, joins := s.cfg.ProfileCache()
		snap["profile_hits"] = hits
		snap["profile_misses"] = misses
		snap["profile_joins"] = joins
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleIndex describes the API: the served ids and names plus the route
// shapes, so `curl /v1` is self-documenting.
func (s *server) handleIndex(w http.ResponseWriter, r *http.Request) {
	scs := s.cfg.Backend.Scenarios()
	platforms := make([]string, len(scs))
	for i, sp := range scs {
		platforms[i] = sp.Name
	}
	ws := s.cfg.Backend.Workloads()
	workloads := make([]string, len(ws))
	for i, e := range ws {
		workloads[i] = e.Name
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"artifacts":        s.cfg.Backend.IDs(),
		"platforms":        platforms,
		"workloads":        workloads,
		"formats":          report.AcceptedFormats(),
		"default_platform": s.cfg.Backend.DefaultPlatform(),
		"routes": []string{
			"GET /healthz",
			"GET /v1",
			"GET /v1/stats",
			"GET /v1/artifacts",
			"GET /v1/artifacts/{id}?platform=&format=",
			"GET /v1/platforms?format=",
			"GET /v1/workloads?format=",
			"GET /v1/sweep?axis=&artifact=sweep|sensitivity&platform=&format=",
			"POST /v1/jobs",
			"GET /v1/jobs",
			"GET /v1/jobs/{id}",
			"DELETE /v1/jobs/{id}",
			"GET /v1/jobs/{id}/events",
			"GET /v1/jobs/{id}/artifacts/{artifact}?format=",
		},
	})
}

// handleArtifactIndex lists the artifact ids and the URL shape serving
// them.
func (s *server) handleArtifactIndex(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"artifacts":        s.cfg.Backend.IDs(),
		"url":              "/v1/artifacts/{id}?platform={scenario}&format={text|json|csv}",
		"default_platform": s.cfg.Backend.DefaultPlatform(),
	})
}

// handleArtifact serves one rendered artifact. Only canonical ids name
// /v1 resources: a figure alias is a 404 whose message points at the
// canonical id, so every document is served from exactly one URL. A cold
// render goes through the representation memo: concurrent cache-miss
// requests for one (platform, artifact, format) trigger one backend
// render, and the computation survives any single client's disconnect as
// long as another is still waiting. A warm 304 or gzip request is answered
// from the memoized representation alone.
func (s *server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	f, err := negotiate(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	id := r.PathValue("id")
	canon, err := s.cfg.Backend.CanonicalID(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	if canon != id {
		writeError(w, http.StatusNotFound, &experiments.AliasError{Alias: id, Canonical: canon})
		return
	}
	platform := r.URL.Query().Get("platform")
	keyPlatform := platform
	if keyPlatform == "" {
		// Normalize the key so "" and the explicit default name share one
		// entry.
		keyPlatform = s.cfg.Backend.DefaultPlatform()
	}
	key := repKey{platform: keyPlatform, artifact: canon, format: f}
	rp, warm := s.arts.Get(key)
	if warm && wantsBody(r, rp) {
		// A warm identity 200 writes the store's own string. When the
		// store's document changed since the entry was derived (a
		// Store().Put), the entry is dropped and rebuilt, so a new body
		// never goes out under an old tag.
		out, err := s.cfg.Backend.Rendered(r.Context(), platform, canon, f)
		if err != nil {
			writeStatusError(w, err)
			return
		}
		if warm = out == rp.body; !warm {
			s.arts.Drop(key)
		}
	}
	if !warm {
		rp, err = s.arts.Do(r.Context(), key, func(ctx context.Context) (rep, error) {
			out, err := s.cfg.Backend.Rendered(ctx, platform, canon, f)
			if err != nil {
				return rep{}, err
			}
			return rep{body: out, stem: etagStem(out), gz: gzipString(out)}, nil
		})
		if err != nil {
			writeStatusError(w, err)
			return
		}
	}
	s.writeRep(w, r, f, rp)
}

// handlePlatforms serves the scenario table as a negotiated document.
func (s *server) handlePlatforms(w http.ResponseWriter, r *http.Request) {
	s.serveDoc(w, r, platformsDoc(s.cfg.Backend.Scenarios()))
}

// handleWorkloads serves the workload table as a negotiated document.
func (s *server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	s.serveDoc(w, r, workloadsDoc(s.cfg.Backend.Workloads()))
}

// serveDoc renders a registry document in the negotiated format.
func (s *server) serveDoc(w http.ResponseWriter, r *http.Request, d report.Doc) {
	f, err := negotiate(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	out, err := report.Render(d, f)
	if err != nil {
		writeStatusError(w, err)
		return
	}
	s.writeRep(w, r, f, rep{body: out, stem: etagStem(out)})
}

// handleSweep executes a sweep campaign: each axis= parameter is one
// sweep.ParseAxis declaration (none keeps the platform's default grid),
// artifact= picks the "sweep" (default) or "sensitivity" view. Validation
// is the shared sweep validator — the same caps the library's
// Service.Sweep enforces — surfacing as 400s.
func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) {
	f, err := negotiate(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	artifact := r.URL.Query().Get("artifact")
	if artifact == "" {
		artifact = "sweep"
	}
	if artifact != "sweep" && artifact != "sensitivity" {
		writeError(w, http.StatusBadRequest,
			errBadSweepArtifact(artifact))
		return
	}
	platform := r.URL.Query().Get("platform")
	var axes []sweep.Axis
	for _, a := range r.URL.Query()["axis"] {
		ax, err := sweep.ParseAxis(a)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		axes = append(axes, ax)
	}
	g, err := s.cfg.Backend.Grid(platform, axes...)
	if err != nil {
		writeStatusError(w, err)
		return
	}
	// The synchronous boundary: a request-lifetime campaign is capped;
	// bigger grids validate fine but belong on the job surface.
	if err := sweep.CheckSyncSize(g); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Normalize the platform before keying: "" and the explicit default
	// name must coalesce onto one execution.
	if platform == "" {
		platform = s.cfg.Backend.DefaultPlatform()
	}
	// Coalesce concurrent requests on the *canonical* grid (g.Key()
	// normalizes axis declarations — a range spelling and its expanded
	// value list key identically), so N cache-miss queries for one
	// campaign view trigger one execution and one render.
	key := repKey{platform: platform, artifact: artifact, grid: g.Key(), format: f}
	rp, err := s.sweeps.Do(r.Context(), key, func(ctx context.Context) (rep, error) {
		camp, err := s.cfg.Backend.Sweep(ctx, g)
		if err != nil {
			return rep{}, err
		}
		var doc report.Doc
		if artifact == "sensitivity" {
			doc = camp.Sensitivity()
		} else {
			doc = camp.Sweep()
		}
		// Stamp the *scenario* name the request resolved to — not the
		// grid's machine-config name — so the platform field round-trips
		// through ?platform= and matches /v1/platforms (and what the
		// CLI's seeded store emits for the same campaign).
		doc.Platform = platform
		out, err := report.Render(doc, f)
		if err != nil {
			return rep{}, err
		}
		return rep{stem: etagStem(out), gz: gzipString(out)}, nil
	})
	if err == nil && wantsBody(r, rp) {
		// A sweep entry keeps no identity body: an identity 200 serves its
		// gzip bytes decompressed.
		rp.body, err = gunzipString(rp.gz)
	}
	if err != nil {
		writeStatusError(w, err)
		return
	}
	s.writeRep(w, r, f, rp)
}
