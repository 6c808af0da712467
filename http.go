package repro

import (
	"context"
	"log"
	"net/http"
	"os"

	"repro/internal/api"
	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/workloads/registry"
)

// serviceBackend adapts a Service to the internal api.Backend interface
// the versioned HTTP layer serves.
type serviceBackend struct{ s *Service }

func (b serviceBackend) CanonicalID(id string) (string, error) {
	return experiments.CanonicalID(id)
}

func (b serviceBackend) Rendered(ctx context.Context, platform, artifact string, f report.Format) (string, error) {
	return b.s.Rendered(ctx, ArtifactRequest{Platform: platform, Artifact: artifact}, f)
}

func (b serviceBackend) Grid(platform string, axes ...sweep.Axis) (sweep.Grid, error) {
	return b.s.Grid(platform, axes...)
}

func (b serviceBackend) Sweep(ctx context.Context, g sweep.Grid) (*sweep.Campaign, error) {
	return b.s.Sweep(ctx, g)
}

func (b serviceBackend) Scenarios() []scenario.Spec  { return b.s.Scenarios() }
func (b serviceBackend) Workloads() []registry.Entry { return b.s.Workloads() }
func (b serviceBackend) IDs() []string               { return b.s.IDs() }
func (b serviceBackend) DefaultPlatform() string     { return b.s.DefaultPlatform() }

func (b serviceBackend) SubmitSweep(g sweep.Grid) (jobs.Record, error) { return b.s.SubmitSweep(g) }
func (b serviceBackend) ResumeJob(id string) (jobs.Record, error)      { return b.s.ResumeJob(id) }
func (b serviceBackend) Job(id string) (jobs.Record, error)            { return b.s.Job(id) }
func (b serviceBackend) Jobs() ([]jobs.Record, error)                  { return b.s.Jobs() }
func (b serviceBackend) CancelJob(id string) (jobs.Record, error)      { return b.s.CancelJob(id) }
func (b serviceBackend) JobEvents(id string) ([]byte, error)           { return b.s.JobEvents(id) }
func (b serviceBackend) JobArtifact(id, artifact string, f report.Format) (string, error) {
	return b.s.JobArtifact(id, artifact, f)
}

// Handler returns the Service's HTTP surface — what `memdis serve`
// mounts: the versioned /v1 API (GET /v1/artifacts/{id}, /v1/platforms,
// /v1/workloads, /v1/sweep, GET /healthz and GET /v1/stats) with one
// shared JSON error envelope, Accept-header plus ?format= content
// negotiation, and a middleware chain (request logging via WithLogger,
// panic recovery, conditional requests with strong ETags and
// If-None-Match 304s, Accept-Encoding gzip, single-flight coalescing of
// concurrent cache-miss renders, and a memo that hashes and gzips each
// artifact and sweep representation once). Every other path answers the
// envelope 404. /healthz reports the WithWarm readiness state. Artifact
// computation is bounded by each request's context, but a coalesced
// render survives until its last waiting client disconnects. Each call
// builds a new handler with its own counters and memo.
func (s *Service) Handler() http.Handler {
	logger := s.logger
	if !s.loggerSet {
		logger = log.New(os.Stderr, "api: ", log.LstdFlags)
	}
	return api.New(api.Config{
		Backend: serviceBackend{s: s},
		Logger:  logger,
		Ready:   s.Ready,
		WarmErr: s.WarmErr,
		ProfileCache: func() (hits, misses, joins int64) {
			cs := s.ProfileCacheStats()
			return cs.Hits, cs.Misses, cs.Joins
		},
	})
}
