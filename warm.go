package repro

import (
	"context"

	"repro/internal/experiments"
	"repro/internal/report"
)

// WithWarm marks the Service for startup cache warming: the named platform
// scenarios (none means the default platform) are computed with RunAll and
// pre-rendered in every format when StartWarm runs, and the Service reports
// not-Ready until that completes. `memdis serve -warm` and /healthz's
// "ready" field ride on this: a cold pod behind a load balancer is kept out
// of rotation until its caches hold every artifact it advertises. Every
// named scenario must be one of the Service's.
func WithWarm(platforms ...string) Option {
	return func(s *Service) error {
		s.warm = true
		s.warmPlatforms = append([]string(nil), platforms...)
		return nil
	}
}

// Ready reports whether the Service is warm: true immediately for a
// service built without WithWarm, and true once StartWarm has finished
// successfully otherwise. The HTTP /healthz route serves it.
func (s *Service) Ready() bool { return s.ready.Load() }

// StartWarm launches the startup cache warm in the background and returns
// a channel that closes when it finishes (successfully or not — WarmErr
// reports which). The warm drives RunAll for each warm platform (the
// WithWarm set, or the default platform) and then renders every artifact
// in every format, so a warmed server answers every advertised route from
// cache. Serving while warming is safe: requests compute what they need
// and the engine serializes invocations. Once ctx dies the warm stops at
// the engine's next task boundary, the channel closes, no goroutine leaks,
// and the Service stays not-ready. StartWarm is idempotent while a warm
// is in flight or after one has succeeded: those calls return the same
// channel. A warm that finished with an error does not latch — the next
// StartWarm clears the recorded error and begins a fresh attempt, so a
// transient failure (a cancelled boot context, a briefly unavailable
// dependency) is retryable to readiness without restarting the process.
func (s *Service) StartWarm(ctx context.Context) <-chan struct{} {
	s.warmMu.Lock()
	defer s.warmMu.Unlock()
	if s.warmDone != nil {
		restart := false
		select {
		case <-s.warmDone:
			// Finished: only a failed warm warrants a new attempt.
			restart = s.warmErr != nil
		default:
			// Still in flight: join it.
		}
		if !restart {
			return s.warmDone
		}
		s.warmErr = nil
	}
	done := make(chan struct{})
	s.warmDone = done
	platforms := s.warmPlatforms
	if len(platforms) == 0 {
		platforms = []string{s.defaultPlatform}
	}
	go func() {
		err := s.warmAll(ctx, platforms)
		s.warmMu.Lock()
		s.warmErr = err
		s.warmMu.Unlock()
		if err == nil {
			s.ready.Store(true)
		}
		close(done)
	}()
	return done
}

// Warm is the synchronous form of StartWarm: it blocks until the warm
// completes and returns its error.
func (s *Service) Warm(ctx context.Context) error {
	<-s.StartWarm(ctx)
	return s.WarmErr()
}

// WarmErr returns the error the warm finished with (nil while it is still
// running, or if it succeeded).
func (s *Service) WarmErr() error {
	s.warmMu.Lock()
	defer s.warmMu.Unlock()
	return s.warmErr
}

// warmAll computes and renders the whole artifact set for each platform:
// RunAll seeds the document store with the experiment-level fan-out, then
// every (artifact, format) render is materialized so first requests —
// including conditional ones, whose ETags hash the rendered bytes — are
// pure cache hits.
func (s *Service) warmAll(ctx context.Context, platforms []string) error {
	for _, p := range platforms {
		if _, err := s.RunAll(ctx, p); err != nil {
			return err
		}
		for _, id := range experiments.IDs {
			for _, f := range report.Formats {
				if _, err := s.store.Artifact(ctx, p, id, f); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
