package repro

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/report"
)

// warmService builds the reduced Monte-Carlo service the warm tests share:
// one workload, two scheduler runs, so a full warm is cheap even on one
// core.
func warmService(t *testing.T, opts ...Option) *Service {
	t.Helper()
	hpl, err := Workload("HPL")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(append([]Option{WithWorkers(0), WithRuns(2), WithWorkloads(hpl)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// drainGoroutines polls until the goroutine count returns to within slack
// of the baseline — the no-leak check for cancelled warms (the same idiom
// the engine's cancellation tests use).
func drainGoroutines(t *testing.T, baseline, slack int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+slack {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not drain: %d running, baseline %d",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWarmLifecycle drives the full readiness arc: a WithWarm service is
// born not-ready, serves correct artifacts while the warm runs, flips
// ready when StartWarm finishes, and by then holds every (artifact,
// format) render in its store.
func TestWarmLifecycle(t *testing.T) {
	svc := warmService(t, WithWarm())
	if svc.Ready() {
		t.Fatal("WithWarm service reports ready before any warm ran")
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	healthz := func() bool {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var got struct {
			Ready bool `json:"ready"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("healthz = %d, want 200 (liveness holds while warming)", resp.StatusCode)
		}
		return got.Ready
	}
	if healthz() {
		t.Fatal("healthz reports ready before the warm started")
	}

	ctx := context.Background()
	done := svc.StartWarm(ctx)
	if again := svc.StartWarm(ctx); again != done {
		t.Error("StartWarm is not idempotent: second call returned a different channel")
	}

	// Serving while warming: a request racing the warm still gets the
	// correct bytes — the store computes what the warm has not reached yet.
	early, err := svc.Rendered(ctx, ArtifactRequest{Artifact: "figure9"}, FormatText)
	if err != nil || early == "" {
		t.Fatalf("render during warm: %v", err)
	}

	select {
	case <-done:
	case <-time.After(8 * time.Minute): // generous: one slow core under -race
		t.Fatal("warm did not finish")
	}
	if err := svc.WarmErr(); err != nil {
		t.Fatalf("warm failed: %v", err)
	}
	if !svc.Ready() || !healthz() {
		t.Fatal("service not ready after a successful warm")
	}
	// The warm's whole point: every advertised (artifact, format) is a
	// pure cache hit now.
	docs, renders := svc.Store().Cached()
	ids := len(svc.IDs())
	if docs < ids || renders < ids*len(report.Formats) {
		t.Errorf("store holds %d docs / %d renders after warm, want >=%d docs and >=%d renders",
			docs, renders, ids, ids*len(report.Formats))
	}
	late, err := svc.Rendered(ctx, ArtifactRequest{Artifact: "figure9"}, FormatText)
	if err != nil || late != early {
		t.Errorf("post-warm render drifted from the mid-warm one (err %v)", err)
	}
}

// TestWarmCancellation kills the warm's context mid-flight and checks the
// abort contract: the done channel closes, no goroutines leak, and — when
// the cancel actually won the race — the service stays not-ready with the
// cancellation recorded in WarmErr.
func TestWarmCancellation(t *testing.T) {
	baseline := runtime.NumGoroutine()
	svc := warmService(t, WithWarm())
	ctx, cancel := context.WithCancel(context.Background())
	done := svc.StartWarm(ctx)
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("cancelled warm never closed its done channel")
	}
	drainGoroutines(t, baseline, 2)
	// On a fast machine the warm may have beaten the cancel; both ends of
	// the race must be coherent.
	if err := svc.WarmErr(); err != nil {
		if !strings.Contains(err.Error(), context.Canceled.Error()) {
			t.Errorf("warm error = %v, want a context cancellation", err)
		}
		if svc.Ready() {
			t.Error("service reports ready after a cancelled warm")
		}
	} else if !svc.Ready() {
		t.Error("warm succeeded but service not ready")
	}
}

// TestWarmRetryAfterFailure pins the retry contract: a warm that finished
// with an error (here a pre-cancelled boot context — the transient kind a
// supervisor's shutdown race produces) must not latch the service
// not-ready forever. The failure is diagnosable from /healthz, and the
// next StartWarm begins a fresh attempt that carries the service to
// readiness without a process restart.
func TestWarmRetryAfterFailure(t *testing.T) {
	svc := warmService(t, WithWarm())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	select {
	case <-svc.StartWarm(dead):
	case <-time.After(time.Minute):
		t.Fatal("warm under a dead context never closed its channel")
	}
	if err := svc.WarmErr(); err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("warm error = %v, want a context cancellation", err)
	}
	if svc.Ready() {
		t.Fatal("service reports ready after a failed warm")
	}

	// The probe shows the stuck-not-ready diagnosis: still 200 (the pod is
	// live), ready=false, and the warm error verbatim — never cached.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var probe struct {
		Ready   bool   `json:"ready"`
		WarmErr string `json:"warm_error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&probe); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get("Cache-Control") != "no-store" {
		t.Fatalf("healthz after failed warm = %d (Cache-Control %q), want 200 no-store",
			resp.StatusCode, resp.Header.Get("Cache-Control"))
	}
	if probe.Ready || !strings.Contains(probe.WarmErr, context.Canceled.Error()) {
		t.Fatalf("healthz after failed warm: ready=%v warm_error=%q", probe.Ready, probe.WarmErr)
	}

	// Retry: StartWarm starts over instead of returning the dead channel,
	// stays idempotent while the new attempt is in flight, and reaches
	// readiness.
	done := svc.StartWarm(context.Background())
	if again := svc.StartWarm(context.Background()); again != done {
		t.Error("StartWarm is not idempotent while the retry is in flight")
	}
	select {
	case <-done:
	case <-time.After(8 * time.Minute): // generous: one slow core under -race
		t.Fatal("retried warm did not finish")
	}
	if err := svc.WarmErr(); err != nil {
		t.Fatalf("retried warm failed: %v", err)
	}
	if !svc.Ready() {
		t.Fatal("service not ready after a successful retry")
	}
	// Success latches: further calls rejoin the finished warm.
	if again := svc.StartWarm(context.Background()); again != done {
		t.Error("StartWarm after a successful warm returned a new channel")
	}
}

// TestWarmOptionValidation pins the constructor contract: warm platforms
// must name registered scenarios.
func TestWarmOptionValidation(t *testing.T) {
	if _, err := New(WithWarm("vapor")); err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Errorf("WithWarm(vapor) error = %v, want unknown scenario", err)
	}
	// Without WithWarm the service is born ready and Warm is still usable
	// as an explicit pre-computation call.
	svc := warmService(t)
	if !svc.Ready() {
		t.Error("plain service should be ready immediately")
	}
}
