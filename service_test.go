package repro

import (
	"compress/gzip"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/scenario"
)

func TestNewOptionValidation(t *testing.T) {
	if _, err := New(WithDefaultPlatform("vapor")); !errors.Is(err, ErrUnknownPlatform) {
		t.Errorf("unknown default platform: err = %v, want ErrUnknownPlatform", err)
	}
	if _, err := New(WithScenarios()); err == nil {
		t.Error("empty WithScenarios should error")
	}
	if _, err := New(WithWorkloads()); err == nil {
		t.Error("empty WithWorkloads should error")
	}
	if _, err := New(WithRuns(-1)); err == nil {
		t.Error("negative WithRuns should error")
	}
	if _, err := New(WithScenarios(Scenario{Name: "broken"})); err == nil {
		t.Error("invalid scenario spec should error")
	}
	// A valid custom set: the first scenario becomes the default platform.
	sp, err := PlatformNamed("cxl-gen5")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(WithScenarios(sp))
	if err != nil {
		t.Fatal(err)
	}
	if svc.DefaultPlatform() != "cxl-gen5" {
		t.Errorf("default platform = %q, want the first scenario", svc.DefaultPlatform())
	}
	if _, err := svc.Artifact(context.Background(), ArtifactRequest{Platform: "baseline", Artifact: "figure1"}); !errors.Is(err, ErrUnknownPlatform) {
		t.Errorf("scenario outside the restricted set: err = %v, want ErrUnknownPlatform", err)
	}
}

func TestServiceEnumerations(t *testing.T) {
	svc, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(svc.Scenarios()), len(scenario.All()); got != want {
		t.Errorf("Scenarios() = %d entries, want %d", got, want)
	}
	if got, want := len(svc.Workloads()), 6; got != want {
		t.Errorf("Workloads() = %d entries, want %d", got, want)
	}
	ids := svc.IDs()
	if len(ids) != len(ExperimentIDs()) {
		t.Errorf("IDs() = %d entries, want %d", len(ids), len(ExperimentIDs()))
	}
	ids[0] = "mutated"
	if svc.IDs()[0] == "mutated" {
		t.Error("IDs must return a copy")
	}
}

// TestServiceArtifactMatchesLegacy is the facade's byte-identity
// guarantee on the cheap data-backed artifacts: the Service path renders
// exactly what a bare sequential suite (experiments.Suite.Run) renders,
// and figure aliases canonicalize transparently at the library surface.
func TestServiceArtifactMatchesLegacy(t *testing.T) {
	svc, err := New()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, id := range []string{"figure1", "table1"} {
		ref, err := experiments.NewSuite(DefaultPlatform()).Run(id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := svc.Rendered(ctx, ArtifactRequest{Artifact: id}, FormatText)
		if err != nil {
			t.Fatal(err)
		}
		if got != ref.Render() {
			t.Errorf("%s: Service render differs from the suite path (%d vs %d bytes)",
				id, len(got), len(ref.Render()))
		}
	}
	// Alias request: canonicalized, same document, stamped platform.
	d, err := svc.Artifact(ctx, ArtifactRequest{Artifact: "fig1"})
	if err != nil {
		t.Fatal(err)
	}
	if d.Artifact != "figure1" || d.Platform != "baseline" {
		t.Errorf("alias request resolved to %q on %q, want figure1 on baseline", d.Artifact, d.Platform)
	}
	// Unknown ids and platforms classify under the exported sentinels.
	if _, err := svc.Artifact(ctx, ArtifactRequest{Artifact: "nope"}); !errors.Is(err, ErrUnknownArtifact) {
		t.Errorf("unknown artifact: err = %v, want ErrUnknownArtifact", err)
	}
	if _, err := svc.Artifact(ctx, ArtifactRequest{Platform: "vapor", Artifact: "figure1"}); !errors.Is(err, ErrUnknownPlatform) {
		t.Errorf("unknown platform: err = %v, want ErrUnknownPlatform", err)
	}
}

// TestServiceCachePolicy checks the request paths memoize: repeated
// requests compute each document once and render each format once.
func TestServiceCachePolicy(t *testing.T) {
	ctx := context.Background()
	svc, err := New()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := svc.Rendered(ctx, ArtifactRequest{Artifact: "table1"}, FormatText); err != nil {
			t.Fatal(err)
		}
	}
	if docs, renders := svc.Store().Cached(); docs != 1 || renders != 1 {
		t.Errorf("cached docs=%d renders=%d after two requests, want 1 and 1", docs, renders)
	}
}

// TestServiceSweepValidation checks the shared validator guards the
// library path with the caps the HTTP layer enforces.
func TestServiceSweepValidation(t *testing.T) {
	svc, err := New()
	if err != nil {
		t.Fatal(err)
	}
	g, err := svc.Grid("baseline", SweepAxis{Name: "bogus", Values: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Sweep(context.Background(), g); !errors.Is(err, ErrInvalidSweep) {
		t.Errorf("bad axis through the library path: err = %v, want ErrInvalidSweep", err)
	}
	if _, err := svc.Grid("vapor"); !errors.Is(err, ErrUnknownPlatform) {
		t.Errorf("Grid on unknown platform: err = %v, want ErrUnknownPlatform", err)
	}
}

// TestServiceConcurrentRequests hammers one Service from several
// goroutines mixing artifact and sweep requests — the serve workload. The
// suite serializes engine invocations internally; under -race this pins
// that no request path races on the shared limiter or memos.
func TestServiceConcurrentRequests(t *testing.T) {
	hpl, err := Workload("HPL")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(WithWorkers(2), WithRuns(2), WithWorkloads(hpl))
	if err != nil {
		t.Fatal(err)
	}
	g, err := svc.Grid("baseline", SweepAxis{Name: "gen", Values: []float64{0}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for i := 0; i < 4; i++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			_, err := svc.Rendered(ctx, ArtifactRequest{Artifact: "figure1"}, FormatText)
			errs <- err
		}()
		go func() {
			defer wg.Done()
			_, err := svc.Rendered(ctx, ArtifactRequest{Artifact: "table1"}, FormatJSON)
			errs <- err
		}()
		go func() {
			defer wg.Done()
			_, err := svc.Sweep(ctx, g)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestServiceSweepMemoized pins the campaign-memo routing: repeated
// sweeps of one grid — including on the default platform, whose machine
// name differs from its scenario name — share a single execution.
func TestServiceSweepMemoized(t *testing.T) {
	hpl, err := Workload("HPL")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(WithRuns(2), WithWorkloads(hpl))
	if err != nil {
		t.Fatal(err)
	}
	g, err := svc.Grid("baseline", SweepAxis{Name: "gen", Values: []float64{0}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c1, err := svc.Sweep(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := svc.Sweep(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("repeated sweep of one grid did not hit the single-flight memo")
	}
}

// TestServiceCancellation pins the context contract on the service
// surface: pre-cancelled contexts fail fast and seed nothing.
func TestServiceCancellation(t *testing.T) {
	svc, err := New()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Artifact(ctx, ArtifactRequest{Artifact: "figure1"}); !errors.Is(err, context.Canceled) {
		t.Errorf("Artifact under cancelled ctx = %v, want context.Canceled", err)
	}
	if _, err := svc.RunAll(ctx, ""); !errors.Is(err, context.Canceled) {
		t.Errorf("RunAll under cancelled ctx = %v, want context.Canceled", err)
	}
	g, err := svc.Grid("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Sweep(ctx, g); !errors.Is(err, context.Canceled) {
		t.Errorf("Sweep under cancelled ctx = %v, want context.Canceled", err)
	}
	if docs, renders := svc.Store().Cached(); docs != 0 || renders != 0 {
		t.Errorf("cancelled calls seeded the store: docs=%d renders=%d", docs, renders)
	}
}

// TestServiceHandlerEndToEnd drives the real /v1 surface over a real
// Service on the cheap artifacts: negotiation, envelope and health, exactly
// as `memdis serve` mounts them.
func TestServiceHandlerEndToEnd(t *testing.T) {
	svc, err := New(WithLogger(nil))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	body := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}
	if code, b := body("/healthz"); code != 200 || !strings.Contains(b, `"ok"`) {
		t.Errorf("healthz = %d %q", code, b)
	}
	code, b := body("/v1/artifacts/figure1?format=json")
	if code != 200 {
		t.Fatalf("figure1 = %d\n%s", code, b)
	}
	d, err := ParseArtifactJSON(b)
	if err != nil || d.Artifact != "figure1" || d.Platform != "baseline" {
		t.Errorf("served document: %+v, %v", d, err)
	}
	// The pre-/v1 URL is off the route table: the envelope 404.
	if code, b := body("/artifacts/figure1.json"); code != 404 || !strings.Contains(b, `"status": 404`) || !strings.Contains(b, "no such route") {
		t.Errorf("pre-/v1 artifact URL = %d %q, want the envelope 404", code, b)
	}
	if code, b := body("/v1/artifacts/fig1"); code != 404 || !strings.Contains(b, "figure1") {
		t.Errorf("alias over /v1 = %d %q, want 404 pointing at figure1", code, b)
	}
	if code, b := body("/v1/platforms?format=json"); code != 200 || !strings.Contains(b, "cxl-gen5") {
		t.Errorf("platforms = %d %q", code, b)
	}
	if code, b := body("/v1/workloads"); code != 200 || !strings.Contains(b, "XSBench") {
		t.Errorf("workloads = %d %q", code, b)
	}
}

// TestServiceGoldenArtifacts is the acceptance criterion of the facade:
// every committed golden artifact, served through the Service path, is
// byte-identical to the file the suite path generated. Full tier
// only (the quick tier pins the data-backed subset via
// TestServiceArtifactMatchesLegacy).
func TestServiceGoldenArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("full-tier golden sweep")
	}
	svc, err := New(WithWorkers(0))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, id := range svc.IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			got, err := svc.Rendered(ctx, ArtifactRequest{Artifact: id}, FormatText)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("internal", "experiments", "testdata", "golden", id+".txt")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden %s: %v", path, err)
			}
			if got != string(want) {
				t.Errorf("%s: Service render drifted from the committed golden (%d vs %d bytes)",
					id, len(got), len(want))
			}
		})
	}
}

// TestHandlerFollowsStorePut checks that the HTTP layer's memoized
// representations follow the store: once Store().Put replaces a document,
// the next response carries the new body under a new ETag, the old tag no
// longer revalidates, and the gzip variant serves the new bytes too.
func TestHandlerFollowsStorePut(t *testing.T) {
	svc, err := New(WithLogger(nil))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	// Setting Accept-Encoding by hand keeps the transport from decoding
	// gzip, so the test sees the bytes the server sent.
	get := func(hdr map[string]string) (int, string, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/artifacts/figure9?format=json", nil)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var r io.Reader = resp.Body
		if resp.Header.Get("Content-Encoding") == "gzip" {
			if r, err = gzip.NewReader(resp.Body); err != nil {
				t.Fatal(err)
			}
		}
		b, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("ETag"), string(b)
	}
	identity := map[string]string{"Accept-Encoding": "identity"}
	gz := map[string]string{"Accept-Encoding": "gzip"}
	put := func(text string) {
		svc.Store().Put("baseline", *report.New("figure9").Append(report.NoteBlock(text)))
	}

	put("first document\n")
	_, tag1, body1 := get(identity)
	if _, gzTag, gzBody := get(gz); gzBody != body1 || gzTag != strings.TrimSuffix(tag1, `"`)+`-gzip"` {
		t.Fatalf("gzip variant = %s %q, want %s-gzip over the identity body", gzTag, gzBody, tag1)
	}
	put("second document\n")
	code, tag2, body2 := get(identity)
	if code != 200 || body2 == body1 || !strings.Contains(body2, "second document") {
		t.Fatalf("after Put: %d %q, want the second document", code, body2)
	}
	if tag2 == tag1 {
		t.Fatalf("after Put the new body went out under the old ETag %s", tag1)
	}
	if _, gzTag, gzBody := get(gz); gzBody != body2 || gzTag != strings.TrimSuffix(tag2, `"`)+`-gzip"` {
		t.Errorf("gzip variant after Put = %s %q, want %s-gzip over the new body", gzTag, gzBody, tag2)
	}
	if code, _, _ := get(map[string]string{"Accept-Encoding": "identity", "If-None-Match": tag1}); code != 200 {
		t.Errorf("the replaced document's tag revalidated with %d, want a full 200", code)
	}
	if code, _, _ := get(map[string]string{"Accept-Encoding": "identity", "If-None-Match": tag2}); code != 304 {
		t.Errorf("the current tag revalidated with %d, want 304", code)
	}
}
