package api

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/workloads/registry"
)

// stubBackend serves canned documents through the real error types, so the
// route table runs fast while the status mapping is exercised exactly as
// the Service produces it. Two trapdoors: artifact "figure5" fails with a
// context.Canceled error (pinning the 503 mapping) and "figure7" panics
// (pinning the recovery middleware). Jobs run through a real manager over
// an in-memory store, so the job routes serve real lifecycle behavior.
type stubBackend struct {
	sweeps   atomic.Int32
	jobsOnce sync.Once
	jobs     *jobs.Manager
}

// manager lazily builds the stub's job manager (tiny campaigns: one
// workload, two Monte-Carlo runs).
func (b *stubBackend) manager() *jobs.Manager {
	b.jobsOnce.Do(func() {
		m, err := jobs.NewManager(jobs.Config{
			Store: jobs.NewMemStore(),
			NewRunner: func(g sweep.Grid) *sweep.Runner {
				return &sweep.Runner{Grid: g, Entries: registry.All()[:1], Runs: 2}
			},
		})
		if err != nil {
			panic(err)
		}
		b.jobs = m
	})
	return b.jobs
}

func (b *stubBackend) SubmitSweep(g sweep.Grid) (jobs.Record, error) {
	return b.manager().Submit(g)
}
func (b *stubBackend) ResumeJob(id string) (jobs.Record, error) { return b.manager().Resume(id) }
func (b *stubBackend) Job(id string) (jobs.Record, error)       { return b.manager().Get(id) }
func (b *stubBackend) Jobs() ([]jobs.Record, error)             { return b.manager().List() }
func (b *stubBackend) CancelJob(id string) (jobs.Record, error) { return b.manager().Cancel(id) }
func (b *stubBackend) JobEvents(id string) ([]byte, error)      { return b.manager().Events(id) }
func (b *stubBackend) JobArtifact(id, artifact string, f report.Format) (string, error) {
	return b.manager().Artifact(id, artifact, f)
}

func (b *stubBackend) scenarios() []scenario.Spec { return scenario.All()[:2] }

func (b *stubBackend) CanonicalID(id string) (string, error) { return experiments.CanonicalID(id) }

func (b *stubBackend) Rendered(ctx context.Context, platform, artifact string, f report.Format) (string, error) {
	if platform == "" {
		platform = "baseline"
	}
	if _, err := scenario.GetFrom(b.scenarios(), platform); err != nil {
		return "", err
	}
	switch artifact {
	case "figure5":
		return "", fmt.Errorf("engine stopped: %w", context.Canceled)
	case "figure7":
		panic("driver bug")
	}
	d := *report.New(artifact).Append(report.NoteBlock("body of " + artifact + "\n"))
	d.Platform = platform
	return report.Render(d, f)
}

func (b *stubBackend) Grid(platform string, axes ...sweep.Axis) (sweep.Grid, error) {
	if platform == "" {
		platform = "baseline"
	}
	sp, err := scenario.GetFrom(b.scenarios(), platform)
	if err != nil {
		return sweep.Grid{}, err
	}
	if len(axes) == 0 {
		axes = []sweep.Axis{{Name: "gen", Values: []float64{0}}}
	}
	return sweep.Grid{Base: sp, Axes: axes}, nil
}

// stubProfiles is the profile cache every stub campaign shares, so a cell
// some earlier request already profiled costs a lookup instead of a
// workload execution. Campaign bytes are the same either way.
var stubProfiles = core.NewSharedCache()

func (b *stubBackend) Sweep(ctx context.Context, g sweep.Grid) (*sweep.Campaign, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	b.sweeps.Add(1)
	r := &sweep.Runner{Grid: g, Entries: registry.All()[:1], Runs: 2, Cache: stubProfiles}
	return r.RunContext(ctx, nil)
}

func (b *stubBackend) Scenarios() []scenario.Spec  { return b.scenarios() }
func (b *stubBackend) Workloads() []registry.Entry { return registry.All() }
func (b *stubBackend) IDs() []string               { return append([]string(nil), experiments.IDs...) }
func (b *stubBackend) DefaultPlatform() string     { return "baseline" }

// newTestServer mounts the full handler over the stub.
func newTestServer(t *testing.T) (*httptest.Server, *stubBackend) {
	t.Helper()
	b := &stubBackend{}
	srv := httptest.NewServer(New(Config{Backend: b}))
	t.Cleanup(srv.Close)
	return srv, b
}

// get performs one request and returns status, content type, body and the
// response headers.
func fetch(t *testing.T, srv *httptest.Server, method, path string, accept string) (int, string, string, http.Header) {
	t.Helper()
	req, err := http.NewRequest(method, srv.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body), resp.Header
}

// envelope decodes the error envelope, failing on any shape drift: the
// body must be {"error":{...}} with matching status.
func envelope(t *testing.T, body string, wantStatus int) ErrorDetail {
	t.Helper()
	var eb ErrorBody
	if err := json.Unmarshal([]byte(body), &eb); err != nil {
		t.Fatalf("error body is not the JSON envelope: %v\n%s", err, body)
	}
	if eb.Error.Status != wantStatus {
		t.Errorf("envelope status %d, want %d (%s)", eb.Error.Status, wantStatus, body)
	}
	if eb.Error.Message == "" {
		t.Errorf("envelope message empty: %s", body)
	}
	return eb.Error
}

// TestRoutesAndFormats walks every /v1 route through every selection
// mechanism (default, ?format=, Accept) and checks status plus media type.
func TestRoutesAndFormats(t *testing.T) {
	srv, _ := newTestServer(t)
	cases := []struct {
		name, path, accept string
		wantStatus         int
		wantCT             string
	}{
		{"healthz", "/healthz", "", 200, "application/json"},
		{"index", "/v1", "", 200, "application/json"},
		{"artifact index", "/v1/artifacts", "", 200, "application/json"},
		{"artifact text default", "/v1/artifacts/figure9", "", 200, "text/plain; charset=utf-8"},
		{"artifact json query", "/v1/artifacts/figure9?format=json", "", 200, "application/json"},
		{"artifact txt alias query", "/v1/artifacts/figure9?format=txt", "", 200, "text/plain; charset=utf-8"},
		{"artifact case-insensitive query", "/v1/artifacts/figure9?format=JSON", "", 200, "application/json"},
		{"artifact json accept", "/v1/artifacts/figure9", "application/json", 200, "application/json"},
		{"artifact csv accept", "/v1/artifacts/figure9", "text/csv", 200, "text/csv; charset=utf-8"},
		{"artifact accept q-params", "/v1/artifacts/figure9", "text/csv;q=0.9, application/xml", 200, "text/csv; charset=utf-8"},
		{"artifact unknown accept falls back", "/v1/artifacts/figure9", "application/xml", 200, "text/plain; charset=utf-8"},
		{"artifact accept q=0 skips a type", "/v1/artifacts/figure9", "application/json;q=0, text/csv", 200, "text/csv; charset=utf-8"},
		{"artifact accept q=0 after other params", "/v1/artifacts/figure9", "text/csv;charset=utf-8;q=0.0, application/json", 200, "application/json"},
		{"artifact accept every type refused falls back", "/v1/artifacts/figure9", "application/json; Q=0", 200, "text/plain; charset=utf-8"},
		{"artifact explicit platform", "/v1/artifacts/figure9?platform=cxl-gen5", "", 200, "text/plain; charset=utf-8"},
		{"platforms text", "/v1/platforms", "", 200, "text/plain; charset=utf-8"},
		{"platforms json", "/v1/platforms?format=json", "", 200, "application/json"},
		{"platforms csv", "/v1/platforms?format=csv", "", 200, "text/csv; charset=utf-8"},
		{"workloads text", "/v1/workloads", "", 200, "text/plain; charset=utf-8"},
		{"workloads json", "/v1/workloads?format=json", "", 200, "application/json"},
		{"workloads csv", "/v1/workloads?format=csv", "", 200, "text/csv; charset=utf-8"},
		{"sweep text", "/v1/sweep", "", 200, "text/plain; charset=utf-8"},
		{"sweep sensitivity json", "/v1/sweep?artifact=sensitivity&format=json", "", 200, "application/json"},
		{"sweep custom axis csv", "/v1/sweep?axis=frac=0.5&format=csv", "", 200, "text/csv; charset=utf-8"},
		{"sweep accept q=0 skips a type", "/v1/sweep", "text/csv;q=0, application/json", 200, "application/json"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, ct, body, _ := fetch(t, srv, http.MethodGet, tc.path, tc.accept)
			if code != tc.wantStatus || ct != tc.wantCT {
				t.Fatalf("GET %s (Accept %q) = %d %q, want %d %q\n%s",
					tc.path, tc.accept, code, ct, tc.wantStatus, tc.wantCT, body)
			}
			if body == "" {
				t.Error("empty body")
			}
		})
	}
}

// TestJSONRoundTrips checks machine formats parse back: the artifact and
// registry documents unmarshal into Docs, the index into a map.
func TestJSONRoundTrips(t *testing.T) {
	srv, _ := newTestServer(t)
	for _, path := range []string{
		"/v1/artifacts/figure9?format=json",
		"/v1/platforms?format=json",
		"/v1/workloads?format=json",
		"/v1/sweep?format=json",
	} {
		_, _, body, _ := fetch(t, srv, http.MethodGet, path, "")
		d, err := report.ParseJSON(body)
		if err != nil || d.Artifact == "" {
			t.Errorf("%s: served JSON does not parse back into a Doc: %v", path, err)
		}
		// Platform-scoped documents must stamp the *scenario* name so the
		// field round-trips through ?platform= (never the machine-config
		// name); the registry docs are platform-free.
		scoped := strings.Contains(path, "artifacts") || strings.Contains(path, "sweep")
		if scoped && d.Platform != "baseline" {
			t.Errorf("%s: platform stamped %q, want the scenario name baseline", path, d.Platform)
		}
	}
	_, _, body, _ := fetch(t, srv, http.MethodGet, "/v1", "")
	var idx map[string]any
	if err := json.Unmarshal([]byte(body), &idx); err != nil {
		t.Fatalf("index not JSON: %v", err)
	}
	for _, key := range []string{"artifacts", "platforms", "workloads", "formats", "default_platform", "routes"} {
		if _, ok := idx[key]; !ok {
			t.Errorf("index missing %q: %s", key, body)
		}
	}
}

// TestErrorEnvelope is the error-case table: every failure mode must wear
// the one JSON envelope with the right status, regardless of the
// negotiated success format.
func TestErrorEnvelope(t *testing.T) {
	srv, _ := newTestServer(t)
	oversized := "/v1/sweep?axis=lat=0:69:1&axis=bw=" + strings.TrimSuffix(strings.Repeat("1,", 60), ",")
	cases := []struct {
		name, path string
		method     string
		wantStatus int
		wantIn     string // substring of the envelope message
	}{
		{"unknown artifact", "/v1/artifacts/nope", "", 404, "unknown id"},
		{"alias id", "/v1/artifacts/fig9", "", 404, `alias: request "figure9"`},
		{"bad platform", "/v1/artifacts/figure9?platform=vapor", "", 404, "unknown scenario"},
		{"bad format", "/v1/artifacts/figure9?format=yaml", "", 400, "unknown format"},
		{"bad format on platforms", "/v1/platforms?format=yaml", "", 400, "unknown format"},
		{"bad sweep axis", "/v1/sweep?axis=bogus=1", "", 400, "unknown axis"},
		{"malformed sweep axis", "/v1/sweep?axis=lat", "", 400, "want name=v1,v2"},
		{"oversized axis range", "/v1/sweep?axis=lat=0:2000000:1", "", 400, "max 1024"},
		{"oversized grid", oversized, "", 400, "max 4096"},
		{"bad sweep artifact", "/v1/sweep?artifact=bogus", "", 400, "want sweep or sensitivity"},
		{"bad sweep platform", "/v1/sweep?platform=vapor", "", 404, "unknown scenario"},
		{"cancelled computation", "/v1/artifacts/figure5", "", 503, "engine stopped"},
		{"panic recovery", "/v1/artifacts/figure7", "", 500, "internal error"},
		{"no such v1 route", "/v1/bogus", "", 404, "no such route"},
		{"root path", "/", "", 404, "no such route"},
		{"pre-v1 artifact path", "/artifacts/figure9.json", "", 404, "no such route"},
		{"pre-v1 sweep path", "/sweep", "", 404, "no such route"},
		{"POST off the route table", "/bogus", http.MethodPost, 404, "no such route"},
		{"DELETE off the route table", "/bogus", http.MethodDelete, 404, "no such route"},
		{"POST to no such v1 route", "/v1/bogus", http.MethodPost, 404, "no such route"},
		{"DELETE to no such v1 route", "/v1/bogus", http.MethodDelete, 404, "no such route"},
		{"method not allowed", "/v1/artifacts/figure9", http.MethodPost, 405, "method POST not allowed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			method := tc.method
			if method == "" {
				method = http.MethodGet
			}
			code, ct, body, hdr := fetch(t, srv, method, tc.path, "")
			if code != tc.wantStatus {
				t.Fatalf("%s %s = %d, want %d\n%s", method, tc.path, code, tc.wantStatus, body)
			}
			// Only a route that exists advertises the methods it takes.
			if allow := hdr.Get("Allow"); (code == http.StatusMethodNotAllowed) != (allow != "") {
				t.Errorf("%s %s: Allow header %q on a %d", method, tc.path, allow, code)
			}
			if ct != "application/json" {
				t.Errorf("error content type %q, want application/json", ct)
			}
			detail := envelope(t, body, tc.wantStatus)
			if !strings.Contains(detail.Message, tc.wantIn) {
				t.Errorf("message %q does not contain %q", detail.Message, tc.wantIn)
			}
		})
	}
}

// TestFormatErrorListsFormats pins satellite contract: the format error's
// accepted spellings ride in the envelope verbatim.
func TestFormatErrorListsFormats(t *testing.T) {
	srv, _ := newTestServer(t)
	_, _, body, _ := fetch(t, srv, http.MethodGet, "/v1/artifacts/figure9?format=yaml", "")
	detail := envelope(t, body, 400)
	want := report.AcceptedFormats()
	if len(detail.Formats) != len(want) {
		t.Fatalf("formats = %v, want %v", detail.Formats, want)
	}
	for i := range want {
		if detail.Formats[i] != want[i] {
			t.Fatalf("formats = %v, want %v", detail.Formats, want)
		}
	}
}

// TestSweepMemoSeam pins where each memo lives. Campaign execution and its
// memo stay in the service, behind Backend.Sweep, which the stub does not
// memoize; the handler memoizes only the representation (ETag stem and
// gzip bytes). The cold request reaches Sweep once, and every warm request
// — identity, whose body is the gzip bytes decompressed, gzip or 304 — is
// answered from the representation and reaches it zero times.
func TestSweepMemoSeam(t *testing.T) {
	srv, b := newTestServer(t)
	var etag string
	for i := 0; i < 2; i++ {
		code, body, hdr := fetchHdr(t, srv, "/v1/sweep", identity)
		if code != 200 {
			t.Fatalf("sweep run %d = %d\n%s", i, code, body)
		}
		if i > 0 && hdr.Get("ETag") != etag {
			t.Errorf("identity ETag drifted: %q then %q", etag, hdr.Get("ETag"))
		}
		etag = hdr.Get("ETag")
	}
	if n := b.sweeps.Load(); n != 1 {
		t.Errorf("stub saw %d sweep executions for 2 identity requests, want 1 (the warm one is a representation hit)", n)
	}
	for _, hdr := range []map[string]string{
		{"Accept-Encoding": "gzip"},
		{"Accept-Encoding": "identity", "If-None-Match": etag},
		{"Accept-Encoding": "gzip", "If-None-Match": etag},
	} {
		if code, _, _ := fetchHdr(t, srv, "/v1/sweep", hdr); code != 200 && code != 304 {
			t.Fatalf("warm sweep request %v = %d", hdr, code)
		}
	}
	if n := b.sweeps.Load(); n != 1 {
		t.Errorf("stub saw %d sweep executions after warm gzip and 304 requests, want still 1", n)
	}
}
