package api

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/report"
	"repro/internal/sweep"
)

// newMetricsServer is newTestServer with the serving state exposed: the
// caller supplies the Backend, the counter set and the readiness probe, so
// the caching tests can inspect what the middleware counted.
func newMetricsServer(t *testing.T, b Backend, m *Metrics, ready func() bool) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(New(Config{Backend: b, Metrics: m, Ready: ready}))
	t.Cleanup(srv.Close)
	return srv
}

// fetchHdr performs one GET with explicit headers. Setting Accept-Encoding
// by hand also disables the transport's transparent gzip, so the test sees
// the raw bytes and Content-Encoding the server actually produced.
func fetchHdr(t *testing.T, srv *httptest.Server, path string, hdr map[string]string) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, srv.URL+path, nil)
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
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

// identity pins the identity encoding (no transport auto-gzip either).
var identity = map[string]string{"Accept-Encoding": "identity"}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestConditionalRequests walks the ETag contract on a /v1 artifact route:
// stable strong validators, 304s with empty bodies that keep their
// caching headers, weak and wildcard and cross-encoding revalidation, and
// full 200s for stale tags.
func TestConditionalRequests(t *testing.T) {
	m := &Metrics{}
	srv := newMetricsServer(t, &stubBackend{}, m, nil)
	const path = "/v1/artifacts/figure9"

	code, body, hdr := fetchHdr(t, srv, path, identity)
	if code != 200 || len(body) == 0 {
		t.Fatalf("GET %s = %d (%d bytes), want a full 200", path, code, len(body))
	}
	etag := hdr.Get("ETag")
	if !strings.HasPrefix(etag, `"`) || !strings.HasSuffix(etag, `"`) || strings.Contains(etag, "gzip") {
		t.Fatalf("identity ETag = %q, want a quoted strong tag without the gzip variant suffix", etag)
	}
	if cc := hdr.Get("Cache-Control"); !strings.Contains(cc, "public") || !strings.Contains(cc, "max-age") {
		t.Errorf("Cache-Control = %q, want public with a max-age", cc)
	}
	if v := hdr.Get("Vary"); v != "Accept, Accept-Encoding" {
		t.Errorf("Vary = %q, want \"Accept, Accept-Encoding\"", v)
	}

	// Same representation, same tag: the validator is stable across
	// requests, which is what makes caches useful at all.
	_, body2, hdr2 := fetchHdr(t, srv, path, identity)
	if hdr2.Get("ETag") != etag || string(body2) != string(body) {
		t.Fatalf("second GET drifted: ETag %q vs %q", hdr2.Get("ETag"), etag)
	}

	stem := strings.Trim(etag, `"`)
	revalidations := []struct {
		name, inm string
	}{
		{"exact tag", etag},
		{"weak-prefixed tag", "W/" + etag},
		{"wildcard", "*"},
		{"tag in a list", `"bogus", ` + etag},
		{"gzip variant tag", `"` + stem + `-gzip"`},
	}
	for _, tc := range revalidations {
		t.Run(tc.name, func(t *testing.T) {
			code, body, hdr := fetchHdr(t, srv, path, map[string]string{
				"Accept-Encoding": "identity",
				"If-None-Match":   tc.inm,
			})
			if code != 304 {
				t.Fatalf("If-None-Match %q = %d, want 304", tc.inm, code)
			}
			if len(body) != 0 {
				t.Errorf("304 carried %d body bytes, want none", len(body))
			}
			if hdr.Get("ETag") != etag {
				t.Errorf("304 ETag = %q, want %q", hdr.Get("ETag"), etag)
			}
			if hdr.Get("Cache-Control") == "" || hdr.Get("Content-Type") != "" {
				t.Errorf("304 headers: Cache-Control %q, Content-Type %q — want caching headers kept, media type dropped",
					hdr.Get("Cache-Control"), hdr.Get("Content-Type"))
			}
		})
	}

	// A tag that matches nothing gets the full body back.
	code, body3, _ := fetchHdr(t, srv, path, map[string]string{
		"Accept-Encoding": "identity",
		"If-None-Match":   `"0000000000000000"`,
	})
	if code != 200 || string(body3) != string(body) {
		t.Fatalf("stale If-None-Match = %d, want the full 200 body back", code)
	}
	if got := m.NotModified.Load(); got != int64(len(revalidations)) {
		t.Errorf("not_modified counter = %d, want %d", got, len(revalidations))
	}

	// Different representations never share a tag: json vs text.
	_, _, jhdr := fetchHdr(t, srv, path+"?format=json", identity)
	if jhdr.Get("ETag") == etag {
		t.Errorf("json and text served the same ETag %q", etag)
	}
}

// TestGzipRoundTrip checks the negotiated gzip representation: tagged with
// the -gzip variant, byte-identical to the identity body after
// decompression, and declined when the client zeroes it out.
func TestGzipRoundTrip(t *testing.T) {
	m := &Metrics{}
	srv := newMetricsServer(t, &stubBackend{}, m, nil)
	const path = "/v1/artifacts/figure9?format=json"

	_, plain, phdr := fetchHdr(t, srv, path, identity)
	code, packed, hdr := fetchHdr(t, srv, path, map[string]string{"Accept-Encoding": "gzip"})
	if code != 200 || hdr.Get("Content-Encoding") != "gzip" {
		t.Fatalf("gzip GET = %d, Content-Encoding %q", code, hdr.Get("Content-Encoding"))
	}
	if !strings.HasSuffix(hdr.Get("ETag"), `-gzip"`) {
		t.Errorf("gzip ETag = %q, want the -gzip variant", hdr.Get("ETag"))
	}
	if want := `"` + strings.Trim(phdr.Get("ETag"), `"`) + `-gzip"`; hdr.Get("ETag") != want {
		t.Errorf("gzip ETag = %q, want %q (same stem as the identity tag)", hdr.Get("ETag"), want)
	}
	zr, err := gzip.NewReader(strings.NewReader(string(packed)))
	if err != nil {
		t.Fatalf("body is not gzip: %v", err)
	}
	unpacked, err := io.ReadAll(zr)
	if err != nil || string(unpacked) != string(plain) {
		t.Fatalf("gzip round-trip mismatch (err %v): %d bytes vs %d identity bytes", err, len(unpacked), len(plain))
	}
	if m.Gzipped.Load() != 1 {
		t.Errorf("gzipped counter = %d, want 1", m.Gzipped.Load())
	}

	// gzip;q=0 is an explicit refusal.
	_, body, hdr := fetchHdr(t, srv, path, map[string]string{"Accept-Encoding": "gzip;q=0"})
	if hdr.Get("Content-Encoding") != "" || string(body) != string(plain) {
		t.Errorf("gzip;q=0 still served Content-Encoding %q", hdr.Get("Content-Encoding"))
	}
}

// TestErrorsUncacheable pins the negative space of the caching policy:
// no failure — on a data route or off the route table — ever carries a
// validator or a cacheable Cache-Control.
func TestErrorsUncacheable(t *testing.T) {
	srv := newMetricsServer(t, &stubBackend{}, nil, nil)
	paths := []struct {
		name, path string
		wantStatus int
	}{
		{"unknown artifact", "/v1/artifacts/nope", 404},
		{"bad format", "/v1/artifacts/figure9?format=yaml", 400},
		{"bad platform", "/v1/artifacts/figure9?platform=vapor", 404},
		{"cancelled computation", "/v1/artifacts/figure5", 503},
		{"panic recovery", "/v1/artifacts/figure7", 500},
		{"pre-v1 artifact path", "/artifacts/figure9.json", 404},
		{"bad sweep axis", "/v1/sweep?axis=bogus=1", 400},
	}
	for _, tc := range paths {
		t.Run(tc.name, func(t *testing.T) {
			code, _, hdr := fetchHdr(t, srv, tc.path, identity)
			if code != tc.wantStatus {
				t.Fatalf("GET %s = %d, want %d", tc.path, code, tc.wantStatus)
			}
			if et := hdr.Get("ETag"); et != "" {
				t.Errorf("error response carries ETag %q", et)
			}
			if cc := hdr.Get("Cache-Control"); cc != "no-store" {
				t.Errorf("error Cache-Control = %q, want no-store", cc)
			}
		})
	}
}

// TestHealthzReadiness checks the probe's two roles: always-200 liveness,
// and a ready field tracking the warm.
func TestHealthzReadiness(t *testing.T) {
	var ready atomic.Bool
	srv := newMetricsServer(t, &stubBackend{}, nil, ready.Load)
	probe := func() (int, bool) {
		code, body, hdr := fetchHdr(t, srv, "/healthz", nil)
		if hdr.Get("Cache-Control") != "no-store" {
			t.Errorf("healthz Cache-Control = %q, want no-store", hdr.Get("Cache-Control"))
		}
		var got struct {
			Status string `json:"status"`
			Ready  bool   `json:"ready"`
		}
		if err := json.Unmarshal(body, &got); err != nil || got.Status != "ok" {
			t.Fatalf("healthz body %q: %v", body, err)
		}
		return code, got.Ready
	}
	if code, r := probe(); code != 200 || r {
		t.Fatalf("cold healthz = %d ready=%v, want 200 ready=false (live but not warm)", code, r)
	}
	ready.Store(true)
	if code, r := probe(); code != 200 || !r {
		t.Fatalf("warm healthz = %d ready=%v, want 200 ready=true", code, r)
	}
}

// TestStatsRoute checks /v1/stats serves the counter snapshot perfbench's
// warm-http diffs: every key present, request counting live.
func TestStatsRoute(t *testing.T) {
	m := &Metrics{}
	srv := newMetricsServer(t, &stubBackend{}, m, nil)
	fetchHdr(t, srv, "/v1/artifacts/figure9", identity)
	_, body, hdr := fetchHdr(t, srv, "/v1/stats", nil)
	if hdr.Get("Cache-Control") != "no-store" {
		t.Errorf("stats Cache-Control = %q, want no-store", hdr.Get("Cache-Control"))
	}
	var snap map[string]int64
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("stats not JSON: %v\n%s", err, body)
	}
	for _, key := range []string{"requests", "renders", "coalesced", "not_modified", "gzipped"} {
		if _, ok := snap[key]; !ok {
			t.Errorf("stats missing %q: %s", key, body)
		}
	}
	if snap["requests"] < 2 || snap["renders"] < 1 {
		t.Errorf("stats = %v, want at least the artifact request counted", snap)
	}
}

// TestStatsProfileCacheKeys checks the profile-cache hook merges into the
// stats snapshot as flat int64 keys — the shape perfbench and the CI smoke
// decode — and that an unwired hook leaves the snapshot unchanged.
func TestStatsProfileCacheKeys(t *testing.T) {
	h := New(Config{
		Backend: &stubBackend{},
		ProfileCache: func() (hits, misses, joins int64) {
			return 5, 3, 1
		},
	})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	_, body, _ := fetchHdr(t, srv, "/v1/stats", nil)
	var snap map[string]int64
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("stats not a flat map[string]int64: %v\n%s", err, body)
	}
	if snap["profile_hits"] != 5 || snap["profile_misses"] != 3 || snap["profile_joins"] != 1 {
		t.Errorf("profile keys = %v, want hits=5 misses=3 joins=1", snap)
	}
}

// slowBackend gates one artifact's render so the coalescing tests can hold
// N requests in flight, then counts how many times the backend actually
// ran.
type slowBackend struct {
	*stubBackend
	gate  chan struct{}
	calls atomic.Int32
}

func (b *slowBackend) Rendered(ctx context.Context, platform, artifact string, f report.Format) (string, error) {
	if artifact == "figure13" {
		b.calls.Add(1)
		select {
		case <-b.gate:
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
	return b.stubBackend.Rendered(ctx, platform, artifact, f)
}

// TestCoalescedRenders races N concurrent cache-miss requests for one
// (platform, artifact, format) key and asserts exactly one backend render:
// one flight lead, N-1 coalesced joins, identical bodies all around. The
// implicit-default and explicit ?platform= spellings must land on the same
// flight. Run with -race.
func TestCoalescedRenders(t *testing.T) {
	m := &Metrics{}
	b := &slowBackend{stubBackend: &stubBackend{}, gate: make(chan struct{})}
	srv := newMetricsServer(t, b, m, nil)
	const n = 8
	var wg sync.WaitGroup
	codes := make([]int, n)
	bodies := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := "/v1/artifacts/figure13"
			if i%2 == 1 {
				// Half the callers name the default platform explicitly:
				// the flight key must normalize both spellings together.
				path += "?platform=baseline"
			}
			codes[i], bodies[i], _ = func() (int, string, http.Header) {
				code, body, hdr := fetchHdr(t, srv, path, identity)
				return code, string(body), hdr
			}()
		}(i)
	}
	waitFor(t, "all requests to share one flight", func() bool {
		return m.Reps.Misses.Load() == 1 && m.Reps.Joins.Load() == n-1
	})
	close(b.gate)
	wg.Wait()
	if got := b.calls.Load(); got != 1 {
		t.Fatalf("backend rendered %d times for %d concurrent requests, want exactly 1", got, n)
	}
	for i := 0; i < n; i++ {
		if codes[i] != 200 || bodies[i] != bodies[0] {
			t.Errorf("request %d: status %d, body drift %v", i, codes[i], bodies[i] != bodies[0])
		}
	}
}

// slowSweepBackend gates campaign execution so the sweep-coalescing test
// can hold N requests in one flight, then counts real executions.
type slowSweepBackend struct {
	*stubBackend
	gate  chan struct{}
	calls atomic.Int32
}

func (b *slowSweepBackend) Sweep(ctx context.Context, g sweep.Grid) (*sweep.Campaign, error) {
	b.calls.Add(1)
	select {
	case <-b.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return b.stubBackend.Sweep(ctx, g)
}

// TestSweepCoalescing races concurrent /v1/sweep cache-miss requests whose
// query spellings alias — a lo:hi:step range against its expanded value
// list, the implicit default platform against the explicit name — and
// asserts they all land on one canonical-grid flight: exactly one campaign
// executes, every response is byte-identical with one shared ETag. Run
// with -race.
func TestSweepCoalescing(t *testing.T) {
	m := &Metrics{}
	b := &slowSweepBackend{stubBackend: &stubBackend{}, gate: make(chan struct{})}
	srv := newMetricsServer(t, b, m, nil)
	// Four spellings of one campaign: the canonical grid key normalizes
	// the axis declaration, the handler normalizes the platform.
	paths := []string{
		"/v1/sweep?axis=lat%3D0:20:10",
		"/v1/sweep?axis=lat%3D0,10,20",
		"/v1/sweep?axis=lat%3D0:20:10&platform=baseline",
		"/v1/sweep?axis=lat%3D0,10,20&platform=baseline",
	}
	n := len(paths)
	var wg sync.WaitGroup
	codes := make([]int, n)
	bodies := make([]string, n)
	etags := make([]string, n)
	for i, path := range paths {
		wg.Add(1)
		go func(i int, path string) {
			defer wg.Done()
			code, body, hdr := fetchHdr(t, srv, path, identity)
			codes[i], bodies[i], etags[i] = code, string(body), hdr.Get("ETag")
		}(i, path)
	}
	waitFor(t, "all sweep spellings to share one flight", func() bool {
		return m.Reps.Misses.Load() == 1 && m.Reps.Joins.Load() == int64(n-1)
	})
	close(b.gate)
	wg.Wait()
	if got := b.calls.Load(); got != 1 {
		t.Fatalf("backend executed %d campaigns for %d aliased requests, want exactly 1", got, n)
	}
	for i := range paths {
		if codes[i] != 200 || bodies[i] != bodies[0] || etags[i] != etags[0] {
			t.Errorf("spelling %q: status %d, body drift %v, ETag %q vs %q",
				paths[i], codes[i], bodies[i] != bodies[0], etags[i], etags[0])
		}
	}
	// The oversize guard sits on this synchronous surface only: a grid
	// past the cap answers 400 with a pointer at the job surface.
	code, body, _ := fetchHdr(t, srv, "/v1/sweep?axis=lat%3D0:1000:1&axis=bw%3D1,2,3,4,5", identity)
	if code != 400 || !strings.Contains(string(body), "jobs") {
		t.Errorf("oversized sync sweep = %d: %s", code, firstN(string(body), 160))
	}
}
