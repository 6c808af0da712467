package api

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/report"
	"repro/internal/sweep"
)

// countingBackend counts the calls that produce a document: every Rendered
// and every Sweep.
type countingBackend struct {
	*stubBackend
	rendered, sweeps atomic.Int32
}

func (b *countingBackend) Rendered(ctx context.Context, platform, artifact string, f report.Format) (string, error) {
	b.rendered.Add(1)
	return b.stubBackend.Rendered(ctx, platform, artifact, f)
}

func (b *countingBackend) Sweep(ctx context.Context, g sweep.Grid) (*sweep.Campaign, error) {
	b.sweeps.Add(1)
	return b.stubBackend.Sweep(ctx, g)
}

// hit sends one request straight to the handler, with no server or client
// goroutine in the way.
func hit(h http.Handler, method, path string, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// leastAlloc returns the fewest heap bytes any of five calls of fn
// allocated. Goroutines left running by earlier tests only ever add to a
// reading, so the least one is fn's own cost.
func leastAlloc(fn func()) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestWarmHitsCallNoBackend pins the warm path of both memoized routes. A
// warm gzip or 304 request calls neither Rendered nor Sweep, and neither
// request kind nor a warm artifact identity request starts a flight: the
// Renders counter, which counts flights, stays put. A flight is the only
// place a memoized route hashes or compresses, and the allocation bound
// shows no compressor was built (a gzip.Writer alone allocates ~800 KiB).
func TestWarmHitsCallNoBackend(t *testing.T) {
	m := &Metrics{}
	b := &countingBackend{stubBackend: &stubBackend{}}
	h := New(Config{Backend: b, Metrics: m})
	calls := func() int32 { return b.rendered.Load() + b.sweeps.Load() }
	for _, path := range []string{
		"/v1/artifacts/figure9?format=json",
		"/v1/sweep?format=json&axis=lat%3D0,10",
	} {
		cold := hit(h, http.MethodGet, path, identity)
		if cold.Code != 200 {
			t.Fatalf("cold GET %s = %d", path, cold.Code)
		}
		etag := cold.Header().Get("ETag")
		renders, before := m.Renders.Load(), calls()
		warm := []map[string]string{
			{"Accept-Encoding": "gzip"},
			{"Accept-Encoding": "identity", "If-None-Match": etag},
			{"Accept-Encoding": "gzip", "If-None-Match": etag},
		}
		for _, hdr := range warm {
			if rec := hit(h, http.MethodGet, path, hdr); rec.Code != 200 && rec.Code != 304 {
				t.Fatalf("warm GET %s %v = %d", path, hdr, rec.Code)
			}
		}
		if got := calls() - before; got != 0 {
			t.Errorf("%s: warm gzip and 304 requests made %d backend calls, want 0", path, got)
		}
		if got := m.Renders.Load() - renders; got != 0 {
			t.Errorf("%s: warm gzip and 304 requests started %d flights, want 0", path, got)
		}
		for _, hdr := range warm {
			if got := leastAlloc(func() { hit(h, http.MethodGet, path, hdr) }); got > 64<<10 {
				t.Errorf("%s %v: a warm request allocated %d bytes, want under 64 KiB (no compressor)", path, hdr, got)
			}
		}
	}

	// A warm artifact identity 200 reads the store's string (one Rendered
	// call) and serves it without a flight.
	const art = "/v1/artifacts/figure9?format=json"
	renders, rendered := m.Renders.Load(), b.rendered.Load()
	if rec := hit(h, http.MethodGet, art, identity); rec.Code != 200 || rec.Body.Len() == 0 {
		t.Fatalf("warm identity GET %s = %d with %d bytes", art, rec.Code, rec.Body.Len())
	}
	if m.Renders.Load() != renders || b.rendered.Load() != rendered+1 {
		t.Errorf("warm identity GET: %d flights and %d Rendered calls, want 0 and 1",
			m.Renders.Load()-renders, b.rendered.Load()-rendered)
	}
}

// TestSweepMemoBounded sends more distinct grids than the cap through
// /v1/sweep: the memo keeps at most maxSweepReps sweep entries, none with
// its identity body, evicts the oldest first, and leaves artifact entries
// alone.
func TestSweepMemoBounded(t *testing.T) {
	b := &countingBackend{stubBackend: &stubBackend{}}
	s := New(Config{Backend: b}).(*server)
	if rec := hit(s, http.MethodGet, "/v1/artifacts/figure9", identity); rec.Code != 200 {
		t.Fatalf("artifact GET = %d", rec.Code)
	}
	path := func(i int) string { return fmt.Sprintf("/v1/sweep?format=json&axis=lat%%3D%d", i) }
	const grids = maxSweepReps + 8
	for i := 0; i < grids; i++ {
		if rec := hit(s, http.MethodGet, path(i), identity); rec.Code != 200 {
			t.Fatalf("GET %s = %d\n%s", path(i), rec.Code, rec.Body)
		}
	}
	s.flights.mu.Lock()
	entries, sweeps := len(s.flights.reps), len(s.flights.sweeps)
	for key, rp := range s.flights.reps {
		if key.grid != "" && rp.body != "" {
			t.Errorf("sweep entry %v keeps its %d-byte identity body, want only the stem and gzip bytes", key, len(rp.body))
		}
	}
	s.flights.mu.Unlock()
	if sweeps != maxSweepReps || entries != maxSweepReps+1 {
		t.Fatalf("after %d grids: %d sweep entries and %d entries in all, want %d and %d (the artifact's kept)",
			grids, sweeps, entries, maxSweepReps, maxSweepReps+1)
	}
	gz := map[string]string{"Accept-Encoding": "gzip"}
	before := b.sweeps.Load()
	hit(s, http.MethodGet, path(grids-1), gz)
	if b.sweeps.Load() != before {
		t.Error("the newest grid's gzip request reached Sweep, want a memo hit")
	}
	hit(s, http.MethodGet, path(0), gz)
	if b.sweeps.Load() != before+1 {
		t.Error("the oldest grid's gzip request did not reach Sweep, want it evicted")
	}
}

// TestHeadMatchesGet checks that HEAD on a memoized representation, cold or
// warm, answers with exactly the headers GET does, Content-Length
// included.
func TestHeadMatchesGet(t *testing.T) {
	srv, _ := newTestServer(t)
	do := func(method, path string, hdr map[string]string) (int, http.Header) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, nil)
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
		resp.Body.Close()
		resp.Header.Del("Date")
		return resp.StatusCode, resp.Header
	}
	for _, path := range []string{"/v1/artifacts/figure9?format=csv", "/v1/sweep?axis=lat%3D0,10"} {
		headCold, coldHdr := do(http.MethodHead, path, identity)
		_, getHdr := do(http.MethodGet, path, identity)
		etag := getHdr.Get("ETag")
		if headCold != 200 || fmt.Sprint(coldHdr) != fmt.Sprint(getHdr) {
			t.Errorf("cold HEAD %s = %d %v, want GET's 200 %v", path, headCold, coldHdr, getHdr)
		}
		for _, hdr := range []map[string]string{
			identity,
			{"Accept-Encoding": "gzip"},
			{"Accept-Encoding": "identity", "If-None-Match": etag},
			{"Accept-Encoding": "gzip", "If-None-Match": etag},
		} {
			getCode, getHdr := do(http.MethodGet, path, hdr)
			headCode, headHdr := do(http.MethodHead, path, hdr)
			if getCode != headCode || fmt.Sprint(getHdr) != fmt.Sprint(headHdr) {
				t.Errorf("%s %v: HEAD = %d %v, GET = %d %v", path, hdr, headCode, headHdr, getCode, getHdr)
			}
			if getCode == 200 && getHdr.Get("Content-Length") == "" {
				t.Errorf("%s %v: 200 without Content-Length", path, hdr)
			}
		}
	}
}

// TestMemoConcurrentMix runs warm hits, cold misses and sweep-entry
// evictions against one handler from several goroutines at once, so the
// race detector sees the memo read, written and trimmed concurrently.
// Every response must be a 200 or a 304, and every identity body must
// equal the first one served for its path.
func TestMemoConcurrentMix(t *testing.T) {
	h := New(Config{Backend: &stubBackend{}})
	const workers, grids = 4, maxSweepReps/2 + 8
	var wg sync.WaitGroup
	var bodies sync.Map
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < grids; i++ {
				for _, path := range []string{
					"/v1/artifacts/figure9?format=json",
					fmt.Sprintf("/v1/sweep?format=json&axis=lat%%3D%d", w*grids+i),
					fmt.Sprintf("/v1/sweep?format=json&axis=lat%%3D%d", i),
				} {
					for _, hdr := range []map[string]string{identity, {"Accept-Encoding": "gzip"}, {"If-None-Match": "*"}} {
						rec := hit(h, http.MethodGet, path, hdr)
						if rec.Code != 200 && rec.Code != 304 {
							t.Errorf("GET %s %v = %d", path, hdr, rec.Code)
							return
						}
						if hdr["Accept-Encoding"] == "identity" {
							if first, _ := bodies.LoadOrStore(path, rec.Body.String()); first != rec.Body.String() {
								t.Errorf("GET %s served two different identity bodies", path)
							}
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
