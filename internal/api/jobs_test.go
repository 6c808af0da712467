package api

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
)

// postJob submits a JobRequest body and returns status, body and headers.
func postJob(t *testing.T, srv *httptest.Server, body string) (int, string, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(out), resp.Header
}

// TestJobRoutes drives one campaign job across the whole HTTP surface:
// POST answers 202 with a Location, the status route reports progress
// until done, the events route streams NDJSON lines, and the artifact
// route serves the rendered results.
func TestJobRoutes(t *testing.T) {
	srv, _ := newTestServer(t)

	status, body, hdr := postJob(t, srv, `{"axes":["gen=0,5"]}`)
	if status != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs = %d: %s", status, body)
	}
	var rec jobs.Record
	if err := json.Unmarshal([]byte(body), &rec); err != nil {
		t.Fatalf("submit body %q: %v", body, err)
	}
	loc := hdr.Get("Location")
	if loc != "/v1/jobs/"+rec.ID || rec.ID == "" {
		t.Fatalf("Location = %q for job %q", loc, rec.ID)
	}
	if hdr.Get("Cache-Control") != "no-store" {
		t.Errorf("submit Cache-Control = %q, want no-store", hdr.Get("Cache-Control"))
	}

	// Poll the status route to done.
	deadline := time.Now().Add(time.Minute)
	for {
		st, _, b, _ := fetch(t, srv, http.MethodGet, loc, "")
		if st != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", loc, st, b)
		}
		if err := json.Unmarshal([]byte(b), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.State == jobs.StateDone {
			break
		}
		if rec.State != jobs.StateRunning || time.Now().After(deadline) {
			t.Fatalf("job state = %s (%d/%d), want running→done", rec.State, rec.Done, rec.Total)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if rec.Done != rec.Total || rec.Total != 3 { // (2 cells + base) × 1 workload
		t.Errorf("done job %d/%d tasks, want 3/3", rec.Done, rec.Total)
	}

	// The listing shows the job.
	st, ct, b, _ := fetch(t, srv, http.MethodGet, "/v1/jobs", "")
	if st != http.StatusOK || !strings.Contains(b, rec.ID) || !strings.HasPrefix(ct, "application/json") {
		t.Errorf("GET /v1/jobs = %d %s: %s", st, ct, firstN(b, 120))
	}

	// Events: NDJSON, submitted → cell… → done.
	st, ct, b, ehdr := fetch(t, srv, http.MethodGet, loc+"/events", "")
	if st != http.StatusOK || ct != "application/x-ndjson" || ehdr.Get("Cache-Control") != "no-store" {
		t.Fatalf("GET events = %d %s (Cache-Control %q)", st, ct, ehdr.Get("Cache-Control"))
	}
	lines := strings.Split(strings.TrimSpace(b), "\n")
	if len(lines) != 5 { // submitted + 3 cells + done
		t.Fatalf("event log has %d lines: %s", len(lines), b)
	}
	var first, last jobs.Event
	if json.Unmarshal([]byte(lines[0]), &first) != nil || json.Unmarshal([]byte(lines[len(lines)-1]), &last) != nil {
		t.Fatalf("event lines do not parse: %s", b)
	}
	if first.Event != "submitted" || last.Event != "done" {
		t.Errorf("event log spans %s…%s, want submitted…done", first.Event, last.Event)
	}

	// Artifacts: text by default, csv via ?format=; the route is cacheable
	// (done artifacts are immutable).
	st, ct, b, ahdr := fetch(t, srv, http.MethodGet, loc+"/artifacts/sweep", "")
	if st != http.StatusOK || !strings.HasPrefix(ct, "text/plain") || !strings.Contains(b, "Campaign grid") {
		t.Errorf("GET sweep artifact = %d %s: %s", st, ct, firstN(b, 120))
	}
	if ahdr.Get("ETag") == "" || !strings.HasPrefix(ahdr.Get("Cache-Control"), "public") {
		t.Errorf("artifact route not cacheable: ETag %q, Cache-Control %q", ahdr.Get("ETag"), ahdr.Get("Cache-Control"))
	}
	st, ct, b, _ = fetch(t, srv, http.MethodGet, loc+"/artifacts/sensitivity?format=csv", "")
	if st != http.StatusOK || !strings.HasPrefix(ct, "text/csv") || !strings.Contains(b, ",") {
		t.Errorf("GET sensitivity csv = %d %s: %s", st, ct, firstN(b, 120))
	}

	// Resubmitting the identical declaration re-attaches (same id), and a
	// {"id": ...} body resumes explicitly — both 202 on the same resource.
	if st, b, h := postJob(t, srv, `{"axes":["gen=0,5"]}`); st != http.StatusAccepted || h.Get("Location") != loc {
		t.Errorf("resubmit = %d Location %q: %s", st, h.Get("Location"), firstN(b, 120))
	}
	if st, b, h := postJob(t, srv, `{"id":"`+rec.ID+`"}`); st != http.StatusAccepted || h.Get("Location") != loc {
		t.Errorf("resume by id = %d Location %q: %s", st, h.Get("Location"), firstN(b, 120))
	}
}

// TestJobRouteErrors pins the error envelope across the job surface:
// unknown ids and unknown artifacts are 404s, artifacts of unfinished jobs
// 409s, malformed declarations 400s, and wrong methods 405s — all in the
// one envelope.
func TestJobRouteErrors(t *testing.T) {
	srv, backend := newTestServer(t)

	st, _, b, _ := fetch(t, srv, http.MethodGet, "/v1/jobs/feedfeedfeedfeed", "")
	envelope(t, b, st)
	if st != http.StatusNotFound {
		t.Errorf("GET unknown job = %d, want 404", st)
	}
	st, _, b, _ = fetch(t, srv, http.MethodDelete, "/v1/jobs/feedfeedfeedfeed", "")
	envelope(t, b, st)
	if st != http.StatusNotFound {
		t.Errorf("DELETE unknown job = %d, want 404", st)
	}

	// An artifact name other than sweep and sensitivity is a 404 on a done
	// job.
	st, b, _ = postJob(t, srv, `{"axes":["gen=0,5"]}`)
	var done jobs.Record
	if err := json.Unmarshal([]byte(b), &done); err != nil || st != http.StatusAccepted {
		t.Fatalf("POST job = %d: %s", st, b)
	}
	if rec, err := backend.manager().Wait(context.Background(), done.ID); err != nil || rec.State != jobs.StateDone {
		t.Fatalf("job %s ended %s: %v", done.ID, rec.State, err)
	}
	st, _, b, _ = fetch(t, srv, http.MethodGet, "/v1/jobs/"+done.ID+"/artifacts/bogus", "")
	envelope(t, b, st)
	if st != http.StatusNotFound {
		t.Errorf("GET unknown artifact of a done job = %d, want 404", st)
	}

	// Malformed declarations: bad JSON, bad axis, resume+declaration mix,
	// fields the request does not know (the /v1/sweep query spelling, a
	// run count), which the answer names, and trailing data.
	for _, c := range []struct{ body, names string }{
		{`{not json`, ""},
		{`{"axes":["volts=1,2"]}`, ""},
		{`{"id":"x","axes":["gen=0"]}`, ""},
		{`{"axis":["gen=0,5"]}`, `\"axis\"`},
		{`{"axes":["gen=0"],"runs":5}`, `\"runs\"`},
		{`{"axes":["gen=0"]} {}`, ""},
	} {
		st, b, _ := postJob(t, srv, c.body)
		envelope(t, b, st)
		if st != http.StatusBadRequest || !strings.Contains(b, c.names) {
			t.Errorf("POST %s = %d %s, want 400 naming %s", c.body, st, b, c.names)
		}
	}

	// Wrong method keeps the envelope and advertises the allowed set.
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/jobs", nil)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	envelope(t, string(out), resp.StatusCode)
	if resp.StatusCode != http.StatusMethodNotAllowed || !strings.Contains(resp.Header.Get("Allow"), "POST") {
		t.Errorf("PUT /v1/jobs = %d Allow %q, want 405 with POST", resp.StatusCode, resp.Header.Get("Allow"))
	}

	// A slow job's artifact is a 409 (conflict: not done yet), and DELETE
	// cancels it.
	st, b2, hdr := postJob(t, srv, `{"axes":["lat=0:400:10"]}`)
	if st != http.StatusAccepted {
		t.Fatalf("POST slow job = %d: %s", st, b2)
	}
	loc := hdr.Get("Location")
	st, _, b, _ = fetch(t, srv, http.MethodGet, loc+"/artifacts/sweep", "")
	if st == http.StatusOK {
		t.Skip("campaign finished before the conflict check; machine too fast")
	}
	envelope(t, b, st)
	if st != http.StatusConflict {
		t.Errorf("artifact of running job = %d, want 409", st)
	}
	st, _, b, _ = fetch(t, srv, http.MethodDelete, loc, "")
	if st != http.StatusOK {
		t.Fatalf("DELETE running job = %d: %s", st, b)
	}
	var rec jobs.Record
	if err := json.Unmarshal([]byte(b), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.State != jobs.StateCancelled && rec.State != jobs.StateDone {
		t.Errorf("cancelled job state = %s", rec.State)
	}
}

func firstN(s string, n int) string {
	if len(s) > n {
		return s[:n] + "…"
	}
	return s
}
