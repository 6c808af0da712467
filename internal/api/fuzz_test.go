package api

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"repro/internal/sweep"
)

// fuzzRoutes are the cacheable routes FuzzServeNegotiation picks from.
var fuzzRoutes = []string{
	"/v1/artifacts/figure9",
	"/v1/sweep",
	"/v1/sweep?artifact=sensitivity",
	"/v1/platforms",
}

// fuzzMaxAxisValues keeps each input's campaign small: a new capacity
// fraction costs a workload execution, and the synchronous cap (4096
// cells) is far beyond what one axis can declare anyway.
const fuzzMaxAxisValues = 8

// FuzzServeNegotiation drives the negotiation surface — Accept,
// Accept-Encoding, If-None-Match, ?format= and ?axis= — against the stub
// backend through one handler, so later inputs also hit the warm memo.
// Every answer must be a 200, a 304 or a 4xx in the JSON envelope, never a
// 500 or a panic; a gzip 200 must gunzip to the identity body, under the
// identity ETag's stem plus -gzip.
func FuzzServeNegotiation(f *testing.F) {
	f.Add(uint8(0), "", "", "", "", "")
	f.Add(uint8(0), "json", "", "", "gzip", "")
	f.Add(uint8(0), "", "", "application/json;q=0, text/csv", "gzip;q=0, identity", `W/"0000000000000000"`)
	f.Add(uint8(1), "json", "lat=0,10", "", "gzip", "")
	f.Add(uint8(1), "", "lat=0:20:10", "text/csv;q=0.5", "x-gzip;q=1", "*")
	f.Add(uint8(2), "CSV", "gen=0,5", "", "deflate, gzip", `"bogus", W/"x"`)
	f.Add(uint8(1), "txt", "bogus=1", "application/json", "", "")
	f.Add(uint8(3), "yaml", "", "text/plain;q=0", "gzip", "")
	h := New(Config{Backend: &stubBackend{}})
	f.Fuzz(func(t *testing.T, route uint8, format, axis, accept, encoding, inm string) {
		path := fuzzRoutes[int(route)%len(fuzzRoutes)]
		u, err := url.Parse(path)
		if err != nil {
			t.Fatal(err)
		}
		q := u.Query()
		if format != "" {
			q.Set("format", format)
		}
		if axis != "" {
			if ax, err := sweep.ParseAxis(axis); err == nil && len(ax.Values) > fuzzMaxAxisValues {
				return
			}
			q.Set("axis", axis)
		}
		u.RawQuery = q.Encode()
		target := u.String()

		rec := hit(h, http.MethodGet, target, map[string]string{
			"Accept":          accept,
			"Accept-Encoding": encoding,
			"If-None-Match":   inm,
		})
		switch {
		case rec.Code == http.StatusOK, rec.Code == http.StatusNotModified:
		case rec.Code >= 400 && rec.Code < 500:
			var eb ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error.Status != rec.Code || eb.Error.Message == "" {
				t.Fatalf("GET %s: %d is not the JSON envelope (%v): %q", target, rec.Code, err, rec.Body)
			}
			return
		default:
			t.Fatalf("GET %s (Accept %q, Accept-Encoding %q, If-None-Match %q) = %d: %q",
				target, accept, encoding, inm, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Encoding") != "gzip" {
			return
		}
		plain := hit(h, http.MethodGet, target, map[string]string{"Accept": accept, "Accept-Encoding": "identity"})
		if plain.Code != http.StatusOK {
			t.Fatalf("identity GET %s = %d after its gzip 200", target, plain.Code)
		}
		if want := strings.TrimSuffix(plain.Header().Get("ETag"), `"`) + `-gzip"`; rec.Header().Get("ETag") != want {
			t.Errorf("gzip ETag %q, want %q (the identity stem plus -gzip)", rec.Header().Get("ETag"), want)
		}
		zr, err := gzip.NewReader(rec.Body)
		if err != nil {
			t.Fatalf("gzip 200 of %s does not gunzip: %v", target, err)
		}
		body, err := io.ReadAll(zr)
		if err != nil || !bytes.Equal(body, plain.Body.Bytes()) {
			t.Fatalf("gzip 200 of %s gunzips to %d bytes (%v), want the %d identity bytes", target, len(body), err, plain.Body.Len())
		}
	})
}
