package api

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"strings"
	"time"
)

// get restricts a route to GET/HEAD, answering anything else with a 405
// envelope (the stock ServeMux 405 is plain text, which would break the
// one-envelope contract).
func get(h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			writeError(w, http.StatusMethodNotAllowed,
				fmt.Errorf("method %s not allowed (want GET)", r.Method))
			return
		}
		h(w, r)
	})
}

// methods dispatches a route by HTTP method, answering anything not in
// the table with a 405 envelope that lists the allowed methods — the
// multi-method sibling of get for routes like /v1/jobs (GET list, POST
// submit).
func methods(table map[string]http.HandlerFunc) http.Handler {
	var allow []string
	if _, ok := table[http.MethodGet]; ok {
		allow = append(allow, http.MethodGet, http.MethodHead)
	}
	for _, m := range []string{http.MethodPost, http.MethodDelete} {
		if _, ok := table[m]; ok {
			allow = append(allow, m)
		}
	}
	allowed := strings.Join(allow, ", ")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h, ok := table[r.Method]
		if !ok && r.Method == http.MethodHead {
			h, ok = table[http.MethodGet]
		}
		if !ok {
			w.Header().Set("Allow", allowed)
			writeError(w, http.StatusMethodNotAllowed,
				fmt.Errorf("method %s not allowed (want %s)", r.Method, allowed))
			return
		}
		h(w, r)
	})
}

// statusRecorder captures the response status for the request log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(status int) {
	sr.status = status
	sr.ResponseWriter.WriteHeader(status)
}

// WriteString keeps io.WriteString's copy-free path to the connection, so
// a memoized body is never copied into a []byte on its way out.
func (sr *statusRecorder) WriteString(s string) (int, error) {
	return io.WriteString(sr.ResponseWriter, s)
}

// logging emits one line per request — method, path+query, status,
// duration — to the configured logger; a nil logger disables it.
func logging(l *log.Logger, h http.Handler) http.Handler {
	if l == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sr, r)
		l.Printf("%s %s %d %s", r.Method, r.URL.RequestURI(), sr.status, time.Since(start).Round(time.Microsecond))
	})
}

// recovery converts a handler panic into a 500 envelope instead of a
// severed connection, keeping the one-envelope contract even for bugs.
// The panic value and stack go to the standard logger so they are never
// silently swallowed.
func recovery(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				log.Printf("api: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
				writeError(w, http.StatusInternalServerError,
					fmt.Errorf("internal error: %v", v))
			}
		}()
		h.ServeHTTP(w, r)
	})
}
