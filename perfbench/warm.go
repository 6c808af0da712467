package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/report"
)

// warm-http: a keep-alive client on loopback sends a weighted mix of
// requests to Service.Handler(), one at a time, after set-up has computed
// everything the mix asks for. Nothing executes on the emulated machine
// during the ops: the time goes to the api middleware (a SHA-256 ETag and,
// when negotiated, gzip on every 200), artifact-store lookups, and
// re-building and re-rendering the campaign document on every /v1/sweep
// request, 304s included.

// warmArtifact is the artifact the mix requests, on the default platform.
const warmArtifact = "figure13"

// warmGrids are the link-latency grids the mix sweeps. There are fewer than
// the campaign memo's 16 entries, so its eviction never runs.
var warmGrids = []string{
	"lat=0,50,100,150,200,250,300,350",
	"lat=25,75,125,175,225,275,325,375",
	"lat=10,60,110,160,210,260,310,360",
	"lat=40,90,140,190,240,290,340,390",
}

// warmKind is one request shape of the mix.
type warmKind struct {
	class string // latency class the p50/p90 check groups it in
	query string // path and query
	gzip  bool   // Accept-Encoding: gzip
	cond  bool   // If-None-Match with the expected tag; answered 304
	share int    // requests of this kind per warmBlock
	sweep bool   // a /v1/sweep request
	grid  int    // index into warmGrids for a sweep
	f     report.Format
}

// warmBlock is the number of requests each seeded permutation of the mix
// covers, so every block holds each kind exactly its share of times.
const warmBlock = 100

// warmMix weights the classes so that, sorted by latency, art_identity and
// art_304 hold ranks 0-75, art_gzip, sweep_identity and sweep_304 ranks
// 75-85 and sweep_gzip ranks 85-100. The median then falls in the dense
// body of the fast artifact requests and the 90th percentile in the body of
// sweep_gzip. A gzip body allocates a compressor, so gzip requests pay most
// of the garbage collection and art_gzip spreads over the whole sweep
// range: a percentile placed in it, or between two classes, would move far
// on a small shift of either.
func warmMix() []warmKind {
	art := "/v1/artifacts/" + warmArtifact + "?format="
	var ks []warmKind
	for _, f := range report.Formats {
		ks = append(ks, warmKind{class: "art_identity", query: art + string(f), share: 22, f: f})
	}
	ks = append(ks,
		warmKind{class: "art_304", query: art + "json", cond: true, share: 9, f: report.FormatJSON},
		warmKind{class: "art_gzip", query: art + "json", gzip: true, share: 4, f: report.FormatJSON})
	for gi, g := range warmGrids {
		q := "/v1/sweep?format=json&axis=" + url.QueryEscape(g)
		// Each class's requests per block are spread evenly over the grids.
		n := func(total int) int { return total/len(warmGrids) + btoi(gi < total%len(warmGrids)) }
		ks = append(ks,
			warmKind{class: "sweep_identity", query: q, share: n(3), sweep: true, grid: gi, f: report.FormatJSON},
			warmKind{class: "sweep_304", query: q, cond: true, share: n(3), sweep: true, grid: gi, f: report.FormatJSON},
			warmKind{class: "sweep_gzip", query: q, gzip: true, share: n(15), sweep: true, grid: gi, f: report.FormatJSON})
	}
	return ks
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

const (
	// warmMemAt is the request after which memory is sampled.
	warmMemAt = 2000
	// warmTraced is how many requests a traced run decomposes.
	warmTraced = 10 * warmBlock
)

// mixBlock lists each kind's index as often as its share: the block every
// seeded permutation of the request order covers.
func mixBlock(kinds []warmKind) []int {
	var block []int
	for i, k := range kinds {
		for j := 0; j < k.share; j++ {
			block = append(block, i)
		}
	}
	return block
}

// warmServer is a Service behind a loopback HTTP server, the client that
// talks to it, and the bytes each request kind must return.
type warmServer struct {
	svc    *repro.Service
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
	kinds  []warmKind
	reqs   []*http.Request
	want   [][]byte // identity body per kind
	body   bytes.Buffer
	// handlerNanos is the last request's time inside the handler, when
	// the server was started traced.
	handlerNanos atomic.Int64
}

// startWarm builds and warms a Service, serves its handler on loopback and
// checks one request of each kind.
func startWarm(ctx context.Context) (*warmServer, error) {
	svc, err := newService()
	if err != nil {
		return nil, err
	}
	ws := &warmServer{svc: svc, kinds: warmMix()}
	// Compute every representation the mix asks for; the expected bodies
	// come straight from the library.
	bodies := map[report.Format]string{}
	for _, f := range report.Formats {
		if bodies[f], err = svc.Rendered(ctx, repro.ArtifactRequest{Artifact: warmArtifact}, f); err != nil {
			return nil, err
		}
	}
	sweeps := make([]string, len(warmGrids))
	for i := range warmGrids {
		if sweeps[i], err = renderSweep(ctx, svc, i); err != nil {
			return nil, err
		}
	}
	for _, k := range ws.kinds {
		if k.sweep {
			ws.want = append(ws.want, []byte(sweeps[k.grid]))
		} else {
			ws.want = append(ws.want, []byte(bodies[k.f]))
		}
	}
	if err := ws.serve(svc.Handler(), false); err != nil {
		return nil, err
	}
	for i := range ws.kinds {
		if _, err := ws.do(i); err != nil {
			ws.close()
			return nil, err
		}
	}
	return ws, nil
}

// medianMS is the median latency of the samples of one class.
func medianMS(s []sample, class string) float64 {
	var xs []float64
	for _, x := range s {
		if x.class == class {
			xs = append(xs, x.ms)
		}
	}
	return median(xs)
}

// renderSweep is the sweep JSON the API must serve for a grid, built
// through the library.
func renderSweep(ctx context.Context, svc *repro.Service, grid int) (string, error) {
	_, doc, err := sweepDoc(ctx, svc, grid)
	if err != nil {
		return "", err
	}
	return report.RenderJSON(doc)
}

// sweepDoc runs (or looks up) the campaign of one of warmGrids on the
// default platform and builds its sweep document, stamped as the API
// stamps it.
func sweepDoc(ctx context.Context, svc *repro.Service, grid int) (*repro.SweepCampaign, repro.Doc, error) {
	ax, err := repro.ParseSweepAxis(warmGrids[grid])
	if err != nil {
		return nil, repro.Doc{}, err
	}
	g, err := svc.Grid("", ax)
	if err != nil {
		return nil, repro.Doc{}, err
	}
	camp, err := svc.Sweep(ctx, g)
	if err != nil {
		return nil, repro.Doc{}, err
	}
	doc := camp.Sweep()
	doc.Platform = svc.DefaultPlatform()
	return camp, doc, nil
}

// serve starts the loopback server and the keep-alive client.
func (ws *warmServer) serve(h http.Handler, traced bool) error {
	if traced {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			inner.ServeHTTP(w, r)
			ws.handlerNanos.Store(int64(time.Since(start)))
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ws.srv = &http.Server{Handler: h}
	ws.served = make(chan error, 1)
	go func() { ws.served <- ws.srv.Serve(ln) }()
	ws.base = "http://" + ln.Addr().String()
	ws.client = &http.Client{Transport: &http.Transport{DisableCompression: true, MaxIdleConnsPerHost: 1}}
	for i, k := range ws.kinds {
		req, err := http.NewRequest(http.MethodGet, ws.base+k.query, nil)
		if err != nil {
			return err
		}
		if k.gzip {
			req.Header.Set("Accept-Encoding", "gzip")
		}
		if k.cond {
			req.Header.Set("If-None-Match", etag(ws.want[i], false))
		}
		ws.reqs = append(ws.reqs, req)
	}
	return nil
}

// close stops the server and waits for it to exit.
func (ws *warmServer) close() {
	if ws.srv == nil {
		return
	}
	_ = ws.srv.Close() // closes the listener and every connection
	<-ws.served
	ws.client.CloseIdleConnections()
	ws.srv = nil
}

// etag is the strong validator the API stamps on a body: the first 16 hex
// digits of its SHA-256, quoted, with -gzip for the gzip encoding.
func etag(body []byte, gzipped bool) string {
	sum := sha256.Sum256(body)
	stem := hex.EncodeToString(sum[:8])
	if gzipped {
		return `"` + stem + `-gzip"`
	}
	return `"` + stem + `"`
}

// do sends one request of kind i and returns its latency. The check of
// the response, after the clock stops, returns an error on any mismatch.
func (ws *warmServer) do(i int) (time.Duration, error) {
	ws.body.Reset()
	start := time.Now()
	resp, err := ws.client.Do(ws.reqs[i])
	if err != nil {
		return time.Since(start), err
	}
	_, err = ws.body.ReadFrom(resp.Body)
	resp.Body.Close()
	dt := time.Since(start)
	if err != nil {
		return dt, err
	}
	return dt, ws.check(i, resp, ws.body.Bytes())
}

// check compares a response with the bytes the library rendered.
func (ws *warmServer) check(i int, resp *http.Response, body []byte) error {
	k, want := ws.kinds[i], ws.want[i]
	if tag := resp.Header.Get("ETag"); tag != etag(want, k.gzip) {
		return fmt.Errorf("%s: ETag %s, want %s", k.query, tag, etag(want, k.gzip))
	}
	if k.cond {
		if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
			return fmt.Errorf("%s: conditional request got %d with %d body bytes, want an empty 304", k.query, resp.StatusCode, len(body))
		}
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", k.query, resp.StatusCode)
	}
	if k.gzip {
		if resp.Header.Get("Content-Encoding") != "gzip" {
			return fmt.Errorf("%s: gzip negotiated but body not gzipped", k.query)
		}
		zr, err := gzip.NewReader(bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("%s: %w", k.query, err)
		}
		if body, err = io.ReadAll(zr); err != nil {
			return fmt.Errorf("%s: %w", k.query, err)
		}
	}
	if !bytes.Equal(body, want) {
		return fmt.Errorf("%s: body differs from Service.Rendered's bytes", k.query)
	}
	return nil
}

// stats reads the API's serving counters.
func (ws *warmServer) stats() (map[string]int64, error) {
	resp, err := ws.client.Get(ws.base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("/v1/stats: %w", err)
	}
	return m, nil
}

func runWarm(ctx context.Context, p params) (result, error) {
	var ws *warmServer
	defer func() {
		if ws != nil {
			ws.close()
		}
	}()
	setups, err := setup(func() error {
		if ws != nil {
			ws.close()
		}
		var err error
		ws, err = startWarm(ctx)
		return err
	})
	if err != nil {
		return result{}, err
	}
	kinds := ws.kinds
	order := newBlocks(p, warmStream, mixBlock(kinds))
	var samples []sample
	var firstErr error
	t := measure(p.seconds, warmMemAt, func(i int) (time.Duration, bool) {
		ki := order.next()
		dt, err := ws.do(ki)
		samples = append(samples, sample{class: kinds[ki].class, ms: float64(dt) / 1e6})
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return dt, err == nil
	})
	if firstErr != nil {
		fmt.Fprintf(os.Stderr, "warm-http: %v\n", firstErr)
	}
	p50class := reportClasses(samples)
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed}
	if !p.trace {
		res.Metrics = endToEndMetrics("warm-http", setups, t)
		return res, nil
	}
	traced := newBlocks(p, warmTracedStream, mixBlock(kinds))
	seq := make([]int, warmTraced)
	for i := range seq {
		seq[i] = traced.next()
	}
	vals, selfKeys, ok, err := traceWarm(ctx, p, ws, seq, p50class)
	if err != nil {
		return result{}, err
	}
	res.Metrics = perLayerMetrics("warm-http", vals, selfKeys)
	res.Correct = res.Correct && ok
	return res, nil
}

// reportClasses prints each class's share and latency quantiles and which
// class the median and the 90th percentile land in, and returns the
// median's class.
func reportClasses(samples []sample) string {
	by := map[string][]float64{}
	for _, s := range samples {
		by[s.class] = append(by[s.class], s.ms)
	}
	classes := make([]string, 0, len(by))
	for c := range by {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	parts := make([]string, len(classes))
	for i, c := range classes {
		s := sortedCopy(by[c])
		parts[i] = fmt.Sprintf("%s %.0f%% p10/p50/p90 %.3f/%.3f/%.3f ms", c, 100*float64(len(s))/float64(len(samples)),
			quantile(s, 0.1), quantile(s, 0.5), quantile(s, 0.9))
	}
	fmt.Fprintf(os.Stderr, "warm-http: classes: %s\n", strings.Join(parts, "; "))
	c50, s50 := classAt(samples, 0.5)
	c90, s90 := classAt(samples, 0.9)
	fmt.Fprintf(os.Stderr, "warm-http: p50 lands in %s (%.0f%% of its rank window), p90 in %s (%.0f%%)\n", c50, 100*s50, c90, 100*s90)
	return c50
}

// traceWarm serves seq on a fresh traced handler over the same warmed
// Service and decomposes every request: client latency minus handler time
// is http.ms; handler time minus the backend calls, repeated with the same
// inputs, is the api layer's self time.
//
// The median op is one of p50class, the class the timed phase's median
// landed in: its layers are medians over that class's traced requests.
// Blocks of requests alternate between the untraced server and the traced
// one, so the class's untraced median, which the layers must add up to, is
// measured at the same time as the layers, whatever the host does in
// between.
func traceWarm(ctx context.Context, p params, warmed *warmServer, seq []int, p50class string) (map[string]float64, []string, bool, error) {
	// Both servers are new, so neither has served the timed phase's
	// requests on its connection and the two halves compare like for like.
	svc := warmed.svc
	plain := &warmServer{svc: svc, kinds: warmed.kinds, want: warmed.want}
	ws := &warmServer{svc: svc, kinds: warmed.kinds, want: warmed.want}
	if err := plain.serve(svc.Handler(), false); err != nil {
		return nil, nil, false, err
	}
	defer plain.close()
	if err := ws.serve(svc.Handler(), true); err != nil {
		return nil, nil, false, err
	}
	defer ws.close()

	before, err := ws.stats()
	if err != nil {
		return nil, nil, false, err
	}
	cacheBefore := svc.ProfileCacheStats()
	led := newLedger()
	ok := true
	renderBytes := 0
	apiIDs := make([]int, len(seq))
	var untraced []sample
	untracedBlock := func(b int) {
		for _, ki := range seq[b : b+warmBlock] {
			dt, err := plain.do(ki)
			if err != nil {
				fmt.Fprintf(os.Stderr, "warm-http: %v\n", err)
				ok = false
			}
			untraced = append(untraced, sample{class: ws.kinds[ki].class, ms: float64(dt) / 1e6})
		}
	}
	tracedBlock := func(b int) {
		for op := b; op < b+warmBlock; op++ {
			start := time.Now()
			dt, err := ws.do(seq[op])
			if err != nil {
				fmt.Fprintf(os.Stderr, "warm-http: %v\n", err)
				ok = false
			}
			root := led.add("op", op, -1, start, dt)
			apiIDs[op] = led.add("api", op, root, start, time.Duration(ws.handlerNanos.Load()))
		}
	}
	// Which of the pair goes first alternates, so neither side always
	// follows the other.
	for b := 0; b < len(seq); b += warmBlock {
		if (b/warmBlock)%2 == 0 {
			untracedBlock(b)
			tracedBlock(b)
		} else {
			tracedBlock(b)
			untracedBlock(b)
		}
	}
	after, err := ws.stats()
	if err != nil {
		return nil, nil, false, err
	}
	// The backend calls are repeated once all requests are done, so the
	// repeats do not disturb the requests they decompose.
	for op, ki := range seq {
		k, h := ws.kinds[ki], apiIDs[op]
		var err error
		if !k.sweep {
			led.call("report.store_hit", op, h, func() {
				_, err = svc.Rendered(ctx, repro.ArtifactRequest{Artifact: warmArtifact}, k.f)
			})
		} else {
			var camp *repro.SweepCampaign
			led.call("experiments", op, h, func() { camp, _, err = sweepDoc(ctx, svc, k.grid) })
			if err == nil {
				var doc repro.Doc
				led.call("sweep.doc", op, h, func() { doc = camp.Sweep() })
				doc.Platform = svc.DefaultPlatform()
				var out string
				led.call("report.render", op, h, func() { out, err = report.Render(doc, k.f) })
				renderBytes += len(out)
			}
		}
		if err != nil {
			return nil, nil, false, err
		}
	}
	cacheAfter := svc.ProfileCacheStats()
	if err := led.write(spanDir, fmt.Sprintf("warm-http-seed%d.jsonl", p.seed)); err != nil {
		return nil, nil, false, err
	}

	ops := led.opTotals()
	backend := func(m map[string]float64) float64 {
		return m["report.store_hit"] + m["experiments"] + m["sweep.doc"] + m["report.render"]
	}
	inClass := func(classes ...string) []map[string]float64 {
		var out []map[string]float64
		for op, ki := range seq {
			for _, c := range classes {
				if ws.kinds[ki].class == c {
					out = append(out, ops[op])
				}
			}
		}
		return out
	}
	apiSelf := func(m map[string]float64) float64 { return m["api"] - backend(m) }
	// The backend layers are measured on the median's class when it has
	// them, so the median op's layers add up on requests of its own class.
	p50ops := inClass(p50class)
	arts, sweeps := inClass("art_identity", "art_304", "art_gzip"), inClass("sweep_identity", "sweep_304", "sweep_gzip")
	selfKeys := []string{"http.ms", "api.self_ms", "report.store_hit_ms"}
	if strings.HasPrefix(p50class, "sweep") {
		sweeps = p50ops
		selfKeys = []string{"http.ms", "api.self_ms", "experiments.self_ms", "sweep.doc_ms", "report.render_ms"}
	} else {
		arts = p50ops
	}
	vals := map[string]float64{
		"op_ms":               medianMS(untraced, p50class),
		"api.self_ms":         medianOver(p50ops, apiSelf),
		"http.ms":             medianOver(p50ops, func(m map[string]float64) float64 { return m["op"] - m["api"] }),
		"report.store_hit_ms": medianOver(arts, func(m map[string]float64) float64 { return m["report.store_hit"] }),
		"experiments.self_ms": medianOver(sweeps, func(m map[string]float64) float64 { return m["experiments"] }),
		"sweep.doc_ms":        medianOver(sweeps, func(m map[string]float64) float64 { return m["sweep.doc"] }),
		"report.render_ms":    medianOver(sweeps, func(m map[string]float64) float64 { return m["report.render"] }),
		"report.bytes":        float64(renderBytes),
		"core.cache_hits":     float64(cacheAfter.Hits - cacheBefore.Hits),
		"core.cache_misses":   float64(cacheAfter.Misses - cacheBefore.Misses),
		"core.cache_joins":    float64(cacheAfter.Joins - cacheBefore.Joins),
	}
	for _, m := range []struct{ metric, class string }{
		{"api.self_ms.art_identity", "art_identity"},
		{"api.self_ms.art_gzip", "art_gzip"},
		{"api.self_ms.art_304", "art_304"},
		{"api.self_ms.sweep_identity", "sweep_identity"},
		{"api.self_ms.sweep_gzip", "sweep_gzip"},
		{"api.self_ms.sweep_304", "sweep_304"},
	} {
		vals[m.metric] = medianOver(inClass(m.class), apiSelf)
	}
	for _, m := range []struct{ metric, counter string }{
		{"api.requests", "requests"},
		{"api.renders", "renders"},
		{"api.gzipped", "gzipped"},
		{"api.not_modified", "not_modified"},
		{"api.coalesced", "coalesced"},
	} {
		vals[m.metric] = float64(after[m.counter] - before[m.counter])
	}
	vals["api.requests"]-- // the closing /v1/stats request counts itself
	if vals["core.cache_misses"] != 0 {
		fmt.Fprintln(os.Stderr, "warm-http: requests after set-up missed the profile cache")
		ok = false
	}
	return vals, selfKeys, ok, nil
}
