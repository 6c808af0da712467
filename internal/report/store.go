package report

import (
	"context"
	"os"
	"path/filepath"
	"sync"
)

// Source computes the document of one artifact on one platform. It is the
// seam between measurement and presentation: the experiment suites sit
// behind a Source, the Store and every renderer sit in front of it. The
// context bounds the computation — sources built on the experiment engine
// stop at the next task boundary and return ctx.Err() when it is done.
type Source func(ctx context.Context, platform, artifact string) (Doc, error)

// Store memoizes artifact documents and their renders: each (platform,
// artifact) document is computed once and each (platform, artifact, format)
// render is produced once, no matter how many CLI writes or HTTP requests
// ask for it.
type Store struct {
	src Source

	// compute is a one-slot semaphore serializing document computation (one
	// suite's drivers must not run concurrently with another's — the suites
	// parallelize internally). Waiters block on it context-aware: a caller
	// whose ctx dies while another document computes abandons the wait
	// immediately instead of queueing behind a long experiment.
	compute chan struct{}

	// mu guards docs and renderMu guards rendered; neither is ever held
	// across source computation or rendering, so cached responses stay
	// instant while a cold document computes. Lock order when both are
	// needed: mu, then renderMu.
	mu       sync.Mutex
	docs     map[[2]string]docEntry
	renderMu sync.Mutex
	rendered map[[3]string]string
}

// docEntry is one memoized document plus its generation: Put bumps the
// generation, and an in-flight render only caches if the document it
// rendered is still current, so Doc and Artifact never disagree.
type docEntry struct {
	doc Doc
	gen uint64
}

// NewStore returns an empty store over the given source.
func NewStore(src Source) *Store {
	return &Store{
		src:      src,
		compute:  make(chan struct{}, 1),
		docs:     map[[2]string]docEntry{},
		rendered: map[[3]string]string{},
	}
}

// Doc returns the memoized document of an artifact on a platform, computing
// it on first use and stamping the platform into the document. Source
// errors are not memoized: unknown ids and platforms fail fast in the
// source, and an unbounded error cache keyed by request-controlled strings
// would let a misbehaving client grow the store without limit.
//
// Computation is serialized store-wide: concurrent requests for different
// cold artifacts run one at a time, which keeps one suite's drivers from
// running concurrently with each other (the suites parallelize internally).
// The wait for the computation slot is context-aware — a cancelled caller
// returns ctx.Err() immediately, even while another document computes —
// and ctx is handed to the source, so the computation itself stops at its
// next task boundary once ctx is done.
func (st *Store) Doc(ctx context.Context, platform, artifact string) (Doc, error) {
	d, _, err := st.doc(ctx, platform, artifact)
	return d, err
}

// cached returns the memoized entry for a key, if present.
func (st *Store) cached(key [2]string) (docEntry, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.docs[key]
	return e, ok
}

// doc is Doc plus the entry's generation for Artifact's cache guard.
func (st *Store) doc(ctx context.Context, platform, artifact string) (Doc, uint64, error) {
	key := [2]string{platform, artifact}
	if e, ok := st.cached(key); ok {
		return e.doc, e.gen, nil
	}
	// Cold: take the store-wide computation slot, abandoning on ctx death.
	select {
	case st.compute <- struct{}{}:
		defer func() { <-st.compute }()
	case <-ctx.Done():
		return Doc{}, 0, ctx.Err()
	}
	// Another holder of the slot (or a Put) may have filled the entry while
	// we waited.
	if e, ok := st.cached(key); ok {
		return e.doc, e.gen, nil
	}
	d, err := st.src(ctx, platform, artifact)
	if err != nil {
		return Doc{}, 0, err
	}
	if d.Platform == "" {
		d.Platform = platform
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	// A concurrent Put may have landed during computation; matching its
	// generation bump keeps the Artifact cache guard sound either way.
	gen := st.docs[key].gen + 1
	st.docs[key] = docEntry{doc: d, gen: gen}
	return d, gen, nil
}

// Put seeds the store with a precomputed document keyed by the given
// platform and the doc's artifact id — the hook for parallel sweeps
// (Service.RunAll) that compute many documents at once and hand them to
// the store for rendering and serving.
func (st *Store) Put(platform string, d Doc) {
	if d.Platform == "" {
		d.Platform = platform
	}
	key := [2]string{platform, d.Artifact}
	st.mu.Lock()
	st.docs[key] = docEntry{doc: d, gen: st.docs[key].gen + 1}
	// Drop any renders of a previously stored document so Doc and Artifact
	// never disagree after a re-Put.
	st.renderMu.Lock()
	for _, f := range Formats {
		delete(st.rendered, [3]string{platform, d.Artifact, string(f)})
	}
	st.renderMu.Unlock()
	st.mu.Unlock()
}

// Artifact returns the memoized render of an artifact on a platform in a
// format. A cached render is returned without touching the document path,
// so cold computations of other artifacts never block cached responses.
func (st *Store) Artifact(ctx context.Context, platform, artifact string, f Format) (string, error) {
	key := [3]string{platform, artifact, string(f)}
	st.renderMu.Lock()
	out, ok := st.rendered[key]
	st.renderMu.Unlock()
	if ok {
		return out, nil
	}
	d, gen, err := st.doc(ctx, platform, artifact)
	if err != nil {
		return "", err
	}
	out, err = Render(d, f)
	if err != nil {
		return "", err
	}
	st.mu.Lock()
	// Cache only if the document we rendered is still the stored one — a
	// concurrent Put may have replaced it while we rendered.
	if st.docs[[2]string{platform, artifact}].gen == gen {
		st.renderMu.Lock()
		st.rendered[key] = out
		st.renderMu.Unlock()
	}
	st.mu.Unlock()
	return out, nil
}

// WriteDir renders each artifact in each format and writes the files into
// dir as <artifact>.<ext> (figure9.txt, figure9.json, figure9.csv, ...),
// creating dir if needed. It returns the written file paths in order.
func (st *Store) WriteDir(ctx context.Context, dir, platform string, artifacts []string, formats ...Format) ([]string, error) {
	if len(formats) == 0 {
		formats = Formats
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	for _, id := range artifacts {
		for _, f := range formats {
			out, err := st.Artifact(ctx, platform, id, f)
			if err != nil {
				return paths, err
			}
			p := filepath.Join(dir, id+"."+f.Ext())
			if err := os.WriteFile(p, []byte(out), 0o644); err != nil {
				return paths, err
			}
			paths = append(paths, p)
		}
	}
	return paths, nil
}

// Cached reports how many documents and renders the store currently holds
// (for tests and diagnostics).
func (st *Store) Cached() (docs, renders int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.renderMu.Lock()
	defer st.renderMu.Unlock()
	return len(st.docs), len(st.rendered)
}
