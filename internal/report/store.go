package report

import (
	"context"
	"os"
	"path/filepath"

	"repro/internal/memo"
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
// ask for it. Neither memo is locked across source computation or
// rendering, so cached responses stay instant while a cold document
// computes.
type Store struct {
	src Source

	// compute is a one-slot semaphore serializing document computation (one
	// suite's drivers must not run concurrently with another's — the suites
	// parallelize internally). Waiters block on it context-aware: a caller
	// whose ctx dies while another document computes abandons the wait
	// immediately instead of queueing behind a long experiment.
	compute chan struct{}

	docs    *memo.Memo[[2]string, Doc]
	renders *memo.Memo[[3]string, string]
}

// NewStore returns an empty store over the given source.
func NewStore(src Source) *Store {
	return &Store{
		src:     src,
		compute: make(chan struct{}, 1),
		docs:    memo.New[[2]string, Doc](0, nil),
		renders: memo.New[[3]string, string](0, nil),
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
// A caller whose ctx dies returns ctx.Err() immediately, even while another
// document computes, and the computation itself stops at its next task
// boundary once no caller waits on it.
func (st *Store) Doc(ctx context.Context, platform, artifact string) (Doc, error) {
	key := [2]string{platform, artifact}
	return st.docs.Do(ctx, key, func(ctx context.Context) (Doc, error) {
		select {
		case st.compute <- struct{}{}:
			defer func() { <-st.compute }()
		case <-ctx.Done():
			return Doc{}, ctx.Err()
		}
		// A Put may have filled the key while this computation waited.
		if d, ok := st.docs.Get(key); ok {
			return d, nil
		}
		d, err := st.src(ctx, platform, artifact)
		if err != nil {
			return Doc{}, err
		}
		if d.Platform == "" {
			d.Platform = platform
		}
		return d, nil
	})
}

// Put seeds the store with a precomputed document keyed by the given
// platform and the doc's artifact id — the hook for parallel sweeps
// (Service.RunAll) that compute many documents at once and hand them to
// the store for rendering and serving.
func (st *Store) Put(platform string, d Doc) {
	if d.Platform == "" {
		d.Platform = platform
	}
	st.docs.Put([2]string{platform, d.Artifact}, d)
	// Drop the renders of a previously stored document, and discard any
	// render still in flight, so Doc and Artifact never disagree after a
	// re-Put. The document goes in first: a render started from here on
	// reads it.
	for _, f := range Formats {
		st.renders.Drop([3]string{platform, d.Artifact, string(f)})
	}
}

// Artifact returns the memoized render of an artifact on a platform in a
// format. A cached render is returned without touching the document path,
// so cold computations of other artifacts never block cached responses.
func (st *Store) Artifact(ctx context.Context, platform, artifact string, f Format) (string, error) {
	key := [3]string{platform, artifact, string(f)}
	if out, ok := st.renders.Get(key); ok {
		return out, nil
	}
	return st.renders.Do(ctx, key, func(ctx context.Context) (string, error) {
		d, err := st.Doc(ctx, platform, artifact)
		if err != nil {
			return "", err
		}
		return Render(d, f)
	})
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

// Cached reports how many documents and renders the store currently
// holds, finished or in flight (for tests and diagnostics).
func (st *Store) Cached() (docs, renders int) {
	return st.docs.Len(), st.renders.Len()
}
