package memo

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds, failing the test after a deadline.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOneComputePerKey hammers one memo from 8 concurrent callers, half
// through Do and half through Value, over a common key set: every key
// computes exactly once, every caller gets the computed value, and every
// lookup counts exactly one hit, miss or join.
func TestOneComputePerKey(t *testing.T) {
	const keys, workers = 16, 8
	var st Stats
	m := New[int, int](0, &st)
	var computes [keys]atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for k := 0; k < keys; k++ {
				compute := func() int {
					computes[k].Add(1)
					time.Sleep(200 * time.Microsecond) // widen the join window
					return k * 3
				}
				var got int
				if w%2 == 0 {
					got = m.Value(k, compute)
				} else {
					var err error
					if got, err = m.Do(context.Background(), k, func(context.Context) (int, error) { return compute(), nil }); err != nil {
						t.Errorf("key %d: %v", k, err)
					}
				}
				if got != k*3 {
					t.Errorf("key %d: got %d, want %d", k, got, k*3)
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	for k := range computes {
		if n := computes[k].Load(); n != 1 {
			t.Errorf("key %d computed %d times, want exactly 1", k, n)
		}
	}
	if st.Misses.Load() != keys || m.Len() != keys {
		t.Errorf("%d misses and %d entries, want %d of each", st.Misses.Load(), m.Len(), keys)
	}
	if total := st.Hits.Load() + st.Joins.Load() + st.Misses.Load(); total != keys*workers {
		t.Errorf("hits+joins+misses = %d, want %d (every lookup counted once)", total, keys*workers)
	}
}

// TestHitsAllocateNothing pins the hot path: a lookup that finds a
// finished entry allocates nothing and counts a hit, through every entry
// point.
func TestHitsAllocateNothing(t *testing.T) {
	var st Stats
	m := New[string, [4]float64](0, &st)
	m.Put("k", [4]float64{1, 2, 3, 4})
	do := func(context.Context) ([4]float64, error) { return [4]float64{}, errors.New("recomputed") }
	value := func() [4]float64 { panic("recomputed") }
	ctx := context.Background()
	for _, hit := range []struct {
		name string
		fn   func()
	}{
		{"Get", func() { m.Get("k") }},
		{"Do", func() { m.Do(ctx, "k", do) }},
		{"Value", func() { m.Value("k", value) }},
	} {
		if n := testing.AllocsPerRun(100, hit.fn); n != 0 {
			t.Errorf("a %s hit allocated %v times per call, want 0", hit.name, n)
		}
	}
	if st.Misses.Load() != 0 || st.Joins.Load() != 0 || st.Hits.Load() == 0 {
		t.Errorf("hits %d, misses %d, joins %d; want only hits", st.Hits.Load(), st.Misses.Load(), st.Joins.Load())
	}
}

// TestWaiterCancel pins the non-poisoning contract: one waiter's context
// death returns its own ctx.Err immediately, while the flight — and its
// context — stays alive for the remaining waiter, who still gets the
// result. Once the flight settles its context is released.
func TestWaiterCancel(t *testing.T) {
	var st Stats
	m := New[string, string](0, &st)
	release := make(chan struct{})
	started := make(chan struct{})
	var fnCtx context.Context
	fn := func(ctx context.Context) (string, error) {
		fnCtx = ctx
		close(started)
		select {
		case <-release:
			return "rendered", nil
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
	type res struct {
		out string
		err error
	}
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	aCh := make(chan res, 1)
	go func() {
		out, err := m.Do(ctxA, "k", fn)
		aCh <- res{out, err}
	}()
	<-started
	bCh := make(chan res, 1)
	go func() {
		out, err := m.Do(context.Background(), "k", fn)
		bCh <- res{out, err}
	}()
	waitFor(t, "second caller to join the flight", func() bool { return st.Joins.Load() == 1 })

	cancelA()
	a := <-aCh
	if a.err != context.Canceled || a.out != "" {
		t.Fatalf("cancelled waiter got (%q, %v), want its own ctx.Err", a.out, a.err)
	}
	select {
	case <-fnCtx.Done():
		t.Fatal("flight context died while a waiter remained — the compute was poisoned")
	default:
	}

	close(release)
	if b := <-bCh; b.err != nil || b.out != "rendered" {
		t.Fatalf("surviving waiter got (%q, %v), want the rendered result", b.out, b.err)
	}
	if fnCtx.Err() == nil {
		t.Error("a settled flight kept its context alive")
	}
	if got, ok := m.Get("k"); !ok || got != "rendered" || st.Misses.Load() != 1 {
		t.Errorf("after the flight: Get = (%q, %v) with %d misses, want the kept result from 1 compute", got, ok, st.Misses.Load())
	}
}

// TestAbandonAndRetry checks the last-waiter path: when every caller is
// gone the flight's context is cancelled and the flight removed, so the
// next request starts a fresh compute instead of joining the abandoned
// one, which here is still winding down.
func TestAbandonAndRetry(t *testing.T) {
	var st Stats
	m := New[string, string](0, &st)
	fnDone := make(chan error, 1)
	hold := make(chan struct{})
	defer close(hold)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	resCh := make(chan error, 1)
	go func() {
		_, err := m.Do(ctx, "k", func(fctx context.Context) (string, error) {
			<-fctx.Done()
			fnDone <- fctx.Err()
			<-hold
			return "", fctx.Err()
		})
		resCh <- err
	}()
	waitFor(t, "the flight to start", func() bool { return st.Misses.Load() == 1 })
	cancel()
	if err := <-resCh; err != context.Canceled {
		t.Fatalf("abandoned caller got %v, want context.Canceled", err)
	}
	// The flight context must die with its last waiter — that is what stops
	// an orphaned compute from pinning the engine.
	if err := <-fnDone; err != context.Canceled {
		t.Fatalf("flight context ended with %v, want context.Canceled", err)
	}
	retry, stop := context.WithTimeout(context.Background(), 5*time.Second)
	defer stop()
	out, err := m.Do(retry, "k", func(context.Context) (string, error) {
		return "fresh", nil
	})
	if err != nil || out != "fresh" {
		t.Fatalf("retry after abandonment got (%q, %v), want a fresh compute", out, err)
	}
	if st.Misses.Load() != 2 || st.Joins.Load() != 0 {
		t.Errorf("misses = %d and joins = %d, want 2 (abandoned + fresh) and 0", st.Misses.Load(), st.Joins.Load())
	}
}

// TestPanicReachesEveryWaiter checks that a panicking compute re-raises
// in each of its waiters — the initiator and joiners through Do and Value
// alike — and leaves nothing behind, so the next lookup computes afresh.
func TestPanicReachesEveryWaiter(t *testing.T) {
	var st Stats
	m := New[string, int](0, &st)
	release := make(chan struct{})
	fn := func(context.Context) (int, error) {
		<-release
		panic("boom")
	}
	recovered := make(chan any, 3)
	call := func(f func()) {
		go func() {
			defer func() { recovered <- recover() }()
			f()
		}()
	}
	call(func() { _, _ = m.Do(context.Background(), "k", fn) })
	waitFor(t, "the flight to start", func() bool { return st.Misses.Load() == 1 })
	call(func() { _, _ = m.Do(context.Background(), "k", fn) })
	call(func() { m.Value("k", func() int { return 1 }) })
	waitFor(t, "two joins", func() bool { return st.Joins.Load() == 2 })
	close(release)
	for i := 0; i < 3; i++ {
		if r := <-recovered; r != "boom" {
			t.Errorf("waiter recovered %v, want the compute's panic", r)
		}
	}
	if got := m.Value("k", func() int { return 7 }); got != 7 {
		t.Errorf("after a panic the key returned %d, want a fresh compute's 7", got)
	}

	// A compute running on the caller's goroutine re-raises there.
	func() {
		defer func() {
			if r := recover(); r != "inline" {
				t.Errorf("Value's caller recovered %v, want its compute's panic", r)
			}
		}()
		m.Value("v", func() int { panic("inline") })
	}()
	if _, ok := m.Get("v"); ok || m.Len() != 1 {
		t.Errorf("a panicked compute left an entry (%d resident)", m.Len())
	}
}

// TestErrorNotKept checks that a failed compute is handed to its caller
// and forgotten: the next lookup computes again.
func TestErrorNotKept(t *testing.T) {
	var st Stats
	m := New[string, int](0, &st)
	boom := errors.New("boom")
	if _, err := m.Do(context.Background(), "k", func(context.Context) (int, error) { return 0, boom }); err != boom {
		t.Fatalf("Do = %v, want the compute's error", err)
	}
	if m.Len() != 0 {
		t.Fatalf("a failed compute left %d entries", m.Len())
	}
	got, err := m.Do(context.Background(), "k", func(context.Context) (int, error) { return 5, nil })
	if err != nil || got != 5 || st.Misses.Load() != 2 {
		t.Errorf("retry = (%d, %v) after %d misses, want 5 from a second compute", got, err, st.Misses.Load())
	}
}

// gated starts a Do for key whose compute blocks until release closes and
// then returns v. It returns once the flight is running, with the channel
// its caller's result arrives on.
func gated(t *testing.T, m *Memo[string, int], st *Stats, key string, v int, release chan struct{}) <-chan int {
	t.Helper()
	misses := st.Misses.Load()
	out := make(chan int, 1)
	go func() {
		got, err := m.Do(context.Background(), key, func(context.Context) (int, error) {
			<-release
			return v, nil
		})
		if err != nil {
			t.Error(err)
		}
		out <- got
	}()
	waitFor(t, key+"'s flight to start", func() bool { return st.Misses.Load() == misses+1 })
	return out
}

// TestEvictOldestFirst checks the bound: a full memo evicts the
// oldest-inserted key, finished or in flight, and an evicted flight hands
// its value to its caller without coming back.
func TestEvictOldestFirst(t *testing.T) {
	var st Stats
	m := New[string, int](3, &st)
	release := make(chan struct{})
	inflight := gated(t, m, &st, "a", 1, release)
	for i, k := range []string{"b", "c", "d", "e"} {
		m.Put(k, i)
	}
	if m.Len() != 3 {
		t.Fatalf("%d entries, want the limit of 3", m.Len())
	}
	for _, k := range []string{"a", "b"} {
		if _, ok := m.Get(k); ok {
			t.Errorf("%s survived, want it evicted as one of the two oldest", k)
		}
	}
	for _, k := range []string{"c", "d", "e"} {
		if _, ok := m.Get(k); !ok {
			t.Errorf("%s was evicted, want only the two oldest gone", k)
		}
	}
	close(release)
	if got := <-inflight; got != 1 {
		t.Errorf("the evicted flight's caller got %d, want its value 1", got)
	}
	if _, ok := m.Get("a"); ok || m.Len() != 3 {
		t.Errorf("the evicted flight came back (%d entries)", m.Len())
	}
}

// TestReplaceAndDropDuringFlight checks that a flight whose key was
// replaced or dropped while it ran answers its own caller and keeps
// nothing: the replacement stays, the dropped key stays gone.
func TestReplaceAndDropDuringFlight(t *testing.T) {
	var st Stats
	m := New[string, int](0, &st)
	release := make(chan struct{})
	replaced := gated(t, m, &st, "put", 1, release)
	dropped := gated(t, m, &st, "drop", 1, release)
	m.Put("put", 2)
	m.Drop("drop")
	close(release)
	if a, b := <-replaced, <-dropped; a != 1 || b != 1 {
		t.Errorf("the flights' callers got %d and %d, want each flight's own 1", a, b)
	}
	if got, ok := m.Get("put"); !ok || got != 2 {
		t.Errorf("replaced key = (%d, %v), want the replacement 2", got, ok)
	}
	if _, ok := m.Get("drop"); ok || m.Len() != 1 {
		t.Errorf("dropped key came back (%d entries)", m.Len())
	}
}
