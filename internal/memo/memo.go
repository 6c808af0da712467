// Package memo is the one keyed single-flight memo every layer of the
// service memoizes through: the profile cache's levels (internal/core),
// the suite's sweep campaigns (internal/experiments), the artifact store's
// documents and renders (internal/report) and the HTTP layer's
// representations (internal/api).
//
// The contract, decided here once:
//
//   - Concurrent lookups of one key run one compute. Every lookup counts
//     exactly one of hit (a finished entry), miss (it started the compute)
//     or join (it waited on a compute already running). A hit starts no
//     goroutine and allocates nothing.
//   - Do's caller returns ctx.Err() as soon as its context dies. The
//     compute runs under its own context, cancelled only when its last
//     waiter has left, so one waiter giving up never poisons the result for
//     the rest. Value serves callers that cannot be cancelled and computes
//     that cannot fail; it computes on the calling goroutine.
//   - Errors, cancellations and panics are never kept: the next lookup
//     starts afresh. A panic re-raises in every waiter of its flight.
//   - Put replaces a key's entry and Drop removes it. A flight whose key was
//     replaced, dropped or evicted while it ran hands its value to its own
//     waiters and keeps nothing.
//   - A memo is unbounded, or holds at most its limit of entries, finished
//     or in flight, and evicts the oldest-inserted first.
package memo

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
)

// Stats counts a memo's lookups; several memos may share one.
type Stats struct {
	// Hits counts lookups served from a finished entry.
	Hits atomic.Int64
	// Misses counts lookups that started a compute.
	Misses atomic.Int64
	// Joins counts lookups that waited on a compute already in flight.
	Joins atomic.Int64
}

func (s *Stats) hit() {
	if s != nil {
		s.Hits.Add(1)
	}
}

func (s *Stats) miss() {
	if s != nil {
		s.Misses.Add(1)
	}
}

func (s *Stats) join() {
	if s != nil {
		s.Joins.Add(1)
	}
}

// Memo maps keys to values computed at most once at a time per key. Values
// are shared between callers, so treat them as read-only. Use New.
type Memo[K comparable, V any] struct {
	limit int
	stats *Stats

	mu      sync.Mutex
	entries map[K]*entry[V]
	// order lists the resident keys oldest first; it is kept only when the
	// memo is bounded.
	order []K
}

// entry is one key's slot. Its val is final once fl is nil, and a final
// entry is never written again: Put installs a new one.
type entry[V any] struct {
	val V
	fl  *flight
}

// flight is the compute in progress behind an entry.
type flight struct {
	ctx     context.Context
	cancel  context.CancelFunc
	done    chan struct{}
	waiters int // waiters still waiting; guarded by Memo.mu
	// err and panicked are the compute's outcome, read after done closes.
	err      error
	panicked any
}

// New returns an empty memo. A limit above zero bounds it to that many
// entries; stats, when not nil, counts its lookups.
func New[K comparable, V any](limit int, stats *Stats) *Memo[K, V] {
	return &Memo[K, V]{limit: limit, stats: stats, entries: map[K]*entry[V]{}}
}

// Get returns key's finished value, counting a hit, if there is one. A Get
// that finds nothing counts nothing: the Do that follows it counts the
// lookup.
func (m *Memo[K, V]) Get(key K) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.entries[key]; e != nil && e.fl == nil {
		m.stats.hit()
		return e.val, true
	}
	var zero V
	return zero, false
}

// Do returns key's value, running fn in a new goroutine if no compute for
// key is finished or in flight. It returns ctx.Err() as soon as ctx dies;
// fn's context is cancelled when the last caller waiting on it has left.
func (m *Memo[K, V]) Do(ctx context.Context, key K, fn func(context.Context) (V, error)) (V, error) {
	e, fl, start := m.enter(key)
	if fl == nil {
		return e.val, nil
	}
	if start {
		go m.run(key, e, fl, func() (V, error) { return fn(fl.ctx) })
	}
	select {
	case <-fl.done:
		if fl.panicked != nil {
			panic(fl.panicked)
		}
		return e.val, fl.err
	case <-ctx.Done():
		m.leave(key, e, fl)
		var zero V
		return zero, ctx.Err()
	}
}

// Value returns key's value, running fn on the calling goroutine if no
// compute for key is finished or in flight. It is Do for a caller that
// cannot be cancelled and a compute that cannot fail.
func (m *Memo[K, V]) Value(key K, fn func() V) V {
	e, fl, start := m.enter(key)
	if fl == nil {
		return e.val
	}
	if start {
		m.run(key, e, fl, func() (V, error) { return fn(), nil })
	} else {
		<-fl.done
	}
	if fl.panicked != nil {
		panic(fl.panicked)
	}
	return e.val
}

// Put makes v key's finished value, replacing any entry key had.
func (m *Memo[K, V]) Put(key K, v V) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := &entry[V]{val: v}
	if m.entries[key] != nil {
		m.entries[key] = e
		return
	}
	m.insert(key, e)
}

// Drop removes key's entry, if it has one.
func (m *Memo[K, V]) Drop(key K) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.drop(key)
}

// Len returns the number of resident keys, finished or in flight.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// enter looks key up and counts the lookup. It returns key's entry and,
// unless the entry is finished, the flight to wait on; start reports that
// the lookup created that flight and must run it.
func (m *Memo[K, V]) enter(key K) (e *entry[V], fl *flight, start bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e = m.entries[key]; e != nil {
		if e.fl == nil {
			m.stats.hit()
		} else {
			e.fl.waiters++
			m.stats.join()
		}
		return e, e.fl, false
	}
	m.stats.miss()
	fl = &flight{done: make(chan struct{}), waiters: 1}
	// A flight outlives any one waiter, so its context derives from none
	// of theirs.
	//repro:allow ctxflow — a flight's lifetime is refcounted: leave cancels it when its last waiter has gone
	fl.ctx, fl.cancel = context.WithCancel(context.Background())
	e = &entry[V]{fl: fl}
	m.insert(key, e)
	return e, fl, true
}

// run computes e's value and settles fl: a success stays as key's entry
// while e still holds the key, anything else removes it. Waiters wake
// after the entry is settled.
func (m *Memo[K, V]) run(key K, e *entry[V], fl *flight, compute func() (V, error)) {
	defer func() {
		fl.panicked = recover()
		m.mu.Lock()
		if m.entries[key] == e {
			if fl.err == nil && fl.panicked == nil {
				e.fl = nil
			} else {
				m.drop(key)
			}
		}
		m.mu.Unlock()
		fl.cancel()
		close(fl.done)
	}()
	e.val, fl.err = compute()
}

// leave withdraws one waiter whose context died. The last one to leave
// cancels the flight and removes it, so the next lookup starts afresh.
func (m *Memo[K, V]) leave(key K, e *entry[V], fl *flight) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if fl.waiters--; fl.waiters > 0 {
		return
	}
	fl.cancel()
	if m.entries[key] == e && e.fl != nil {
		m.drop(key)
	}
}

// insert adds a new key, evicting the oldest first when the memo is full.
func (m *Memo[K, V]) insert(key K, e *entry[V]) {
	if m.limit > 0 {
		if len(m.order) == m.limit {
			m.drop(m.order[0])
		}
		m.order = append(m.order, key)
	}
	m.entries[key] = e
}

// drop removes key's entry. A flight the entry held runs on for its own
// waiters and keeps nothing.
func (m *Memo[K, V]) drop(key K) {
	delete(m.entries, key)
	if i := slices.Index(m.order, key); i >= 0 {
		m.order = slices.Delete(m.order, i, i+1)
	}
}
