package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function. Parent is the span whose layer the call sits beneath (-1 for an
// op); Op groups the spans of one decomposed operation.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// ledger keeps a traced run's spans in memory until the run ends.
//
// A layer's self time is its call's duration minus the durations of the
// calls it makes into the layers beneath it. The benchmark cannot time
// those inner calls inside the program, so it repeats each of them from
// its own files with the same inputs, as a child span of the outer call.
type ledger struct {
	t0    time.Time
	spans []span
}

func newLedger() *ledger { return &ledger{t0: time.Now()} }

// call runs fn as a span and returns the span's index.
func (l *ledger) call(name string, op, parent int, fn func()) int {
	start := time.Now()
	fn()
	return l.add(name, op, parent, start, time.Since(start))
}

// add records a span measured by the caller.
func (l *ledger) add(name string, op, parent int, start time.Time, d time.Duration) int {
	s := int64(start.Sub(l.t0))
	l.spans = append(l.spans, span{Name: name, Op: op, Parent: parent, Start: s, End: s + int64(d)})
	return len(l.spans) - 1
}

// opTotals returns, per decomposed op in op order, the summed duration in
// milliseconds of its spans by name.
func (l *ledger) opTotals() []map[string]float64 {
	byOp := map[int]map[string]float64{}
	for _, s := range l.spans {
		m := byOp[s.Op]
		if m == nil {
			m = map[string]float64{}
			byOp[s.Op] = m
		}
		m[s.Name] += float64(s.End-s.Start) / 1e6
	}
	ops := make([]int, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	sort.Ints(ops)
	out := make([]map[string]float64, len(ops))
	for i, op := range ops {
		out[i] = byOp[op]
	}
	return out
}

// write stores the spans as JSON lines in dir/name.
func (l *ledger) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// medianOver returns the median across ops of f applied to each op's
// span totals.
func medianOver(ops []map[string]float64, f func(map[string]float64) float64) float64 {
	xs := make([]float64, len(ops))
	for i, m := range ops {
		xs[i] = f(m)
	}
	return median(xs)
}
