package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/workloads/bfs"
	"repro/internal/workloads/hypre"
	"repro/internal/workloads/registry"
)

func TestRoundTripEvents(t *testing.T) {
	events := []Event{
		{Op: OpAlloc, Name: "A", Addr: 4096, N: 8192, Placement: mem.PlaceRemote},
		{Op: OpPhaseStart, Name: "p1"},
		{Op: OpRead, Addr: 4096, N: 64},
		{Op: OpWrite, Addr: 8192, N: 128},
		{Op: OpFlops, Flops: 12.5},
		{Op: OpTick},
		{Op: OpPhaseEnd, Name: "p1"},
		{Op: OpFree, Addr: 4096},
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		w.Write(e)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Events() != len(events) {
		t.Fatalf("wrote %d events, want %d", w.Events(), len(events))
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range events {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("event %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want clean EOF, got %v", err)
	}
}

func TestBadMagicRejected(t *testing.T) {
	if _, err := NewReader(strings.NewReader("NOTATRACE")); err == nil {
		t.Fatal("bad magic should be rejected")
	}
}

func TestTruncatedTraceErrors(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(Event{Op: OpAlloc, Name: "region-with-a-long-name", Addr: 1, N: 2})
	_ = w.Flush()
	full := buf.Bytes()
	r, err := NewReader(bytes.NewReader(full[:len(full)-3]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Fatalf("truncated record should be a hard error, got %v", err)
	}
}

// recordRun records a workload into a buffer and returns the machine it ran
// on plus the trace bytes.
func recordRun(t *testing.T, cfg machine.Config, run func(*machine.Machine)) (*machine.Machine, []byte) {
	t.Helper()
	var buf bytes.Buffer
	m := machine.New(cfg)
	if err := Record(m, run, &buf); err != nil {
		t.Fatal(err)
	}
	return m, buf.Bytes()
}

func samePhases(t *testing.T, a, b []machine.PhaseStats) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("phase count %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Flops != b[i].Flops ||
			a[i].LocalBytes != b[i].LocalBytes || a[i].RemoteBytes != b[i].RemoteBytes ||
			a[i].Cache != b[i].Cache {
			t.Fatalf("phase %s differs:\n orig  %+v\n replay %+v", a[i].Name, a[i], b[i])
		}
	}
}

func TestReplayReproducesOriginalRun(t *testing.T) {
	cfg := machine.Default()
	w := hypre.New(1)
	orig, data := recordRun(t, cfg, w.Run)

	replayM := machine.New(cfg)
	if err := Replay(replayM, bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	samePhases(t, orig.Phases(), replayM.Phases())
}

func TestReplayOntoDifferentCapacity(t *testing.T) {
	// Record on an unbounded single-tier machine; replay onto a pooled
	// configuration. The replay must spill to the remote tier even though
	// the recording machine never did — the profile-once workflow.
	cfg := machine.Default()
	w := bfs.New(1)
	w.Roots = 1
	orig, data := recordRun(t, cfg, w.Run)
	if ratio := orig.Phases()[1].RemoteAccessRatio; ratio != 0 {
		t.Fatalf("unbounded recording should be all-local, got %.2f remote", ratio)
	}

	pooled := machine.New(cfg.WithLocalCapacity(orig.PeakFootprint() / 4))
	if err := Replay(pooled, bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	p2, ok := pooled.Phase("p2")
	if !ok {
		t.Fatal("replay lost the p2 phase")
	}
	if p2.RemoteAccessRatio < 0.5 {
		t.Fatalf("replay at 25%% local should be mostly remote, got %.2f", p2.RemoteAccessRatio)
	}
}

func TestReplayOntoPrefetchDisabled(t *testing.T) {
	cfg := machine.Default()
	w := hypre.New(1)
	orig, data := recordRun(t, cfg, w.Run)

	noPF := machine.New(cfg.WithPrefetch(false))
	if err := Replay(noPF, bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	var pfOrig, pfReplay uint64
	for _, ph := range orig.Phases() {
		pfOrig += ph.Cache.PrefetchFills
	}
	for _, ph := range noPF.Phases() {
		pfReplay += ph.Cache.PrefetchFills
	}
	if pfOrig == 0 {
		t.Fatal("original run should prefetch")
	}
	if pfReplay != 0 {
		t.Fatalf("prefetch-disabled replay issued %d prefetches", pfReplay)
	}
}

func TestReplayErrorsOnUnknownRegion(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(Event{Op: OpPhaseStart, Name: "p"})
	w.Write(Event{Op: OpRead, Addr: 1 << 30, N: 64})
	_ = w.Flush()
	m := machine.New(machine.Default())
	if err := Replay(m, &buf); err == nil {
		t.Fatal("access outside any recorded region must error")
	}
}

func TestReplayClosesDanglingPhase(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(Event{Op: OpAlloc, Name: "a", Addr: 4096, N: 4096})
	w.Write(Event{Op: OpPhaseStart, Name: "p"})
	w.Write(Event{Op: OpRead, Addr: 4096, N: 64})
	_ = w.Flush() // trace ends mid-phase
	m := machine.New(machine.Default())
	if err := Replay(m, &buf); err != nil {
		t.Fatal(err)
	}
	if len(m.Phases()) != 1 {
		t.Fatalf("dangling phase should be closed, got %d phases", len(m.Phases()))
	}
}

// TestOpStreamDigests pins the SHA-256 of every registry workload's
// recorded op stream at scale 1 on the default machine: every allocation,
// free, access, flop count, phase boundary and tick, in order. A kernel
// change that reorders, drops or merges one simulated access — a single
// ReadRange over two adjacent records, say, which counts their shared line
// once — changes its workload's digest, although the traffic totals that
// TestWorkloadsDeterministic compares may not move. The quick tier records
// only the workloads of the benchmark's cold path.
func TestOpStreamDigests(t *testing.T) {
	digests := map[string]string{
		"HPL":     "84fa519df69f42fe6f1700833c0657684ce54461bfbee5c3ed24640972ce4e3b",
		"Hypre":   "279cad0d690f50ee2ebdf5ed35e04cec7dadd995cbe930a89edaaccb50d2469f",
		"NekRS":   "6d213c3e8afd9112cff304f4442dbd3b0d6ac540d974236338a26811441ed232",
		"BFS":     "7d9dad83b26f479fab9659bb7f706ed867bd860d2535cb99570d5a8a8c6d80c2",
		"SuperLU": "997e3e9d046d3143d670766a4eb9620b7add82e786b2c78445af82f0acd1c863",
		"XSBench": "3a5a82cc56c7c1af315255072d92e3981a32766797998319e0b9e6cb298bcbe7",
	}
	quick := map[string]bool{"HPL": true, "Hypre": true, "XSBench": true}
	for _, e := range registry.All() {
		if testing.Short() && !quick[e.Name] {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			want, ok := digests[e.Name]
			if !ok {
				t.Fatalf("no pinned digest for %s", e.Name)
			}
			h := sha256.New()
			if err := Record(machine.New(machine.Default()), e.New(1).Run, h); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want {
				t.Errorf("op stream digest = %s, want %s", got, want)
			}
		})
	}
}
