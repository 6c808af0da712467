package sweep

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/pool"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/workloads/registry"
)

func TestParseAxis(t *testing.T) {
	tests := []struct {
		in   string
		want []float64
		err  bool
	}{
		{in: "gen=0,5,6", want: []float64{0, 5, 6}},
		{in: "frac=0.25:0.75:0.25", want: []float64{0.25, 0.50, 0.75}},
		{in: "lat=0:400:100", want: []float64{0, 100, 200, 300, 400}},
		{in: "bw=0.5,1,2", want: []float64{0.5, 1, 2}},
		{in: "frac=0.5", want: []float64{0.5}},
		{in: "gen=7", err: true},     // unknown generation
		{in: "frac=1.5", err: true},  // outside (0,1)
		{in: "frac=0", err: true},    // outside (0,1)
		{in: "bw=0", err: true},      // non-positive scale
		{in: "lat=-5", err: true},    // negative added latency
		{in: "volts=1,2", err: true}, // unknown axis
		{in: "gen", err: true},       // no values
		{in: "=1,2", err: true},      // no name
		{in: "frac=a,b", err: true},  // non-numeric
		{in: "lat=5:1:1", err: true}, // hi < lo
		{in: "lat=1:5:0", err: true}, // zero step
		{in: "frac=0.1:0.9:0.2", want: []float64{0.1, 0.3, 0.5, 0.7, 0.9}},
	}
	for _, tc := range tests {
		a, err := ParseAxis(tc.in)
		if tc.err {
			if err == nil {
				t.Errorf("ParseAxis(%q): want error, got %v", tc.in, a.Values)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseAxis(%q): %v", tc.in, err)
			continue
		}
		if len(a.Values) != len(tc.want) {
			t.Errorf("ParseAxis(%q) = %v, want %v", tc.in, a.Values, tc.want)
			continue
		}
		for i, v := range a.Values {
			if diff := v - tc.want[i]; diff > 1e-12 || diff < -1e-12 {
				t.Errorf("ParseAxis(%q)[%d] = %v, want %v", tc.in, i, v, tc.want[i])
			}
		}
	}
}

// TestParseAxisRangeEdges pins the lo:hi:step expansion at its numeric
// edges: inclusive endpoints appear exactly once even when the step does
// not divide the span in binary floating point, the value count sits
// exactly on the MaxAxisValues boundary (the historical pts+1 off-by-one
// lived here), and degenerate steps — denormals, NaN, infinities — either
// expand to a finite monotone axis or fail validation, never hang or
// allocate an astronomical slice.
func TestParseAxisRangeEdges(t *testing.T) {
	tests := []struct {
		name string
		in   string
		n    int     // expected value count (when err is false)
		last float64 // expected final value
		err  bool
	}{
		// Endpoint handling: hi is included exactly once, for steps that
		// divide the span exactly and for binary-inexact ones; a zero-span
		// range is the single point lo.
		{name: "exact step includes hi once", in: "lat=0:400:100", n: 5, last: 400},
		{name: "inexact step still lands on hi", in: "frac=0.1:0.3:0.1", n: 3, last: 0.3},
		{name: "step past hi stops at lo", in: "lat=0:5:10", n: 1, last: 0},
		{name: "zero-span range is one point", in: "lat=250:250:50", n: 1, last: 250},
		// The MaxAxisValues boundary: lat=0:1023:1 expands to exactly 1024
		// values (the cap), one more point is rejected — the off-by-one
		// either way would admit 1025 values or reject 1024.
		{name: "exactly MaxAxisValues accepted", in: "lat=0:1023:1", n: MaxAxisValues, last: 1023},
		{name: "MaxAxisValues+1 rejected", in: "lat=0:1024:1", err: true},
		{name: "astronomical range rejected", in: "lat=0:1e12:1", err: true},
		// Degenerate steps: a denormal step over a finite span would yield
		// ~1e308 points — the cap must trip before any allocation. A
		// denormal *span* with a proportionate step is legitimate. NaN and
		// infinity fail the range guard (NaN compares false both ways, so
		// this is the regression pin for the negated-comparison guard).
		{name: "denormal step over real span", in: "frac=0.1:0.9:5e-324", err: true},
		{name: "denormal step zero span", in: "frac=0.5:0.5:5e-324", n: 1, last: 0.5},
		{name: "denormal span and step", in: "lat=0:1e-320:1e-321", n: 11, last: 1e-320},
		{name: "NaN step", in: "lat=0:10:NaN", err: true},
		{name: "NaN hi", in: "lat=0:NaN:1", err: true},
		{name: "NaN lo", in: "lat=NaN:10:1", err: true},
		{name: "infinite hi", in: "lat=0:+Inf:1", err: true},
		{name: "infinite step", in: "lat=0:10:+Inf", err: true}, // lo + 0*Inf is NaN, caught by value validation
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			a, err := ParseAxis(tc.in)
			if tc.err {
				if err == nil {
					t.Fatalf("ParseAxis(%q) = %v, want error", tc.in, a.Values)
				}
				if !errors.Is(err, ErrInvalid) {
					t.Fatalf("ParseAxis(%q) error %v does not match ErrInvalid", tc.in, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseAxis(%q): %v", tc.in, err)
			}
			if len(a.Values) != tc.n {
				t.Fatalf("ParseAxis(%q) yields %d values, want %d", tc.in, len(a.Values), tc.n)
			}
			for i := 1; i < len(a.Values); i++ {
				if a.Values[i] <= a.Values[i-1] {
					t.Fatalf("ParseAxis(%q) not strictly increasing at [%d]: %v", tc.in, i, a.Values)
				}
			}
			got := a.Values[len(a.Values)-1]
			if diff := got - tc.last; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("ParseAxis(%q) final value = %v, want %v", tc.in, got, tc.last)
			}
		})
	}
}

func TestGridPointsNamesAndOrder(t *testing.T) {
	g := Grid{Base: scenario.Default(), Axes: []Axis{
		{Name: "gen", Values: []float64{0, 5}},
		{Name: "frac", Values: []float64{0.25, 0.75}},
	}}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	pts, err := g.Points()
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{
		"gen=0,frac=0.25", "gen=0,frac=0.75", "gen=5,frac=0.25", "gen=5,frac=0.75",
	}
	if len(pts) != len(wantNames) || g.Size() != len(wantNames) {
		t.Fatalf("got %d points, Size %d, want %d", len(pts), g.Size(), len(wantNames))
	}
	for i, p := range pts {
		if p.Spec.Name != wantNames[i] {
			t.Errorf("point %d named %q, want %q (last axis must vary fastest)", i, p.Spec.Name, wantNames[i])
		}
		if err := p.Spec.Validate(); err != nil {
			t.Errorf("point %d invalid: %v", i, err)
		}
		if p.Spec.HeadlineFraction != p.Coords[1].Value {
			t.Errorf("point %d: frac axis not applied: headline %v, coord %v",
				i, p.Spec.HeadlineFraction, p.Coords[1].Value)
		}
	}
	// gen=0 keeps the base link; gen=5 swaps in the preset.
	base := scenario.Default().Platform.Link
	if pts[0].Spec.Platform.Link != base {
		t.Error("gen=0 should keep the base link")
	}
	if pts[2].Spec.Platform.Link.DataBandwidth != LinkGenerations[5].DataBandwidth {
		t.Error("gen=5 should install the generation preset")
	}
	// Cells share the base platform name so profiler caches can be shared
	// across cells with identical physics.
	if pts[0].Spec.Platform.Name != scenario.Default().Platform.Name {
		t.Errorf("cell platform renamed to %q; cells must keep the base platform name", pts[0].Spec.Platform.Name)
	}
}

// TestLinkGenerationsTrackRegistry pins the single-source-of-truth rule:
// the gen=5/gen=6 presets must be exactly the registry scenarios' links,
// so recalibrating a registry entry recalibrates the sweep.
func TestLinkGenerationsTrackRegistry(t *testing.T) {
	for gen, name := range map[int]string{5: "cxl-gen5", 6: "cxl-gen6"} {
		sp, err := scenario.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		lg := LinkGenerations[gen]
		l := sp.Platform.Link
		if lg.DataBandwidth != l.DataBandwidth || lg.PeakTraffic != l.PeakTraffic ||
			lg.Latency != l.Latency || lg.Overhead != l.Overhead {
			t.Errorf("gen %d preset %+v diverges from scenario %s link %+v", gen, lg, name, l)
		}
	}
	if _, ok := LinkGenerations[4]; !ok {
		t.Error("generation 4 preset missing")
	}
}

// TestSizeCaps pins the request-safety bounds: oversized ranges and grids
// must be rejected by validation before anything allocates.
func TestSizeCaps(t *testing.T) {
	if _, err := ParseAxis("lat=0:1e12:1"); err == nil {
		t.Error("ParseAxis should reject an astronomically sized range")
	}
	big := Axis{Name: "lat", Values: make([]float64, MaxAxisValues+1)}
	if err := big.Validate(); err == nil {
		t.Error("Axis.Validate should reject more than MaxAxisValues values")
	}
	wide := func() Axis {
		a := Axis{Name: "lat"}
		for i := 0; i < 100; i++ {
			a.Values = append(a.Values, float64(i))
		}
		return a
	}()
	frac := Axis{Name: "frac", Values: func() []float64 {
		var vs []float64
		for i := 1; i <= 100; i++ {
			vs = append(vs, float64(i)/101)
		}
		return vs
	}()}
	g := Grid{Base: scenario.Default(), Axes: []Axis{wide, frac}} // 10000 cells
	// Big grids are no longer a library error — they run through the job
	// manager — but the synchronous request boundary still refuses them,
	// pointing at the jobs surface.
	if err := g.Validate(); err != nil {
		t.Errorf("Grid.Validate should accept %d cells (big grids go through jobs): %v", g.Size(), err)
	}
	err := CheckSyncSize(g)
	if err == nil || !strings.Contains(err.Error(), "max") || !strings.Contains(err.Error(), "jobs") {
		t.Errorf("CheckSyncSize should reject %d cells with a pointer at jobs: %v", g.Size(), err)
	}
	if !errors.Is(err, ErrInvalid) {
		t.Errorf("CheckSyncSize error should match ErrInvalid, got %v", err)
	}
	if err := CheckSyncSize(Grid{Base: scenario.Default()}); err != nil {
		t.Errorf("CheckSyncSize rejected a 1-cell grid: %v", err)
	}
}

func TestGridValidateRejects(t *testing.T) {
	base := scenario.Default()
	tests := []struct {
		name string
		g    Grid
	}{
		{"duplicate axis", Grid{Base: base, Axes: []Axis{
			{Name: "frac", Values: []float64{0.5}}, {Name: "frac", Values: []float64{0.25}}}}},
		{"unknown axis", Grid{Base: base, Axes: []Axis{{Name: "volts", Values: []float64{1}}}}},
		{"empty axis", Grid{Base: base, Axes: []Axis{{Name: "gen"}}}},
		{"invalid base", Grid{Axes: []Axis{{Name: "frac", Values: []float64{0.5}}}}},
	}
	for _, tc := range tests {
		if err := tc.g.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid grid", tc.name)
		}
	}
}

// quickEntries trims the workload table to the two cheapest applications
// so the quick tier can execute campaigns end-to-end.
func quickEntries() []registry.Entry {
	var picked []registry.Entry
	for _, e := range registry.All() {
		switch e.Name {
		case "HPL", "Hypre":
			picked = append(picked, e)
		}
	}
	return picked
}

// quickGrid is a 2x2 generation x capacity-fraction campaign.
func quickGrid() Grid {
	return Grid{Base: scenario.Default(), Axes: []Axis{
		{Name: "gen", Values: []float64{0, 5}},
		{Name: "frac", Values: []float64{0.25, 0.75}},
	}}
}

// runQuick executes the quick campaign under the given worker budget and
// renders both artifacts in text and JSON.
func runQuick(t *testing.T, workers int) map[string]string {
	t.Helper()
	r := &Runner{Grid: quickGrid(), Entries: quickEntries(), Runs: 5}
	c, err := r.RunContext(context.Background(), pool.NewLimiter(workers))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for name, doc := range map[string]report.Doc{"sweep": c.Sweep(), "sensitivity": c.Sensitivity()} {
		out[name+".txt"] = report.RenderText(doc)
		js, err := report.RenderJSON(doc)
		if err != nil {
			t.Fatal(err)
		}
		out[name+".json"] = js
	}
	return out
}

// TestCampaignDeterministicAcrossWorkers is the engine's quick-tier
// byte-identical guarantee for sweeps: a 2x2 campaign renders exactly the
// same sweep and sensitivity documents (text and JSON) at -j 1 and -j 8,
// on independent cold runners.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	seq := runQuick(t, 1)
	par := runQuick(t, 8)
	for name, want := range seq {
		if got := par[name]; got != want {
			t.Errorf("%s: workers=8 render differs from workers=1 (%d vs %d bytes)",
				name, len(got), len(want))
		}
		if len(want) == 0 {
			t.Errorf("%s renders empty", name)
		}
	}
}

// TestCampaignShape pins the aggregate structure of a campaign: rows for
// every (cell, workload) pair, base reference present, frontier indices
// consistent with the scores.
func TestCampaignShape(t *testing.T) {
	r := &Runner{Grid: quickGrid(), Entries: quickEntries(), Runs: 5}
	var last int
	r.Progress = func(done, total int) {
		if total != 10 { // (4 cells + base) x 2 workloads
			t.Errorf("progress total = %d, want 10", total)
		}
		last = done
	}
	c, err := r.RunContext(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if last != 10 {
		t.Errorf("progress saw %d completions, want 10", last)
	}
	if len(c.Points) != 4 || len(c.Cells) != 4 || len(c.Base) != 2 {
		t.Fatalf("campaign shape: %d points, %d rows, %d base cells", len(c.Points), len(c.Cells), len(c.Base))
	}
	if c.Best < 0 || c.Worst < 0 || c.Scores[c.Best] < c.Scores[c.Worst] {
		t.Errorf("frontier inconsistent: best %d (%v) worst %d (%v)",
			c.Best, c.Scores[c.Best], c.Worst, c.Scores[c.Worst])
	}
	for pi, row := range c.Cells {
		for wi, cl := range row {
			if cl.Workload != c.Workloads[wi] {
				t.Errorf("cell [%d][%d] workload %q, want %q", pi, wi, cl.Workload, c.Workloads[wi])
			}
			if cl.Cell != c.Points[pi].Spec.Name {
				t.Errorf("cell [%d][%d] named %q, want %q", pi, wi, cl.Cell, c.Points[pi].Spec.Name)
			}
			if cl.RelPerf50 <= 0 || cl.RelPerf50 > 1.05 {
				t.Errorf("cell %s/%s: implausible RelPerf50 %v", cl.Cell, cl.Workload, cl.RelPerf50)
			}
		}
	}
	// A lower local fraction must not lower the remote access ratio.
	for wi := range c.Workloads {
		if c.Cells[0][wi].RemoteAccess < c.Cells[1][wi].RemoteAccess {
			t.Errorf("%s: frac=0.25 remote access (%v) below frac=0.75 (%v)",
				c.Workloads[wi], c.Cells[0][wi].RemoteAccess, c.Cells[1][wi].RemoteAccess)
		}
	}
}
