package experiments

import (
	"encoding/csv"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/scenario"
)

// roundTrip asserts the full renderer contract on one result: the JSON
// rendering unmarshals back into an equal Doc, the CSV rendering parses
// with encoding/csv, and the text rendering reproduces the committed seed
// golden byte for byte.
func roundTrip(t *testing.T, r Result, goldenID string) {
	t.Helper()
	doc := r.Report()
	if doc.Artifact != r.ID() {
		t.Errorf("doc artifact %q != result id %q", doc.Artifact, r.ID())
	}

	js, err := report.RenderJSON(doc)
	if err != nil {
		t.Fatalf("RenderJSON: %v", err)
	}
	back, err := report.ParseJSON(js)
	if err != nil {
		t.Fatalf("ParseJSON: %v", err)
	}
	if !reflect.DeepEqual(doc, back) {
		t.Errorf("JSON round trip lost data (render, parse, compare Doc)")
	}

	cs, err := report.RenderCSV(doc)
	if err != nil {
		t.Fatalf("RenderCSV: %v", err)
	}
	rd := csv.NewReader(strings.NewReader(cs))
	rd.Comment = '#'
	rd.FieldsPerRecord = -1
	if _, err := rd.ReadAll(); err != nil {
		t.Errorf("CSV rendering does not parse: %v", err)
	}

	want, err := os.ReadFile(goldenPath(goldenID))
	if err != nil {
		t.Fatalf("missing golden for %s: %v", goldenID, err)
	}
	if got := report.RenderText(doc); got != string(want) {
		t.Errorf("%s: RenderText drifted from the seed golden (%d vs %d bytes)\n%s",
			goldenID, len(got), len(want), firstDiff(got, string(want)))
	}
	if got := r.Render(); got != string(want) {
		t.Errorf("%s: Render() is no longer RenderText(Report())", goldenID)
	}
}

// TestRendererRoundTrips covers all 16 artifacts: the paper's 12, the
// cross-scenario comparison, the two sweep-campaign views, and figure9 on
// the cxl-gen5 scenario. The quick tier covers the two data-backed
// artifacts; the full tier runs the whole set off the shared suite's
// memoized profiles.
func TestRendererRoundTrips(t *testing.T) {
	s := testSuite()
	for _, id := range IDs {
		id := id
		t.Run(id, func(t *testing.T) {
			if testing.Short() && !shortGoldenIDs[id] {
				t.Skip("profiled artifact; round-tripped by the full (nightly) tier")
			}
			r, err := s.Run(id)
			if err != nil {
				t.Fatal(err)
			}
			roundTrip(t, r, id)
		})
	}
	t.Run("figure9@cxl-gen5", func(t *testing.T) {
		skipShort(t)
		sp, err := scenario.Get("cxl-gen5")
		if err != nil {
			t.Fatal(err)
		}
		sc := NewSuiteForShared(sp, nil)
		sc.Profiler = testSuite().profilerFor(sp)
		roundTrip(t, sc.Figure9(), "figure9@cxl-gen5")
	})
}

// TestCanonicalID pins alias resolution: figure aliases map to their
// canonical artifact id, canonical ids map to themselves, and unknown ids
// error.
func TestCanonicalID(t *testing.T) {
	for _, id := range IDs {
		if got, err := CanonicalID(id); err != nil || got != id {
			t.Errorf("CanonicalID(%q) = %q, %v", id, got, err)
		}
	}
	for alias, want := range map[string]string{"fig1": "figure1", "fig9": "figure9", "fig13": "figure13"} {
		if got, err := CanonicalID(alias); err != nil || got != want {
			t.Errorf("CanonicalID(%q) = %q, %v; want %q", alias, got, err, want)
		}
	}
	for _, bad := range []string{"figure99", "fig", "tab1", "figtable1", "figscenarios", ""} {
		if _, err := CanonicalID(bad); err == nil {
			t.Errorf("CanonicalID(%q) should error", bad)
		}
	}
}

// TestHeadlineContract pins the Headline field's documented contract: the
// (0,1)-exclusive range is honored, anything outside it falls back to the
// paper's 0.50 split, and NewSuiteForShared rejects invalid specs loudly
// instead of silently clamping.
func TestHeadlineContract(t *testing.T) {
	s := NewSuite(machine.Default())
	for _, bad := range []float64{-0.5, 0, 1, 1.5} {
		s.Headline = bad
		if got := s.headline(); got != 0.50 {
			t.Errorf("Headline=%v: headline() = %v, want the documented 0.50 fallback", bad, got)
		}
	}
	s.Headline = 0.25
	if got := s.headline(); got != 0.25 {
		t.Errorf("Headline=0.25: headline() = %v", got)
	}

	// Valid scenario specs construct fine and install their headline.
	sp := scenario.Default()
	sp.HeadlineFraction = 0.75
	if got := NewSuiteForShared(sp, nil).headline(); got != 0.75 {
		t.Errorf("NewSuiteForShared installed headline %v, want 0.75", got)
	}

	// Out-of-range specs are a construction bug and panic with the
	// validation error rather than silently running at 50%.
	for _, bad := range []float64{0, 1, 2.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSuiteForShared with HeadlineFraction=%v should panic", bad)
				}
			}()
			sp := scenario.Default()
			sp.HeadlineFraction = bad
			NewSuiteForShared(sp, nil)
		}()
	}
}
