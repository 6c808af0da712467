package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/report"
	"repro/internal/scenario"
)

// update rewrites the golden artifact files instead of comparing against
// them:
//
//	go test ./internal/experiments -run Golden -update
//
// Review the diff before committing — the goldens pin the byte-identical
// guarantee of every rendered artifact.
var update = flag.Bool("update", false, "rewrite testdata/golden artifact files")

// shortGoldenIDs are the artifacts backed by static datasets (no workload
// execution), cheap enough for the quick tier to pin on every PR.
var shortGoldenIDs = map[string]bool{"figure1": true, "table1": true}

// goldenPath returns the committed location of an artifact's golden render.
func goldenPath(id string) string {
	return filepath.Join("testdata", "golden", id+".txt")
}

// checkGolden compares got against the committed golden file, or rewrites
// the file under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s — regenerate with `go test ./internal/experiments -run Golden -update` (%v)", path, err)
	}
	if got == string(want) {
		return
	}
	t.Errorf("%s: render drifted from the committed artifact (%d vs %d bytes)\n%s",
		path, len(got), len(want), firstDiff(got, string(want)))
}

// firstDiff locates the first differing line for a readable failure.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("first diff at line %d:\n  got:  %q\n  want: %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("one render is a prefix of the other (%d vs %d lines)", len(g), len(w))
}

// TestGoldenArtifacts pins every artifact's rendered bytes — the paper's 12
// plus the cross-scenario comparison. The suite shares the package test
// suite (paper defaults, Runs=100), so the goldens are byte-identical to
// `memdis <id>` and `memdis all` output; any behavioral drift in the
// machine model, the drivers, the RNG derivation or the text rendering
// fails this test. The quick tier pins only the data-backed artifacts.
func TestGoldenArtifacts(t *testing.T) {
	s := testSuite()
	for _, id := range IDs {
		id := id
		t.Run(id, func(t *testing.T) {
			if testing.Short() && !shortGoldenIDs[id] {
				t.Skip("profiled artifact; pinned by the full (nightly) tier")
			}
			r, err := s.Run(id)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, goldenPath(id), r.Render())
		})
	}
}

// jsonGoldenIDs are the artifacts whose JSON documents are pinned
// alongside the text goldens: the acceptance artifact of the capacity
// protocol (figure9), the scheduling study (figure13), the cross-scenario
// comparison, and the two sweep-campaign views — the machine-readable
// documents downstream diffing and serving lean on. Regenerated by the
// same flow:
//
//	go test ./internal/experiments -run Golden -update
var jsonGoldenIDs = []string{"figure9", "figure13", "scenarios", "sweep", "sensitivity"}

// TestGoldenJSONArtifacts pins the JSON renderings byte for byte — the
// schema-stability guarantee for machine consumers. The document gets the
// same platform stamp the artifact store applies, so each golden is
// exactly what `memdis -format json <id>` prints.
func TestGoldenJSONArtifacts(t *testing.T) {
	s := testSuite()
	for _, id := range jsonGoldenIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			skipShort(t)
			r, err := s.Run(id)
			if err != nil {
				t.Fatal(err)
			}
			d := r.Report()
			d.Platform = "baseline"
			out, err := report.RenderJSON(d)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join("testdata", "golden", id+".json"), out)
		})
	}
}

// TestGoldenFigure9OnCXLGen5 pins the acceptance artifact of the scenario
// subsystem: `memdis -platform cxl-gen5 figure9` — the paper's capacity
// sweep re-evaluated on a CXL-generation link, where the shifted R_BW
// reference changes the tuning verdicts.
func TestGoldenFigure9OnCXLGen5(t *testing.T) {
	skipShort(t)
	sp, err := scenario.Get("cxl-gen5")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSuiteForShared(sp, nil)
	// Share the package suite's memoized cxl-gen5 profiler (same platform),
	// so this golden rides on the profiling the scenario sweep already did.
	s.Profiler = testSuite().profilerFor(sp)
	checkGolden(t, goldenPath("figure9@cxl-gen5"), s.Figure9().Render())
}
