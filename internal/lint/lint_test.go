package lint

import (
	"fmt"
	"go/importer"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// fixtureKinds maps each fixture package under testdata/src to the Kind it
// is analyzed as, standing in for the classification the real module gets
// from Classify.
var fixtureKinds = map[string]Kind{
	"determinism":  KindLibrary | KindEngine,
	"cachekeys":    KindLibrary,
	"errsentinel":  KindLibrary,
	"ctxflow":      KindLibrary,
	"exporteddocs": KindLibrary | KindSurface,
	"allowsyntax":  KindLibrary,
}

// fixtures loads every fixture package once, sharing a single fset and
// source importer so the stdlib is parsed and type-checked only once.
var fixtures struct {
	once sync.Once
	pkgs map[string]*Package
	err  error
}

func fixturePackage(t *testing.T, name string) *Package {
	t.Helper()
	fixtures.once.Do(func() {
		wd, err := os.Getwd()
		if err != nil {
			fixtures.err = err
			return
		}
		root := filepath.Dir(filepath.Dir(wd))
		modPath, err := modulePath(filepath.Join(root, "go.mod"))
		if err != nil {
			fixtures.err = err
			return
		}
		fset := token.NewFileSet()
		imp := importer.ForCompiler(fset, "source", nil)
		fixtures.pkgs = map[string]*Package{}
		for fixture, kind := range fixtureKinds {
			dir := filepath.Join(wd, "testdata", "src", fixture)
			pkg, err := loadDir(fset, imp, modPath, root, dir)
			if err != nil {
				fixtures.err = fmt.Errorf("fixture %s: %w", fixture, err)
				return
			}
			if pkg == nil {
				fixtures.err = fmt.Errorf("fixture %s: no Go files in %s", fixture, dir)
				return
			}
			pkg.Kind = kind
			fixtures.pkgs[fixture] = pkg
		}
	})
	if fixtures.err != nil {
		t.Fatalf("loading fixtures: %v", fixtures.err)
	}
	pkg := fixtures.pkgs[name]
	if pkg == nil {
		t.Fatalf("no fixture %q", name)
	}
	return pkg
}

// expectation is one parsed `// want <rule> "substring"` marker.
type expectation struct {
	line    int
	rule    string
	substr  string
	matched bool
}

var wantRe = regexp.MustCompile(`want\s+([a-z]+)\s+"([^"]*)"`)

// wantsOf collects the expectations declared in a fixture's comments; each
// marker expects a diagnostic on the marker's own line.
func wantsOf(pkg *Package) []*expectation {
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					out = append(out, &expectation{
						line:   pkg.Fset.Position(c.Pos()).Line,
						rule:   m[1],
						substr: m[2],
					})
				}
			}
		}
	}
	return out
}

// TestAnalyzersOnFixtures runs the full suite over each fixture package
// and requires the diagnostics to match the fixture's want markers exactly:
// every marker fires, nothing else does, and honored //repro:allow
// suppressions stay silent.
func TestAnalyzersOnFixtures(t *testing.T) {
	for _, fixture := range []string{"determinism", "cachekeys", "errsentinel", "ctxflow", "exporteddocs"} {
		t.Run(fixture, func(t *testing.T) {
			pkg := fixturePackage(t, fixture)
			diags := RunAnalyzers([]*Package{pkg}, Analyzers())
			wants := wantsOf(pkg)
			for _, d := range diags {
				ok := false
				for _, w := range wants {
					if !w.matched && w.line == d.Pos.Line && w.rule == d.Rule && strings.Contains(d.Message, w.substr) {
						w.matched = true
						ok = true
						break
					}
				}
				if !ok {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("missing diagnostic: line %d, rule %s, message containing %q", w.line, w.rule, w.substr)
				}
			}
		})
	}
}

// TestAllowSyntax exercises the suppression driver itself: a reason-less
// allow is reported and suppresses nothing, and an allow covering no
// diagnostic is reported as stale. The expectations live here rather than
// in want markers because the defects are the allow comments.
func TestAllowSyntax(t *testing.T) {
	pkg := fixturePackage(t, "allowsyntax")
	diags := RunAnalyzers([]*Package{pkg}, Analyzers())
	want := []struct {
		line   int
		rule   string
		substr string
	}{
		{12, "allow", "suppression without a reason"},
		{13, "errsentinel", "strings.Contains over err.Error()"},
		{18, "allow", "stale suppression"},
	}
	if len(diags) != len(want) {
		for _, d := range diags {
			t.Logf("got: %s", d)
		}
		t.Fatalf("got %d diagnostics, want %d", len(diags), len(want))
	}
	for i, w := range want {
		d := diags[i]
		if d.Pos.Line != w.line || d.Rule != w.rule || !strings.Contains(d.Message, w.substr) {
			t.Errorf("diagnostic %d = %s; want line %d, rule %s, message containing %q", i, d, w.line, w.rule, w.substr)
		}
	}
}

// TestRequiredSurfaceDrift verifies the typed symbol-drift gate: present
// symbols, methods and consts pass, while missing functions, types and
// methods each produce a drift diagnostic.
func TestRequiredSurfaceDrift(t *testing.T) {
	pkg := fixturePackage(t, "exporteddocs")
	RequiredSurface[pkg.Path] = []string{
		"Documented", "Documented.Render", "NewDocumented", "MaxCells", // present
		"Ghost", "GhostType.Render", "Documented.Missing", // gone
	}
	defer delete(RequiredSurface, pkg.Path)

	var drift []Diagnostic
	for _, d := range RunAnalyzers([]*Package{pkg}, Analyzers()) {
		if strings.Contains(d.Message, "public surface drifted") {
			drift = append(drift, d)
		}
	}
	for _, substr := range []string{
		"Ghost is gone",
		"type GhostType is gone",
		"method Documented.Missing is gone",
	} {
		found := false
		for _, d := range drift {
			if strings.Contains(d.Message, substr) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no drift diagnostic containing %q", substr)
		}
	}
	if len(drift) != 3 {
		for _, d := range drift {
			t.Logf("got: %s", d)
		}
		t.Errorf("got %d drift diagnostics, want 3", len(drift))
	}
}

// TestClassify pins the package-kind mapping the analyzer scoping depends
// on.
func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		path string
		kind Kind
	}{
		{"repro", KindLibrary | KindSurface},
		{"repro/internal/core", KindLibrary | KindEngine},
		{"repro/internal/report", KindLibrary | KindEngine},
		{"repro/internal/memo", KindLibrary | KindEngine},
		{"repro/internal/api", KindLibrary},
		{"repro/internal/jobs", KindLibrary},
		{"repro/internal/lbench", KindLibrary},
		{"repro/cmd/reprolint", KindMain},
		{"repro/cmd/repro", KindMain},
		{"repro/examples/quickstart", KindMain},
	} {
		if got := Classify("repro", tc.path); got != tc.kind {
			t.Errorf("Classify(repro, %s) = %d, want %d", tc.path, got, tc.kind)
		}
	}
}

// TestReprolintCleanOnRepo is the satellite guarantee: the suite runs
// clean over the real module, so any new violation fails the test tier as
// well as the CI reprolint step.
func TestReprolintCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module typecheck; the CI quick tier runs cmd/reprolint directly")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Dir(filepath.Dir(wd))
	pkgs, err := LoadModule(root, nil)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	for _, d := range RunAnalyzers(pkgs, Analyzers()) {
		t.Errorf("%s", d)
	}
}
