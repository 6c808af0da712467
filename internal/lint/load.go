package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the import path ("repro/internal/core").
	Path string
	// Dir is the package directory on disk.
	Dir string
	// Fset maps positions for Files.
	Fset *token.FileSet
	// Files are the parsed non-test sources, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds expression types, uses, defs and selections for Files.
	Info *types.Info
	// Kind classifies the package for analyzer scoping.
	Kind Kind
}

// enginePackages are the deterministic core: every package whose rendered
// output must be byte-identical at any -j, plus memo, whose eviction
// decides which engine results stay memoized. Benchmark and serving
// packages (lbench, jobs, api, trace) are deliberately absent — they
// measure wall-clock time and manage detached lifecycles by design.
var enginePackages = map[string]bool{
	"repro/internal/core":        true,
	"repro/internal/memo":        true,
	"repro/internal/sched":       true,
	"repro/internal/sweep":       true,
	"repro/internal/experiments": true,
	"repro/internal/machine":     true,
	"repro/internal/stats":       true,
	"repro/internal/scenario":    true,
	"repro/internal/report":      true,
}

// Classify derives a package's Kind from its import path relative to the
// module root.
func Classify(modPath, pkgPath string) Kind {
	rel := strings.TrimPrefix(strings.TrimPrefix(pkgPath, modPath), "/")
	switch {
	case strings.HasPrefix(rel, "cmd/") || strings.HasPrefix(rel, "examples/"):
		return KindMain
	case rel == "":
		return KindLibrary | KindSurface
	case enginePackages[pkgPath]:
		return KindLibrary | KindEngine
	}
	return KindLibrary
}

// LoadModule walks the module rooted at root (the directory holding
// go.mod), parses every package matched by patterns, and type-checks each
// one against the stdlib source importer — no toolchain beyond the go
// distribution itself, no external modules. Patterns are "./..." (the
// whole module) or "./"-relative directories; an empty list means "./...".
func LoadModule(root string, patterns []string) ([]*Package, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	dirs, err := selectDirs(root, patterns)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	// One source importer shared by every package: dependencies are parsed
	// and checked once, from source, with positions in the same fset.
	imp := importer.ForCompiler(fset, "source", nil)

	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := loadDir(fset, imp, modPath, root, dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// loadDir parses and type-checks the single package in dir, or returns
// (nil, nil) when dir holds no non-test Go files.
func loadDir(fset *token.FileSet, imp types.Importer, modPath, root, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}

	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	path := modPath
	if rel != "." {
		path = modPath + "/" + filepath.ToSlash(rel)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	return &Package{
		Path:  path,
		Dir:   dir,
		Fset:  fset,
		Files: files,
		Types: tpkg,
		Info:  info,
		Kind:  Classify(modPath, path),
	}, nil
}

// selectDirs resolves patterns to package directories under root, skipping
// testdata, hidden directories and VCS metadata. "./..." (or the empty
// pattern list) selects every directory; "dir/..." selects a subtree; a
// plain directory selects itself.
func selectDirs(root string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := map[string]bool{}
	var out []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			out = append(out, dir)
		}
	}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "" || pat == "." {
				pat = "."
			}
		}
		base := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
		st, err := os.Stat(base)
		if err != nil {
			return nil, fmt.Errorf("pattern %q: %w", pat, err)
		}
		if !st.IsDir() {
			return nil, fmt.Errorf("pattern %q: not a directory", pat)
		}
		if !recursive {
			add(base)
			continue
		}
		err = filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			add(p)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}

// modulePath reads the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module declaration", gomod)
}
