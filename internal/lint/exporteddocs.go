package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// RequiredSurface lists, per public-surface package path, the symbols the
// serving stack is built against: clients, the CLI and the CI smoke tests
// all assume these exist. A method is spelled "Type.Name". The analyzer
// reports any listed symbol missing from the package — the typed
// replacement for ci.yml's old grep-based symbol-drift gate.
var RequiredSurface = map[string][]string{
	"repro": {
		// Service construction and options (service.go).
		"Service", "New", "WithWorkers", "WithScenarios",
		// Core service surface.
		"Service.Artifact", "Service.Sweep", "Service.ProfileCacheStats",
		// Jobs surface (jobs.go).
		"WithJobStore", "WithJobDir", "NewDiskJobStore",
		"Service.SubmitSweep", "Service.ResumeJob", "Service.CancelJob", "Service.WaitJob",
		// Classification sentinels the HTTP envelope mapping depends on.
		"ErrUnknownJob", "ErrJobNotDone", "ErrUnknownJobArtifact", "ErrJobRecordModified",
		// Warming surface (warm.go) and HTTP mount (http.go).
		"WithWarm", "Service.StartWarm", "Service.Ready", "Service.Handler",
	},
}

// ExportedDocsAnalyzer enforces the public facade's documentation
// contract: every exported top-level symbol — functions, methods on
// exported types, types, vars and consts — carries a godoc comment, and
// the load-bearing surface symbols in RequiredSurface exist. It replaces
// the awk/grep godoc and symbol-drift gates that previously lived in
// ci.yml (and, unlike them, sees methods).
func ExportedDocsAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "exporteddocs",
		Doc:  "every exported symbol on the public facade has a godoc comment; the required surface exists",
		Appl: KindSurface,
		Run:  runExportedDocs,
	}
}

func runExportedDocs(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				checkFuncDoc(pass, d)
			case *ast.GenDecl:
				checkGenDoc(pass, d)
			}
		}
	}
	checkRequiredSurface(pass)
}

// checkFuncDoc requires a doc comment on exported functions and on
// methods of exported types.
func checkFuncDoc(pass *Pass, d *ast.FuncDecl) {
	if !d.Name.IsExported() {
		return
	}
	label := d.Name.Name
	if d.Recv != nil {
		if len(d.Recv.List) != 1 {
			return
		}
		recv := recvTypeName(pass.TypeOf(d.Recv.List[0].Type))
		if recv == "" || !ast.IsExported(recv) {
			return
		}
		label = recv + "." + label
	}
	if !hasDoc(d.Doc) {
		pass.Reportf(d.Name.Pos(), "exported %s has no doc comment", label)
	}
}

// hasDoc reports whether cg contains real documentation. //repro:allow
// directives are not documentation: a suppression must silence the
// diagnostic through the driver, not by impersonating a doc comment.
func hasDoc(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if strings.HasPrefix(c.Text, "//repro:allow") {
			continue
		}
		if strings.TrimSpace(strings.TrimLeft(c.Text, "/* ")) != "" {
			return true
		}
	}
	return false
}

// checkGenDoc requires doc comments on exported type, var and const
// specs. A spec inside a grouped declaration may inherit the group's doc
// only for var/const blocks (the conventional sentinel-list shape); every
// exported type documents itself.
func checkGenDoc(pass *Pass, d *ast.GenDecl) {
	groupDoc := hasDoc(d.Doc)
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if !s.Name.IsExported() {
				continue
			}
			if !hasDoc(s.Doc) && !(groupDoc && len(d.Specs) == 1) {
				pass.Reportf(s.Name.Pos(), "exported type %s has no doc comment", s.Name.Name)
			}
		case *ast.ValueSpec:
			specDoc := hasDoc(s.Doc)
			for _, name := range s.Names {
				if !name.IsExported() {
					continue
				}
				if !specDoc && !groupDoc {
					pass.Reportf(name.Pos(), "exported %s has no doc comment", name.Name)
				}
			}
		}
	}
}

// checkRequiredSurface verifies every symbol RequiredSurface lists for
// this package, reporting drift at the package clause of the first file.
func checkRequiredSurface(pass *Pass) {
	want := RequiredSurface[pass.Path]
	if len(want) == 0 || len(pass.Files) == 0 {
		return
	}
	pos := pass.Files[0].Name.Pos()
	scope := pass.Pkg.Scope()
	for _, sym := range want {
		typeName, method, isMethod := strings.Cut(sym, ".")
		if !isMethod {
			if scope.Lookup(sym) == nil {
				pass.Reportf(pos, "public surface drifted: %s is gone from package %s", sym, pass.Path)
			}
			continue
		}
		obj := scope.Lookup(typeName)
		tn, ok := obj.(*types.TypeName)
		if !ok {
			pass.Reportf(pos, "public surface drifted: type %s is gone from package %s", typeName, pass.Path)
			continue
		}
		if !hasMethod(tn.Type(), method) {
			pass.Reportf(pos, "public surface drifted: method %s is gone from package %s", sym, pass.Path)
		}
	}
}

// hasMethod reports whether *T (or T) has a method named name.
func hasMethod(t types.Type, name string) bool {
	for _, tt := range []types.Type{types.NewPointer(t), t} {
		ms := types.NewMethodSet(tt)
		for i := 0; i < ms.Len(); i++ {
			if ms.At(i).Obj().Name() == name {
				return true
			}
		}
	}
	return false
}
