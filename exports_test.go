package holistic

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unusedExportExemptions are the exported internal funcs that stay without
// a production caller on purpose: FromLetters is the inverse of Set.String
// that the tests of several packages share, and Fired and Reset act on
// fault-registry state only package faults holds.
var unusedExportExemptions = map[string]bool{
	"holistic/internal/bitset.FromLetters": true,
	"holistic/internal/faults.Fired":       true,
	"holistic/internal/faults.Reset":       true,
}

// errorChainMethods are the methods errors.Is, errors.As and errors.Unwrap
// call through interfaces declared inside their bodies, which export data
// does not show.
var errorChainMethods = map[string]bool{"Unwrap": true, "Is": true, "As": true}

// TestInternalExportsHaveCallers keeps test-only code out of the production
// packages: every exported func or method declared in a non-test file under
// internal/ (outside internal/oracle, the test-only reference package) must
// be used by the non-test code of this module or of perfbench/ somewhere
// outside its own declaration. Methods that satisfy an interface are exempt,
// since their calls go through the interface, and so are the error-chain
// methods. The check type-checks the
// non-test files of every package with go/types.
func TestInternalExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	m := &moduleChecker{
		fset:    fset,
		files:   make(map[string][]*ast.File),
		checked: make(map[string]*types.Package),
		std:     importer.Default(),
		info: &types.Info{
			Defs:  make(map[*ast.Ident]types.Object),
			Uses:  make(map[*ast.Ident]types.Object),
			Types: make(map[ast.Expr]types.TypeAndValue),
		},
	}
	for _, mod := range []struct{ dir, path string }{{".", "holistic"}, {"perfbench", "holistic/perfbench"}} {
		if err := m.parse(mod.dir, mod.path); err != nil {
			t.Fatal(err)
		}
	}
	paths := make([]string, 0, len(m.files))
	for path := range m.files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := m.Import(path); err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
	}

	// uses maps each used func to the positions of its uses.
	uses := make(map[types.Object][]token.Pos)
	for id, obj := range m.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			uses[fn.Origin()] = append(uses[fn.Origin()], id.Pos())
		}
	}
	ifaces := m.interfaces()

	for _, path := range paths {
		if !strings.HasPrefix(path, "holistic/internal/") || path == "holistic/internal/oracle" {
			continue
		}
		for _, f := range m.files[path] {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := m.info.Defs[fd.Name].(*types.Func)
				if fd.Recv == nil && unusedExportExemptions[path+"."+fn.Name()] {
					continue
				}
				if fd.Recv != nil && (errorChainMethods[fn.Name()] || satisfiesInterface(fn, ifaces)) {
					continue
				}
				used := false
				for _, pos := range uses[fn] {
					if pos < fd.Pos() || pos >= fd.End() {
						used = true
						break
					}
				}
				if !used {
					t.Errorf("%s: exported %s has no non-test use outside its declaration",
						fset.Position(fd.Pos()), fn.FullName())
				}
			}
		}
	}
}

// moduleChecker type-checks the non-test files of the module's packages,
// importing them from source and the standard library from export data.
type moduleChecker struct {
	fset    *token.FileSet
	files   map[string][]*ast.File // non-test files by import path
	checked map[string]*types.Package
	std     types.Importer
	info    *types.Info
}

// parse reads the non-test Go files under dir, a module rooted at modPath.
// Nested modules, hidden directories and testdata are skipped.
func (m *moduleChecker) parse(dir, modPath string) error {
	return filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != dir && (strings.HasPrefix(name, ".") || name == "testdata" || pathExists(filepath.Join(path, "go.mod"))) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(m.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, filepath.Dir(path))
		if err != nil {
			return err
		}
		importPath := modPath
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		m.files[importPath] = append(m.files[importPath], f)
		return nil
	})
}

// pathExists reports whether path names an existing file.
func pathExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// Import implements types.Importer: module packages are type-checked from
// their parsed files (once), everything else comes from the standard
// importer.
func (m *moduleChecker) Import(path string) (*types.Package, error) {
	if pkg, ok := m.checked[path]; ok {
		return pkg, nil
	}
	files, ok := m.files[path]
	if !ok {
		return m.std.Import(path)
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.checked[path] = pkg
	return pkg, nil
}

// interfaces collects every non-empty method-set interface the module can
// see: the named interfaces of its packages and of the packages they import,
// every interface-typed expression in its code, and error.
func (m *moduleChecker) interfaces() []*types.Interface {
	var out []*types.Interface
	add := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
			out = append(out, it)
		}
	}
	seen := make(map[*types.Package]bool)
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); !ok || named.TypeParams() == nil {
					add(tn.Type())
				}
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range m.checked {
		visit(pkg)
	}
	for _, tv := range m.info.Types {
		if tv.Type != nil {
			add(tv.Type)
		}
	}
	add(types.Universe.Lookup("error").Type())
	return out
}

// satisfiesInterface reports whether the method fn is part of an interface
// its receiver type implements.
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() != fn.Name() {
				continue
			}
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
	}
	return false
}
