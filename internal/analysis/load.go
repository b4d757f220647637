package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// File is one parsed source file plus the metadata checks scope on.
type File struct {
	Ast      *ast.File
	Filename string
	Test     bool // *_test.go
}

// Package is one type-checked analysis unit. For a directory with in-package
// test files the unit contains both the library files and the tests, so a
// single pass over Files covers everything; an external test package
// (package foo_test) is a separate Package.
type Package struct {
	// Path is the import path ("decamouflage/internal/scaling"); external
	// test packages carry the ".test" suffix convention ("..._test").
	Path  string
	Fset  *token.FileSet
	Files []*File
	Pkg   *types.Package
	Info  *types.Info
}

// HasSuffix reports whether the package's import path equals suffix or ends
// with "/"+suffix. All check scoping uses this, so fixtures under testdata
// mirror the real module layout instead of needing their own config.
func (p *Package) HasSuffix(suffix string) bool {
	return p.Path == suffix || strings.HasSuffix(p.Path, "/"+suffix)
}

// loader type-checks a module from source with no toolchain dependency
// beyond the standard library: module-internal imports are resolved by
// recursively loading their directory, everything else falls through to the
// stdlib source importer.
type loader struct {
	fset    *token.FileSet
	root    string // absolute module root
	modPath string
	std     types.Importer
	// libs caches the import-facing unit (non-test files only) per path.
	libs map[string]*types.Package
}

// Import implements types.Importer for module-internal and stdlib paths.
func (l *loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.libs[path]; ok {
		return pkg, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
		pkg, err := l.loadLib(filepath.Join(l.root, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		l.libs[path] = pkg
		return pkg, nil
	}
	return l.std.Import(path)
}

// withTestUnit imports path as its library+in-package-test unit and every
// other path through the loader: the importer of an external test unit.
type withTestUnit struct {
	l    *loader
	path string
	pkg  *types.Package
}

// Import implements types.Importer.
func (w withTestUnit) Import(path string) (*types.Package, error) {
	if path == w.path {
		return w.pkg, nil
	}
	return w.l.Import(path)
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
}

// parseDir parses every .go file in dir (no recursion), split into library
// files, in-package test files, and external (_test package) test files.
// It keeps the files `go build ./...` compiles with no -tags: a
// //go:build line sees the target's GOOS, GOARCH and toolchain tags and no
// user tag, so a tag-gated alternate file (e.g. the noobs variant of a const pair) is
// skipped and its `//go:build !tag` counterpart stays in, and a
// _GOOS/_GOARCH file name keeps only the target's variant of an
// architecture-specific pair.
func (l *loader) parseDir(dir string) (lib, inTest, extTest []*File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, e.Name()); err != nil {
			return nil, nil, nil, err
		} else if !ok {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		full := filepath.Join(dir, name)
		f, err := parser.ParseFile(l.fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, nil, nil, err
		}
		file := &File{Ast: f, Filename: full, Test: strings.HasSuffix(name, "_test.go")}
		switch {
		case !file.Test:
			lib = append(lib, file)
		case strings.HasSuffix(f.Name.Name, "_test"):
			extTest = append(extTest, file)
		default:
			inTest = append(inTest, file)
		}
	}
	return lib, inTest, extTest, nil
}

func (l *loader) check(path string, files []*File, info *types.Info, imp types.Importer) (*types.Package, error) {
	asts := make([]*ast.File, len(files))
	for i, f := range files {
		asts[i] = f.Ast
	}
	cfg := types.Config{Importer: imp}
	pkg, err := cfg.Check(path, l.fset, asts, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return pkg, nil
}

// loadLib type-checks only the non-test files of dir — the unit other
// packages import.
func (l *loader) loadLib(dir, path string) (*types.Package, error) {
	lib, _, _, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(lib) == 0 {
		return nil, fmt.Errorf("no buildable Go files in %s", dir)
	}
	return l.check(path, lib, newInfo(), l)
}

// loadUnits builds the analysis units for dir: the combined
// library+in-package-test unit, and the external test unit if present.
func (l *loader) loadUnits(dir, path string) ([]*Package, error) {
	lib, inTest, extTest, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	var units []*Package
	if len(lib)+len(inTest) > 0 {
		info := newInfo()
		pkg, err := l.check(path, append(append([]*File{}, lib...), inTest...), info, l)
		if err != nil {
			return nil, err
		}
		units = append(units, &Package{
			Path: path, Fset: l.fset,
			Files: append(append([]*File{}, lib...), inTest...),
			Pkg:   pkg, Info: info,
		})
	}
	if len(extTest) > 0 {
		// As under go test, the external tests import the package with its
		// in-package test files, so names an export_test.go file declares
		// resolve.
		imp := types.Importer(l)
		if len(units) > 0 {
			imp = withTestUnit{l, path, units[0].Pkg}
		}
		info := newInfo()
		pkg, err := l.check(path+"_test", extTest, info, imp)
		if err != nil {
			return nil, err
		}
		units = append(units, &Package{
			Path: path + "_test", Fset: l.fset, Files: extTest, Pkg: pkg, Info: info,
		})
	}
	return units, nil
}

// modulePath reads the module directive from root/go.mod, falling back to
// the directory base name (the convention testdata fixtures rely on).
func modulePath(root string) string {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if rest, ok := strings.CutPrefix(line, "module "); ok {
				return strings.TrimSpace(rest)
			}
		}
	}
	return filepath.Base(root)
}

// LoadModule parses and type-checks every package under root. Directories
// named testdata, vendor, or starting with "." or "_" are skipped, matching
// the go tool's convention. The returned packages are sorted by path.
func LoadModule(root string) ([]*Package, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &loader{
		fset:    fset,
		root:    abs,
		modPath: modulePath(abs),
		std:     importer.ForCompiler(fset, "source", nil),
		libs:    map[string]*types.Package{},
	}
	var dirs []string
	err = filepath.WalkDir(abs, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != abs && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") {
			if dir := filepath.Dir(p); len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(abs, dir)
		if err != nil {
			return nil, err
		}
		path := l.modPath
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		units, err := l.loadUnits(dir, path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, units...)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}
