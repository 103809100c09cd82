// Package load turns Go package patterns into parsed, type-checked
// packages using only the standard library and the go tool itself: it
// shells out to `go list -export -deps -json` for package metadata and
// compiled export data, parses the main-module sources with go/parser,
// and type-checks them with go/types against a gc-export-data importer.
// This is the subset of golang.org/x/tools/go/packages that tdlint
// needs, without the dependency.
package load

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked main-module package.
type Package struct {
	ImportPath string
	Dir        string
	// Files are the parsed non-test sources (comments included), in the
	// build-order go list reports.
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Result is the outcome of one Packages call.
type Result struct {
	Fset *token.FileSet
	// Packages holds the type-checked main-module packages matched by
	// the patterns, sorted by import path.
	Packages []*Package
	// ModuleDir is the main module root, for rendering relative paths.
	ModuleDir string
}

// listPkg is the subset of `go list -json` output the loader reads.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Module     *struct {
		Path string
		Dir  string
		Main bool
	}
	Error *struct{ Err string }
}

// goList runs `go list` in dir and decodes its JSON package stream.
func goList(dir string, patterns []string) ([]listPkg, error) {
	args := []string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,Module,Error",
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Importer returns a types.Importer that reads gc export data through
// the given import-path → file table.
func Importer(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
}

// NewInfo returns a types.Info with every map analyzers rely on
// populated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// Packages loads, parses and type-checks the main-module packages
// matched by patterns, rooted at dir. Dependencies (the standard
// library included) come from compiled export data, so only the
// analyzed sources are parsed.
func Packages(dir string, patterns ...string) (*Result, error) {
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	res := &Result{Fset: fset}
	exports := make(map[string]string, len(pkgs))
	var targets []listPkg
	for _, p := range pkgs {
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.Module != nil && p.Module.Main {
			res.ModuleDir = p.Module.Dir
			if len(p.GoFiles) > 0 {
				targets = append(targets, p)
			}
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	imp := Importer(fset, exports)
	for _, p := range targets {
		files := make([]*ast.File, 0, len(p.GoFiles))
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("parsing %s: %v", name, err)
			}
			files = append(files, f)
		}
		info := NewInfo()
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
		}
		res.Packages = append(res.Packages, &Package{
			ImportPath: p.ImportPath,
			Dir:        p.Dir,
			Files:      files,
			Types:      tpkg,
			Info:       info,
		})
	}
	return res, nil
}

// DependencyOrder topologically sorts pkgs so every package follows all
// of its in-set dependencies — the order fact computation must run in.
// Ties (and everything else) stay deterministic: the walk visits
// packages and imports in sorted order.
func DependencyOrder(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	seen := make(map[string]bool, len(pkgs))
	out := make([]*Package, 0, len(pkgs))
	var visit func(p *Package)
	visit = func(p *Package) {
		if seen[p.ImportPath] {
			return
		}
		seen[p.ImportPath] = true
		imports := p.Types.Imports()
		paths := make([]string, 0, len(imports))
		for _, imp := range imports {
			paths = append(paths, imp.Path())
		}
		sort.Strings(paths)
		for _, path := range paths {
			if dep, ok := byPath[path]; ok {
				visit(dep)
			}
		}
		out = append(out, p)
	}
	sorted := append([]*Package(nil), pkgs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ImportPath < sorted[j].ImportPath })
	for _, p := range sorted {
		visit(p)
	}
	return out
}
