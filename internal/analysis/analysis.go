// Package analysis is the dependency-free static-analysis framework
// behind cmd/tdlint. It mirrors the shape of golang.org/x/tools/go/
// analysis — an Analyzer carries a Run function over a type-checked
// Pass and reports Diagnostics — but is built entirely on the standard
// library (go/parser, go/types, go/importer), so the linter adds no
// module dependencies.
//
// The framework exists to turn the pipeline's hardest-won dynamic
// properties — bit-deterministic training across GOMAXPROCS settings,
// byte-identical models with telemetry on or off, nil-safe zero-cost
// telemetry — into statically checked contracts. Each analyzer in
// internal/analysis/analyzers guards one such invariant; the driver in
// internal/analysis/driver applies them with suppression handling;
// cmd/tdlint is the CLI front end wired into `make lint`.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"temporaldoc/internal/analysis/callgraph"
	"temporaldoc/internal/analysis/facts"
)

// Analyzer is one named static check.
type Analyzer struct {
	// Name identifies the check in diagnostics and //lint:ignore
	// comments. Lowercase, no spaces.
	Name string
	// Doc is a one-paragraph description of the invariant the check
	// guards, shown by `tdlint -help`.
	Doc string
	// Facts, when non-nil, makes the analyzer interprocedural: the
	// driver runs it once per package in dependency order, before any
	// Run, to compute per-function summaries into pass.Facts. Each
	// package's facts are sealed (serialized) before its importers run,
	// so summaries cross package boundaries the same way export data
	// does. Facts must not report diagnostics — that is Run's job.
	Facts func(pass *Pass) error
	// Run inspects one type-checked package and reports findings via
	// pass.Reportf. A non-nil error aborts the whole lint run (reserved
	// for internal failures, not findings).
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the parsed non-test sources of the package, with
	// comments (suppressions are comment-driven).
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	// Graph is the whole-program call graph over every analyzed
	// package. Nil when the driver ran without interprocedural context.
	Graph *callgraph.Graph
	// Facts is this analyzer's cross-package fact store; non-nil only
	// for analyzers that declare a Facts phase.
	Facts *facts.Store

	report func(Diagnostic)
}

// NewPass assembles a pass that forwards findings to report. The driver
// owns construction; tests may build passes directly.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, report func(Diagnostic)) *Pass {
	return &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, Info: info, report: report}
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:     pos,
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil when untracked.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Info.TypeOf(e)
}

// Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	Pos     token.Pos
	Check   string
	Message string
}

// Position resolves a diagnostic against a file set.
func (d Diagnostic) Position(fset *token.FileSet) token.Position {
	return fset.Position(d.Pos)
}
