// Package driver applies analyzers to loaded packages and owns the one
// escape hatch: in-source suppressions (//lint:ignore with a mandatory
// reason), reviewed in source beside the code they excuse. The lint
// gate itself never silently drops a finding.
//
// For interprocedural analyzers (those with a Facts phase) the driver
// is also the dataflow conductor: it builds the whole-program call
// graph once, then analyzes the packages one at a time in dependency
// order, sealing every package's facts into a serialized blob before
// its importers run — the same shape in which the loader shares
// compiled export data.
package driver

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"temporaldoc/internal/analysis"
	"temporaldoc/internal/analysis/callgraph"
	"temporaldoc/internal/analysis/facts"
	"temporaldoc/internal/analysis/load"
)

// Options configures one lint run.
type Options struct {
	// Exclude maps an analyzer name to module-relative path substrings
	// where the check does not apply (policy decisions, e.g. the time
	// rule is off inside the telemetry package that implements timers).
	Exclude map[string][]string
	// Checks restricts the run to the named analyzers; empty runs all.
	Checks []string
	// Stats, when non-nil, accumulates per-analyzer wall time across all
	// packages, split into facts and run phases.
	Stats *Stats
}

// Stats accumulates per-analyzer time, split by phase (facts phases
// dominate for the interprocedural analyzers).
type Stats struct {
	facts map[string]time.Duration
	run   map[string]time.Duration
}

// NewStats returns an empty accumulator.
func NewStats() *Stats {
	return &Stats{facts: map[string]time.Duration{}, run: map[string]time.Duration{}}
}

// Table renders one "analyzer facts run total" row per analyzer,
// slowest total first (ties by name), for the -v timing report.
func (s *Stats) Table() string {
	names := map[string]bool{}
	for n := range s.facts {
		names[n] = true
	}
	for n := range s.run {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	total := func(n string) time.Duration { return s.facts[n] + s.run[n] }
	sort.Slice(sorted, func(i, j int) bool {
		if total(sorted[i]) != total(sorted[j]) {
			return total(sorted[i]) > total(sorted[j])
		}
		return sorted[i] < sorted[j]
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %12s %12s %12s\n", "analyzer", "facts", "run", "total")
	for _, n := range sorted {
		fmt.Fprintf(&b, "%-16s %12v %12v %12v\n", n,
			s.facts[n].Round(time.Microsecond), s.run[n].Round(time.Microsecond),
			total(n).Round(time.Microsecond))
	}
	return b.String()
}

func (s *Stats) addFacts(name string, d time.Duration) {
	if s != nil {
		s.facts[name] += d
	}
}

func (s *Stats) addRun(name string, d time.Duration) {
	if s != nil {
		s.run[name] += d
	}
}

// Finding is one surviving diagnostic, resolved to a position.
type Finding struct {
	analysis.Diagnostic
	Position token.Position
	// RelPath is the module-relative source path used in output.
	RelPath string
}

// String renders the finding in the file:line:col: [check] message form
// the Makefile target prints.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s",
		f.RelPath, f.Position.Line, f.Position.Column, f.Check, f.Message)
}

// Run applies the selected analyzers to every loaded package and
// returns the findings that survive suppressions and path excludes,
// sorted by position. Suppression directives are validated against the
// whole suite in analyzers, not only the opts.Checks subset.
func Run(res *load.Result, analyzers []*analysis.Analyzer, opts Options) ([]Finding, error) {
	selected, err := selectAnalyzers(analyzers, opts.Checks)
	if err != nil {
		return nil, err
	}
	var diags []analysis.Diagnostic
	report := func(d analysis.Diagnostic) { diags = append(diags, d) }

	suite := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		suite[a.Name] = true
	}
	sup := newSuppressions()
	for _, pkg := range res.Packages {
		for _, f := range pkg.Files {
			sup.indexFile(res.Fset, f, suite, report)
		}
	}

	// Each analyzer with a facts phase gets its own store, filled
	// package by package in dependency order: a package's facts are
	// sealed before any importer's facts or run phase reads them.
	graph := buildGraph(res)
	stores := map[string]*facts.Store{}
	for _, a := range selected {
		if a.Facts != nil {
			stores[a.Name] = facts.NewStore()
		}
	}
	for _, pkg := range load.DependencyOrder(res.Packages) {
		if err := analyzePackage(res, graph, stores, selected, opts.Stats, report, pkg); err != nil {
			return nil, err
		}
	}

	var findings []Finding
	for _, d := range diags {
		pos := d.Position(res.Fset)
		rel := relPath(res.ModuleDir, pos.Filename)
		if sup.suppressed(d.Check, pos) || excluded(opts.Exclude[d.Check], rel) {
			continue
		}
		findings = append(findings, Finding{Diagnostic: d, Position: pos, RelPath: rel})
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.RelPath != b.RelPath {
			return a.RelPath < b.RelPath
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return findings, nil
}

// analyzePackage runs every selected analyzer over one package: facts
// phases first, each sealed immediately, then run phases reading
// through the sealed blobs.
func analyzePackage(res *load.Result, graph *callgraph.Graph, stores map[string]*facts.Store,
	selected []*analysis.Analyzer, stats *Stats, report func(analysis.Diagnostic), pkg *load.Package) error {
	newPass := func(a *analysis.Analyzer) *analysis.Pass {
		pass := analysis.NewPass(a, res.Fset, pkg.Files, pkg.Types, pkg.Info, report)
		pass.Graph = graph
		pass.Facts = stores[a.Name]
		return pass
	}
	for _, a := range selected {
		if a.Facts == nil {
			continue
		}
		store := stores[a.Name]
		if err := store.Begin(pkg.ImportPath); err != nil {
			return fmt.Errorf("%s: %v", a.Name, err)
		}
		t0 := time.Now()
		err := a.Facts(newPass(a))
		stats.addFacts(a.Name, time.Since(t0))
		if err != nil {
			return fmt.Errorf("%s: facts: %s: %v", a.Name, pkg.ImportPath, err)
		}
		if err := store.Seal(); err != nil {
			return fmt.Errorf("%s: %s: %v", a.Name, pkg.ImportPath, err)
		}
	}
	for _, a := range selected {
		t0 := time.Now()
		err := a.Run(newPass(a))
		stats.addRun(a.Name, time.Since(t0))
		if err != nil {
			return fmt.Errorf("%s: %s: %v", a.Name, pkg.ImportPath, err)
		}
	}
	return nil
}

// buildGraph adapts the loader's packages for the call-graph builder.
func buildGraph(res *load.Result) *callgraph.Graph {
	pkgs := make([]callgraph.Pkg, 0, len(res.Packages))
	for _, p := range res.Packages {
		pkgs = append(pkgs, callgraph.Pkg{Files: p.Files, Info: p.Info})
	}
	return callgraph.Build(pkgs)
}

func selectAnalyzers(all []*analysis.Analyzer, names []string) ([]*analysis.Analyzer, error) {
	if len(names) == 0 {
		return all, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, n := range names {
		a, ok := byName[strings.TrimSpace(n)]
		if !ok {
			return nil, fmt.Errorf("unknown check %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

func excluded(substrings []string, relPath string) bool {
	for _, s := range substrings {
		if strings.Contains(relPath, s) {
			return true
		}
	}
	return false
}

// relPath renders filename relative to the module root with forward
// slashes, falling back to the input on failure.
func relPath(moduleDir, filename string) string {
	if moduleDir == "" {
		return filename
	}
	rel, err := filepath.Rel(moduleDir, filename)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filename
	}
	return filepath.ToSlash(rel)
}
