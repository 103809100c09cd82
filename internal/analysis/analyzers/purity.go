package analyzers

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"temporaldoc/internal/analysis"
)

// Purity is the interprocedural arm of the determinism contract. The
// intraprocedural determinism analyzer flags nondeterminism at the
// offending line; this one proves the *training paths* never reach such
// a line through any chain of calls, across package boundaries: a
// helper that draws from the global RNG poisons every entry point that
// can reach it, and the sequence-order-sensitive pipeline (ordered word
// vectors through per-category SOMs into recurrent LGP registers) turns
// that poison into silently irreproducible models.
//
// Mechanics: the facts phase records, per function, whether it
// *directly* touches an impurity source — a math/rand package-level
// call, a time.Now read outside the stopwatch pattern, or
// floating-point accumulation in map iteration order — then closes the
// relation over the call graph (function-value references included)
// within the package, consuming imported packages' sealed facts at the
// boundary. The run phase reports every entry point carrying an
// "impure" fact, with the offending call chain in the message.
//
// A function may opt out with a `//tdlint:impure <reason>` annotation
// in its doc comment: its own impurity is accepted and does not
// propagate to callers (the stated reason is the reviewable contract,
// e.g. a deliberately wall-clock-seeded demo). An annotation without a
// reason is itself a finding.
func Purity(entries []string, assumePure []string) *analysis.Analyzer {
	p := &purity{entries: entries, assumePure: assumePure}
	return &analysis.Analyzer{
		Name: "purity",
		Doc: "training-path entry points must not transitively reach global RNG, wall-clock reads " +
			"or map-order float accumulation (opt-out: //tdlint:impure <reason>)",
		Facts: p.facts,
		Run:   p.run,
	}
}

// impureFact is the fact name carrying the provenance chain.
const impureFact = "impure"

// impureDirective is the opt-out annotation.
const impureDirective = "tdlint:impure"

type purity struct {
	// entries are "pkgname.NamePrefix" patterns naming the training
	// entry points, matched against the package's base name and the
	// function or method name ("core.Classify" matches
	// (*core.Model).Classify and (*core.Model).ClassifyDoc alike).
	entries []string
	// assumePure lists import-path substrings whose packages are pure
	// by contract rather than by analysis — the telemetry package reads
	// the clock on purpose and is guarded dynamically by the
	// byte-identity regression test.
	assumePure []string
}

func (p *purity) isAssumedPure(pkgPath string) bool {
	for _, s := range p.assumePure {
		if strings.Contains(pkgPath, s) {
			return true
		}
	}
	return false
}

// facts computes this package's per-function impurity summaries:
// direct sources first, then a fixed-point closure over same-package
// calls, reading imported packages' sealed facts at the boundary.
func (p *purity) facts(pass *analysis.Pass) error {
	if p.isAssumedPure(pass.Pkg.Path()) {
		return nil
	}
	if pass.Graph == nil || pass.Facts == nil {
		return fmt.Errorf("purity needs interprocedural context (call graph + facts)")
	}

	// decls: this package's declared functions, in deterministic order.
	type fnInfo struct {
		fn      *types.Func
		decl    *ast.FuncDecl
		chain   string // impurity provenance ("" = clean so far)
		barrier bool   // //tdlint:impure opt-out: impurity stops here
	}
	var fns []*fnInfo
	byFunc := map[*types.Func]*fnInfo{}
	for _, fn := range pass.Graph.Funcs() {
		if fn.Pkg() != pass.Pkg {
			continue
		}
		node := pass.Graph.Node(fn)
		info := &fnInfo{fn: fn, decl: node.Decl}
		if node.Decl != nil {
			if ok, _ := funcDirective(node.Decl, impureDirective); ok {
				info.barrier = true
			}
		}
		fns = append(fns, info)
		byFunc[fn] = info
	}

	// Direct sources.
	for _, info := range fns {
		if info.barrier || info.decl == nil || info.decl.Body == nil {
			continue
		}
		info.chain = directImpurity(pass, info.decl)
	}

	// Fixed point over the call graph: a function is impure when any
	// callee is — same-package callees resolved live, imported ones
	// through their sealed facts, assume-pure packages never.
	for changed := true; changed; {
		changed = false
		for _, info := range fns {
			if info.barrier || info.chain != "" {
				continue
			}
			node := pass.Graph.Node(info.fn)
			if node == nil {
				continue
			}
			for _, call := range node.Calls {
				callee := call.Callee
				if calleePkg := callee.Pkg(); calleePkg == nil || p.isAssumedPure(calleePkg.Path()) {
					continue
				}
				var calleeChain string
				if local, ok := byFunc[callee]; ok {
					if local.barrier || local.chain == "" {
						continue
					}
					calleeChain = local.chain
				} else if chain, ok := pass.Facts.GetFunc(callee, impureFact); ok {
					calleeChain = chain
				} else {
					continue
				}
				info.chain = chainName(pass.Pkg, callee) + " → " + calleeChain
				changed = true
				break
			}
		}
	}

	for _, info := range fns {
		if info.chain != "" {
			pass.Facts.Put(info.fn, impureFact, info.chain)
		}
	}
	return nil
}

// run reports entry points carrying an impure fact, and annotation
// misuse (a //tdlint:impure without a reason).
func (p *purity) run(pass *analysis.Pass) error {
	if pass.Graph == nil || pass.Facts == nil {
		return fmt.Errorf("purity needs interprocedural context (call graph + facts)")
	}
	pkgBase := pass.Pkg.Name()
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if ok, reason := funcDirective(decl, impureDirective); ok && strings.TrimSpace(reason) == "" {
				pass.Reportf(decl.Pos(),
					"//tdlint:impure needs a reason: //tdlint:impure <why this function may be nondeterministic>")
			}
			if !p.isEntry(pkgBase, decl.Name.Name) {
				continue
			}
			fn, ok := pass.Info.Defs[decl.Name].(*types.Func)
			if !ok {
				continue
			}
			if chain, ok := pass.Facts.GetFunc(fn, impureFact); ok {
				pass.Reportf(decl.Name.Pos(),
					"%s is a training entry point but reaches nondeterminism: %s; thread seeded state through the chain, or annotate the boundary //tdlint:impure <reason>",
					decl.Name.Name, chain)
			}
		}
	}
	return nil
}

func (p *purity) isEntry(pkgBase, funcName string) bool {
	return matchesEntry(p.entries, pkgBase, funcName)
}

// matchesEntry matches a function against "pkgname.NamePrefix" entry
// patterns ("core.Classify" covers (*core.Model).Classify and
// (*core.Model).ClassifyDoc alike; a bare "pkg." covers the package's
// exported API). Shared by the purity and seedflow analyzers.
func matchesEntry(entries []string, pkgBase, funcName string) bool {
	for _, e := range entries {
		pkg, prefix, ok := strings.Cut(e, ".")
		if !ok || pkg != pkgBase {
			continue
		}
		if prefix == "" {
			// Bare "pkg." entries cover the package's exported API.
			if ast.IsExported(funcName) {
				return true
			}
			continue
		}
		if strings.HasPrefix(funcName, prefix) {
			return true
		}
	}
	return false
}

// directImpurity scans one declaration's body (closures included —
// they run on the encloser's behalf) for the three direct impurity
// sources and returns a one-hop provenance string, or "". The walk
// starts at the declaration so the stopwatch exemption can see the
// enclosing function.
func directImpurity(pass *analysis.Pass, decl *ast.FuncDecl) string {
	var sources []string
	inspectStack(decl, func(stack []ast.Node) bool {
		switch n := stack[len(stack)-1].(type) {
		case *ast.CallExpr:
			if name, ok := randGlobalCall(pass, n); ok {
				sources = append(sources, "math/rand."+name)
			} else if timeNowViolation(pass, n, stack) {
				sources = append(sources, "time.Now")
			}
		case *ast.RangeStmt:
			if len(mapOrderFloatFindings(pass, n)) > 0 {
				sources = append(sources, "map-order float accumulation")
			}
		}
		return true
	})
	if len(sources) == 0 {
		return ""
	}
	sort.Strings(sources)
	return sources[0]
}

// chainName renders a callee for provenance chains: bare "Fn" for
// same-package hops, "pkg.Fn" across a package boundary.
func chainName(from *types.Package, fn *types.Func) string {
	name := shortFuncName(fn)
	if fn.Pkg() == from {
		if _, local, ok := strings.Cut(name, "."); ok {
			return local
		}
	}
	return name
}

// shortFuncName renders a callee for provenance chains:
// "pkg.Fn" or "pkg.Recv.Method" without the module path noise.
func shortFuncName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + name
	}
	return name
}

// funcDirective scans a declaration's doc comment for a //tdlint:<name>
// directive, returning its presence and trailing argument.
func funcDirective(decl *ast.FuncDecl, directive string) (bool, string) {
	if decl.Doc == nil {
		return false, ""
	}
	for _, c := range decl.Doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		text = strings.TrimSpace(text)
		if text == directive {
			return true, ""
		}
		if strings.HasPrefix(text, directive+" ") {
			return true, strings.TrimSpace(text[len(directive)+1:])
		}
	}
	return false, ""
}
