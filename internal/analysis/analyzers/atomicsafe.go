package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"temporaldoc/internal/analysis"
)

// AtomicSafe guards the serving layer's snapshot discipline at the
// memory-model level. It enforces two contracts:
//
//  1. No mixed access models. A struct field that is managed by
//     sync/atomic — either declared as an atomic.* type or passed by
//     address to a sync/atomic function anywhere in its declaring
//     package — must never be read or written plainly. A plain access
//     next to atomic ones is a data race the race detector only
//     catches when the schedule cooperates; this check catches it at
//     lint time.
//
//  2. Pin the snapshot once. An atomic.Pointer/atomic.Value field is a
//     hot-swappable handle (serve's model snapshot is the archetype).
//     Loading it twice in one request/job flow — directly or through
//     any chain of calls — means a concurrent Store between the loads
//     hands the two halves of the flow different generations: the
//     mixed-model-response bug class. The facts phase counts load
//     sites per function, propagating through the call graph with
//     provenance chains like purity's, and the run phase reports any
//     function whose own flow pins the same field more than once.
//
// A call site into a callee that itself loads is charged as a single
// pin no matter how many loads the callee performs — the callee is
// reported separately, and double-charging every caller above it would
// bury the root cause in cascade noise.
func AtomicSafe() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name:    "atomicsafe",
		Version: "1",
		Doc: "fields managed by sync/atomic must never be accessed plainly, and an atomic.Pointer/" +
			"atomic.Value snapshot must be loaded at most once per request/job flow",
		Facts: atomicFacts,
		Run:   runAtomicSafe,
	}
}

const (
	// atomicFieldFact registers one atomic field, keyed by
	// "pkgpath.Type.field"; the detail is the atomic kind ("Int64",
	// "Pointer", ...) or "plain" for an ordinary field accessed through
	// sync/atomic package functions.
	atomicFieldFact = "atomicfield"
	// ptrLoadsFact carries a function's pointer-pin summary: one line
	// per loaded field with the site count and up to two provenance
	// chains.
	ptrLoadsFact = "ptrloads"
)

// pinInfo accumulates one function's load sites for one field.
type pinInfo struct {
	count  int
	chains []string
}

// atomicFacts registers the package's atomic fields and computes
// per-function pointer-pin summaries.
func atomicFacts(pass *analysis.Pass) error {
	if pass.Graph == nil || pass.Facts == nil {
		return fmt.Errorf("atomicsafe needs interprocedural context (call graph + facts)")
	}

	// Field registry: declared atomic.* fields of this package's named
	// structs, plus plain fields whose address feeds a sync/atomic call
	// (registration stays in the declaring package so results cannot
	// depend on which importers happen to be analyzed).
	kinds := map[string]string{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					kind := atomicKind(pass.TypeOf(field.Type))
					if kind == "" {
						continue
					}
					for _, name := range field.Names {
						kinds[pass.Pkg.Path()+"."+ts.Name.Name+"."+name.Name] = kind
					}
				}
			}
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if pkg, _ := calleePkgFunc(pass, call); pkg != "sync/atomic" || len(call.Args) == 0 {
				return true
			}
			u, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
			if !ok || u.Op != token.AND {
				return true
			}
			sel, ok := ast.Unparen(u.X).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fid, fld, ok := atomicFieldID(pass, sel)
			if !ok || fld.Pkg() != pass.Pkg {
				return true
			}
			if _, exists := kinds[fid]; !exists {
				kinds[fid] = "plain"
			}
			return true
		})
	}
	for fid, kind := range kinds {
		pass.Facts.PutID(fid, atomicFieldFact, kind)
	}

	// isPinnedField: is sel a pointer-style atomic field (local registry
	// first, imported packages' sealed registries second)?
	isPinnedField := func(sel *ast.SelectorExpr) (string, bool) {
		fid, _, ok := atomicFieldID(pass, sel)
		if !ok {
			return "", false
		}
		k := kinds[fid]
		if k == "" {
			k, _ = pass.Facts.Get(fid, atomicFieldFact)
		}
		if k == "Pointer" || k == "Value" {
			return fid, true
		}
		return "", false
	}

	// Pin counting: distinct syntactic sites per function that reach a
	// Load of each pinned field — direct x.f.Load() calls plus call
	// sites into callees that load (charged once per site). Function
	// literals, go statements and defers are separate flows/scopes and
	// do not charge the encloser.
	var fns []*types.Func
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, fn := range pass.Graph.Funcs() {
		if fn.Pkg() != pass.Pkg {
			continue
		}
		if decl := pass.Graph.Decl(fn); decl != nil && decl.Body != nil {
			fns = append(fns, fn)
			decls[fn] = decl
		}
	}
	summaries := map[*types.Func]string{}
	compute := func(fn *types.Func) string {
		out := map[string]*pinInfo{}
		add := func(fid, chain string) {
			p := out[fid]
			if p == nil {
				p = &pinInfo{}
				out[fid] = p
			}
			p.count++
			if len(p.chains) < 2 {
				p.chains = append(p.chains, chain)
			}
		}
		ast.Inspect(decls[fn].Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
				return false
			case *ast.CallExpr:
				if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Load" {
					if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
						if fid, ok := isPinnedField(inner); ok {
							pos := pass.Fset.Position(x.Pos())
							add(fid, fmt.Sprintf("%s.Load at %s:%d",
								shortFieldID(fid), filepath.Base(pos.Filename), pos.Line))
							return true
						}
					}
				}
				callee := staticCallee(pass.Info, x)
				if callee == nil {
					return true
				}
				var detail string
				if local, ok := summaries[callee]; ok {
					detail = local
				} else if d, ok := pass.Facts.GetFunc(callee, ptrLoadsFact); ok {
					detail = d
				} else {
					return true
				}
				for _, e := range parsePtrLoads(detail) {
					chain := chainName(pass.Pkg, callee)
					if len(e.chains) > 0 {
						chain += " → " + e.chains[0]
					}
					add(e.fid, chain)
				}
			}
			return true
		})
		return encodePtrLoads(out)
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			next := compute(fn)
			if summaries[fn] != next {
				summaries[fn] = next
				changed = true
			}
		}
	}
	for _, fn := range fns {
		if s := summaries[fn]; s != "" {
			pass.Facts.Put(fn, ptrLoadsFact, s)
		}
	}
	return nil
}

// runAtomicSafe reports plain accesses of registered atomic fields and
// multi-pin flows of pointer-style atomics.
func runAtomicSafe(pass *analysis.Pass) error {
	if pass.Facts == nil {
		return fmt.Errorf("atomicsafe needs interprocedural context (call graph + facts)")
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, ok := pass.Info.Defs[decl.Name].(*types.Func)
			if !ok {
				continue
			}
			detail, ok := pass.Facts.GetFunc(fn, ptrLoadsFact)
			if !ok {
				continue
			}
			for _, e := range parsePtrLoads(detail) {
				if e.count < 2 {
					continue
				}
				pass.Reportf(decl.Name.Pos(),
					"%s loads atomic snapshot %s %d times in one flow (%s); a concurrent Store between the loads mixes generations — pin one load per request/job and pass it down",
					decl.Name.Name, shortFieldID(e.fid), e.count, strings.Join(e.chains, "; "))
			}
		}
		inspectStack(f, func(stack []ast.Node) bool {
			sel, ok := stack[len(stack)-1].(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fid, fld, ok := atomicFieldID(pass, sel)
			if !ok {
				return true
			}
			kind := atomicKind(fld.Type())
			if kind == "" {
				k, ok := pass.Facts.Get(fid, atomicFieldFact)
				if !ok || k != "plain" {
					return true
				}
				kind = "plain"
			}
			if atomicAccessAllowed(pass, stack, kind) {
				return true
			}
			verb := "read"
			if isWriteContext(stack) {
				verb = "write"
			}
			if kind == "plain" {
				pass.Reportf(sel.Pos(),
					"plain %s of %s, which is accessed via sync/atomic elsewhere; mixing the two models is a data race — use the atomic API here too",
					verb, shortFieldID(fid))
			} else {
				pass.Reportf(sel.Pos(),
					"plain %s of atomic field %s (atomic.%s) bypasses the memory model; use its Load/Store/Add methods",
					verb, shortFieldID(fid), kind)
			}
			return true
		})
	}
	return nil
}

// atomicAccessAllowed decides whether the field selector at the top of
// stack is used through the atomic API: a method call on the atomic
// value (x.f.Load()), taking its address to alias it (&x.f — only
// meaningful for atomic-typed fields), or, for plain registered fields,
// an &x.f argument fed directly to a sync/atomic function.
func atomicAccessAllowed(pass *analysis.Pass, stack []ast.Node, kind string) bool {
	if len(stack) < 2 {
		return false
	}
	switch p := stack[len(stack)-2].(type) {
	case *ast.SelectorExpr:
		// x.f.Method — the selector is the receiver of an atomic-type
		// method (plain fields have no such methods, so kind != "plain"
		// is implied by the type checker).
		return kind != "plain"
	case *ast.UnaryExpr:
		if p.Op != token.AND {
			return false
		}
		if kind != "plain" {
			return true
		}
		if len(stack) >= 3 {
			if call, ok := stack[len(stack)-3].(*ast.CallExpr); ok {
				if pkg, _ := calleePkgFunc(pass, call); pkg == "sync/atomic" {
					return true
				}
			}
		}
	}
	return false
}

// isWriteContext reports whether the node at the top of stack is (part
// of) an assignment target or inc/dec operand.
func isWriteContext(stack []ast.Node) bool {
	for i := len(stack) - 1; i > 0; i-- {
		switch p := stack[i-1].(type) {
		case *ast.AssignStmt:
			for _, l := range p.Lhs {
				if l == stack[i] {
					return true
				}
			}
			return false
		case *ast.IncDecStmt:
			return p.X == stack[i]
		case *ast.SelectorExpr, *ast.ParenExpr, *ast.StarExpr, *ast.IndexExpr:
			// keep climbing lvalue chains
		default:
			return false
		}
	}
	return false
}

// atomicKind returns the sync/atomic type name of t ("Int64",
// "Pointer", ...) or "" when t is not a sync/atomic named type.
func atomicKind(t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Pkg() == nil {
		return ""
	}
	if named.Obj().Pkg().Path() != "sync/atomic" {
		return ""
	}
	return named.Obj().Name()
}

// atomicFieldID resolves a selector to a struct field and renders its
// stable identity "pkgpath.Type.field" (keyed on the receiver's named
// type, so embedded promotion keeps one identity per access path).
func atomicFieldID(pass *analysis.Pass, sel *ast.SelectorExpr) (string, *types.Var, bool) {
	selection, ok := pass.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return "", nil, false
	}
	fld, ok := selection.Obj().(*types.Var)
	if !ok {
		return "", nil, false
	}
	recv := selection.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Pkg() == nil {
		return "", nil, false
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + fld.Name(), fld, true
}

// shortFieldID drops the module-path noise from a field ID:
// "temporaldoc/internal/telemetry.Counter.v" → "telemetry.Counter.v".
func shortFieldID(fid string) string {
	if i := strings.LastIndex(fid, "/"); i >= 0 {
		return fid[i+1:]
	}
	return fid
}

// staticCallee resolves a call's static callee (plain function, method,
// or qualified package function), or nil for dynamic/builtin calls.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch e := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[e.Sel].(*types.Func)
		return fn
	}
	return nil
}

// ptrLoadEntry is one parsed line of a ptrloads summary.
type ptrLoadEntry struct {
	fid    string
	count  int
	chains []string
}

// encodePtrLoads renders pin summaries into the fact detail: one
// tab-separated line per field, sorted by field ID for determinism.
func encodePtrLoads(m map[string]*pinInfo) string {
	fids := make([]string, 0, len(m))
	for fid := range m {
		fids = append(fids, fid)
	}
	sort.Strings(fids)
	var lines []string
	for _, fid := range fids {
		p := m[fid]
		parts := append([]string{fid, strconv.Itoa(p.count)}, p.chains...)
		lines = append(lines, strings.Join(parts, "\t"))
	}
	return strings.Join(lines, "\n")
}

// parsePtrLoads inverts encodePtrLoads.
func parsePtrLoads(s string) []ptrLoadEntry {
	if s == "" {
		return nil
	}
	var out []ptrLoadEntry
	for _, line := range strings.Split(s, "\n") {
		parts := strings.Split(line, "\t")
		if len(parts) < 2 {
			continue
		}
		n, err := strconv.Atoi(parts[1])
		if err != nil {
			continue
		}
		out = append(out, ptrLoadEntry{fid: parts[0], count: n, chains: parts[2:]})
	}
	return out
}
