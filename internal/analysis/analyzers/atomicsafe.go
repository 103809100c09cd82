package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"temporaldoc/internal/analysis"
)

// AtomicSafe forbids mixed access models: a struct field that is
// managed by sync/atomic — either declared as an atomic.* type or
// passed by address to a sync/atomic function anywhere in its declaring
// package — must never be read or written plainly. A plain access next
// to atomic ones is a data race the race detector only catches when
// the schedule cooperates; this check catches it at lint time, and
// also catches what vet's copylocks misses, such as overwriting an
// atomic.Int64 field with a fresh zero value.
func AtomicSafe() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name:  "atomicsafe",
		Doc:   "fields managed by sync/atomic must never be accessed plainly",
		Facts: atomicFacts,
		Run:   runAtomicSafe,
	}
}

// atomicFieldFact registers a plain field accessed through sync/atomic
// package functions, keyed by "pkgpath.Type.field". Fields declared as
// atomic.* types need no registry: their type says it.
const atomicFieldFact = "atomicfield"

// atomicFacts registers the package's plain fields whose address feeds
// a sync/atomic call. Registration stays in the declaring package so
// results cannot depend on which importers happen to be analyzed.
func atomicFacts(pass *analysis.Pass) error {
	if pass.Facts == nil {
		return fmt.Errorf("atomicsafe needs cross-package facts")
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
			if fid, fld, ok := atomicFieldID(pass, sel); ok && fld.Pkg() == pass.Pkg {
				pass.Facts.PutID(fid, atomicFieldFact, "")
			}
			return true
		})
	}
	return nil
}

// runAtomicSafe reports plain accesses of registered atomic fields.
func runAtomicSafe(pass *analysis.Pass) error {
	if pass.Facts == nil {
		return fmt.Errorf("atomicsafe needs cross-package facts")
	}
	for _, f := range pass.Files {
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
				if _, ok := pass.Facts.Get(fid, atomicFieldFact); !ok {
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
