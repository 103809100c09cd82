package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"temporaldoc/internal/analysis"
)

// ErrDrop flags discarded errors from the flush-shaped methods — Close,
// Flush, Sync, Write, WriteString — called as bare statements or defers.
// On a buffered or OS-level writer these are the calls that actually
// commit bytes; dropping their error turns a full disk or failed flush
// into a silently truncated model file (internal/core's persist path
// shipped exactly this bug once). Deliberate discards remain available
// as `_ = f.Close()` or a //lint:ignore with a reason.
//
// Two shapes are recognised as safe and allowed:
//
//   - receivers whose error is documented always-nil (strings.Builder,
//     bytes.Buffer);
//   - `defer f.Close()` on a file obtained from os.Open — a read-only
//     descriptor has nothing left to commit.
func ErrDrop() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "errdrop",
		Doc:  "flags discarded errors from Close/Flush/Sync/Write on writers in statement or defer position",
		Run:  runErrDrop,
	}
}

// flushMethods commit buffered state; their errors carry data loss.
var flushMethods = map[string]bool{
	"Close": true, "Flush": true, "Sync": true,
	"Write": true, "WriteString": true,
}

func runErrDrop(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		origins := callOrigins(pass, f)
		inspectStack(f, func(stack []ast.Node) bool {
			var call *ast.CallExpr
			switch n := stack[len(stack)-1].(type) {
			case *ast.ExprStmt:
				call, _ = n.X.(*ast.CallExpr)
			case *ast.DeferStmt:
				call = n.Call
			case *ast.GoStmt:
				call = n.Call
			}
			if call != nil {
				checkDiscardedFlush(pass, call, origins)
			}
			return true
		})
	}
	return nil
}

func checkDiscardedFlush(pass *analysis.Pass, call *ast.CallExpr, origins map[types.Object]string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !flushMethods[sel.Sel.Name] {
		return
	}
	sig, ok := pass.TypeOf(call.Fun).(*types.Signature)
	if !ok || !returnsError(sig) {
		return
	}
	recvType := pass.TypeOf(sel.X)
	if alwaysNilError(recvType) {
		return
	}
	if sel.Sel.Name == "Close" {
		if id := rootIdent(sel.X); id != nil {
			if origins[pass.Info.ObjectOf(id)] == "os.Open" {
				return // read-only descriptor: nothing left to commit
			}
		}
	}
	pass.Reportf(call.Pos(),
		"error from %s discarded; on write paths this loses data — check it, or discard explicitly with `_ =`", sel.Sel.Name)
}

func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if named, ok := res.At(i).Type().(*types.Named); ok &&
			named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
			return true
		}
	}
	return false
}

// alwaysNilError lists receiver types whose writer methods document a
// nil error.
func alwaysNilError(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return namedIs(named, "strings", "Builder") || namedIs(named, "bytes", "Buffer")
}

// callOrigins maps each variable defined by `v, ... := pkg.Fn(...)` to
// "pkg.Fn", so the Close rule can tell os.Open files from os.Create
// ones.
func callOrigins(pass *analysis.Pass, f *ast.File) map[types.Object]string {
	origins := map[types.Object]string{}
	ast.Inspect(f, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || assign.Tok != token.DEFINE || len(assign.Rhs) != 1 {
			return true
		}
		call, ok := assign.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		pkg, name := calleePkgFunc(pass, call)
		if pkg == "" {
			return true
		}
		for _, lhs := range assign.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
				if obj := pass.Info.Defs[id]; obj != nil {
					origins[obj] = pkg + "." + name
				}
			}
		}
		return true
	})
	return origins
}
