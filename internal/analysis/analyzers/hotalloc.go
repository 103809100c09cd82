package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"temporaldoc/internal/analysis"
)

// hotDirective marks a function as per-example hot: it runs once per
// word vector, per SOM node, or per LGP instruction, millions of times
// per training epoch.
const hotDirective = "tdlint:hotpath"

// HotAlloc keeps the training inner loops allocation-free. Functions
// annotated `//tdlint:hotpath` in their doc comment run once per
// example or per instruction — any per-call heap allocation there
// multiplies into GC pressure that dwarfs the arithmetic (the PR-1
// engine work exists precisely to keep these paths flat). Four
// allocation shapes are banned inside annotated functions:
//
//   - heap-escaping composite literals (&T{...}) and slice/map
//     literals, which allocate on every call,
//   - closures capturing outer variables — each capture materialises a
//     heap cell plus the closure object,
//   - append inside a loop to a slice that was not preallocated with a
//     capacity, which reallocates O(log n) times per call,
//   - interface boxing: passing or assigning a concrete value where an
//     interface is expected copies it to the heap.
//
// The annotation is the contract: cold functions allocate freely, and
// adding //tdlint:hotpath to a function is a reviewable claim that it
// must not.
func HotAlloc() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "hotalloc",
		Doc: "//tdlint:hotpath functions must not allocate per call: no escaping composite " +
			"literals, no capturing closures, no unpreallocated append growth, no interface boxing",
		Run: runHotAlloc,
	}
}

func runHotAlloc(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			if ok, _ := funcDirective(decl, hotDirective); !ok {
				continue
			}
			checkHotFunc(pass, decl)
		}
	}
	return nil
}

func checkHotFunc(pass *analysis.Pass, decl *ast.FuncDecl) {
	inspectStack(decl.Body, func(stack []ast.Node) bool {
		switch n := stack[len(stack)-1].(type) {
		case *ast.CompositeLit:
			checkCompositeLit(pass, n, stack)
		case *ast.FuncLit:
			checkClosureCapture(pass, n)
			return false // the literal's own body is a different frame
		case *ast.CallExpr:
			checkAppendGrowth(pass, decl, n, stack)
			checkCallBoxing(pass, n)
		case *ast.AssignStmt:
			checkAssignBoxing(pass, n)
		}
		return true
	})
}

// checkCompositeLit flags literals that allocate per call: slice and
// map literals always do; a struct literal only when its address is
// taken (it escapes to the heap).
func checkCompositeLit(pass *analysis.Pass, lit *ast.CompositeLit, stack []ast.Node) {
	t := pass.TypeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		pass.Reportf(lit.Pos(), "slice literal allocates on every call of a hot-path function; hoist it to a package variable or reuse a buffer")
		return
	case *types.Map:
		pass.Reportf(lit.Pos(), "map literal allocates on every call of a hot-path function; hoist it to a package variable")
		return
	}
	if len(stack) >= 2 {
		if u, ok := stack[len(stack)-2].(*ast.UnaryExpr); ok && u.Op == token.AND && u.X == lit {
			pass.Reportf(u.Pos(), "&%s escapes to the heap on every call of a hot-path function; reuse a caller-provided value", render(lit.Type))
		}
	}
}

// checkClosureCapture flags function literals that close over outer
// variables: each captured variable becomes a heap cell.
func checkClosureCapture(pass *analysis.Pass, lit *ast.FuncLit) {
	var captured *ast.Ident
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || obj.IsField() || declaredWithin(obj, lit) {
			return true
		}
		// Package-level variables are not captures.
		if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return true
		}
		captured = id
		return false
	})
	if captured != nil {
		pass.Reportf(lit.Pos(), "closure captures %s and allocates on every call of a hot-path function; pass it as a parameter or hoist the closure", captured.Name)
	}
}

// checkAppendGrowth flags `x = append(x, ...)` inside a loop when x was
// declared in this function without a capacity: each growth step
// reallocates and copies.
func checkAppendGrowth(pass *analysis.Pass, decl *ast.FuncDecl, call *ast.CallExpr, stack []ast.Node) {
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" || len(call.Args) == 0 {
		return
	}
	if _, isBuiltin := pass.Info.Uses[fn].(*types.Builtin); !isBuiltin {
		return
	}
	if enclosingLoop(stack) == nil {
		return
	}
	id := rootIdent(call.Args[0])
	if id == nil {
		return
	}
	obj := pass.Info.ObjectOf(id)
	if obj == nil {
		return
	}
	if !declaredWithin(obj, decl.Body) {
		return // parameters and fields: the caller owns the capacity
	}
	if preallocated(pass, decl, obj) {
		return
	}
	pass.Reportf(call.Pos(), "append grows %s inside a loop without preallocation; size it up front with make(%s, 0, n)",
		id.Name, render(call.Args[0]))
}

// preallocated reports whether obj's declaration inside decl
// initialises it with make and an explicit length or capacity.
func preallocated(pass *analysis.Pass, decl *ast.FuncDecl, obj types.Object) bool {
	found := false
	ast.Inspect(decl, func(n ast.Node) bool {
		if found {
			return false
		}
		assign, ok := n.(*ast.AssignStmt)
		if !ok || assign.Tok != token.DEFINE {
			return true
		}
		for i, lhs := range assign.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || pass.Info.Defs[id] != obj || i >= len(assign.Rhs) {
				continue
			}
			if mk, ok := assign.Rhs[i].(*ast.CallExpr); ok {
				if fn, ok := mk.Fun.(*ast.Ident); ok && fn.Name == "make" && len(mk.Args) >= 2 {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// checkCallBoxing flags concrete values passed where the callee takes
// an interface: the value is copied to the heap to fit.
func checkCallBoxing(pass *analysis.Pass, call *ast.CallExpr) {
	sig, ok := pass.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return // conversions, builtins
	}
	if call.Ellipsis.IsValid() {
		return // xs... forwards an existing slice, no per-element boxing
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		if boxes(pass.TypeOf(arg), pt) {
			pass.Reportf(arg.Pos(), "passing %s boxes a concrete %s into %s on a hot path; use a concrete-typed helper",
				render(arg), pass.TypeOf(arg), pt)
		}
	}
}

// checkAssignBoxing flags assignments of concrete values to
// interface-typed variables.
func checkAssignBoxing(pass *analysis.Pass, assign *ast.AssignStmt) {
	if len(assign.Lhs) != len(assign.Rhs) {
		return
	}
	for i, lhs := range assign.Lhs {
		if boxes(pass.TypeOf(assign.Rhs[i]), pass.TypeOf(lhs)) {
			pass.Reportf(assign.Rhs[i].Pos(), "assigning %s boxes a concrete %s into %s on a hot path",
				render(assign.Rhs[i]), pass.TypeOf(assign.Rhs[i]), pass.TypeOf(lhs))
		}
	}
}

// boxes reports whether storing a value of type from into type to
// requires an interface conversion of a concrete value.
func boxes(from, to types.Type) bool {
	if from == nil || to == nil {
		return false
	}
	if _, isIface := to.Underlying().(*types.Interface); !isIface {
		return false
	}
	if _, isIface := from.Underlying().(*types.Interface); isIface {
		return false // interface-to-interface is a pointer copy
	}
	if b, ok := from.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	return true
}
