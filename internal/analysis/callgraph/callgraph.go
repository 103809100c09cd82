// Package callgraph builds a whole-program static call graph over the
// type information the loader already produces, the reachability
// substrate under the purity analyzer. Standard library only.
//
// The graph is conservative in the direction lint needs: every direct
// call (plain function, qualified package function, method on a
// concrete receiver) becomes an edge, and every *reference* to a
// function that is not itself the callee of a call — a function value
// passed, stored or returned — becomes a Ref edge, on the assumption
// that a function someone took the value of may be called. What it
// deliberately does not attempt: dynamic dispatch through interfaces
// and resolution of arbitrary function-typed variables. Those callees
// are invisible, which a purity-style analyzer accepts as a documented
// limitation (the repo's training paths call concrete helpers).
//
// Calls made inside a function literal are attributed to the enclosing
// declared function: the closure either runs inside the caller or
// escapes from it, and for "does this entry point transitively reach X"
// both cases charge the encloser.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Pkg is one loaded package, the subset of the loader's output the
// builder needs (decoupled so callgraph stays importable from the
// framework without cycles).
type Pkg struct {
	Files []*ast.File
	Info  *types.Info
}

// Call is one outgoing edge of a node.
type Call struct {
	Callee *types.Func
	Pos    token.Pos
	// Ref marks a bare function-value reference rather than a direct
	// call expression.
	Ref bool
}

// Node is one declared function and its outgoing edges.
type Node struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	// Calls lists the static callees in source order, deduplicated by
	// callee (first position wins).
	Calls []Call
}

// Graph maps every declared function of the analyzed packages to its
// node. Functions only known through export data (imported packages)
// have no node; analyzers consult cross-package facts for those.
type Graph struct {
	nodes map[*types.Func]*Node
}

// Build walks every function declaration of every package and records
// its outgoing call and reference edges.
func Build(pkgs []Pkg) *Graph {
	g := &Graph{nodes: map[*types.Func]*Node{}}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[decl.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &Node{Fn: fn, Decl: decl}
				if decl.Body != nil {
					collectEdges(pkg.Info, decl.Body, node)
				}
				g.nodes[fn] = node
			}
		}
	}
	return g
}

// Node returns fn's node, or nil when fn was not declared in the
// analyzed packages.
func (g *Graph) Node(fn *types.Func) *Node { return g.nodes[fn] }

// Funcs returns every declared function, sorted by full name so
// iteration order (and everything derived from it) is deterministic.
func (g *Graph) Funcs() []*types.Func {
	out := make([]*types.Func, 0, len(g.nodes))
	for fn := range g.nodes {
		out = append(out, fn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FullName() < out[j].FullName() })
	return out
}

// Reachable reports whether target is reachable from `from` over call
// and reference edges, and returns the shortest chain of callees
// leading to it (excluding `from`, including target). Both ends must be
// declared in the analyzed packages for edges to exist.
func (g *Graph) Reachable(from, target *types.Func) ([]*types.Func, bool) {
	type item struct {
		fn   *types.Func
		prev *item
	}
	seen := map[*types.Func]bool{from: true}
	queue := []*item{{fn: from}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		node := g.nodes[cur.fn]
		if node == nil {
			continue
		}
		for _, c := range node.Calls {
			if seen[c.Callee] {
				continue
			}
			seen[c.Callee] = true
			next := &item{fn: c.Callee, prev: cur}
			if c.Callee == target {
				var chain []*types.Func
				for it := next; it.prev != nil; it = it.prev {
					chain = append(chain, it.fn)
				}
				for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
					chain[i], chain[j] = chain[j], chain[i]
				}
				return chain, true
			}
			queue = append(queue, next)
		}
	}
	return nil, false
}

// collectEdges gathers call and reference edges from one body,
// deduplicating by callee.
func collectEdges(info *types.Info, body *ast.BlockStmt, node *Node) {
	seen := map[*types.Func]bool{}
	// calleeIdents marks identifiers consumed as the Fun of a call, so
	// the reference sweep does not double-count them.
	calleeIdents := map[*ast.Ident]bool{}
	add := func(fn *types.Func, pos token.Pos, ref bool) {
		if fn == nil || seen[fn] {
			return
		}
		seen[fn] = true
		node.Calls = append(node.Calls, Call{Callee: fn, Pos: pos, Ref: ref})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, id := resolveCallee(info, call.Fun)
		if id != nil {
			calleeIdents[id] = true
		}
		add(fn, call.Pos(), false)
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || calleeIdents[id] {
			return true
		}
		if fn, ok := info.Uses[id].(*types.Func); ok {
			add(fn, id.Pos(), true)
		}
		return true
	})
}

// resolveCallee resolves the callee of a call expression to a declared
// or imported *types.Func, also returning the identifier that named it
// (the selector's Sel, or the plain ident).
func resolveCallee(info *types.Info, fun ast.Expr) (*types.Func, *ast.Ident) {
	switch e := fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[e].(*types.Func)
		return fn, e
	case *ast.SelectorExpr:
		// Methods (concrete receivers) and qualified package functions
		// both resolve through Uses of the selector identifier; method
		// expressions/values resolve the same way.
		fn, _ := info.Uses[e.Sel].(*types.Func)
		return fn, e.Sel
	case *ast.ParenExpr:
		return resolveCallee(info, e.X)
	}
	return nil, nil
}
