package analyzers

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"

	"temporaldoc/internal/analysis"
)

// Seedflow proves that every RNG the training paths construct is
// seeded from configuration, not from the environment. The purity
// analyzer already bans *drawing* from the global Source; this one
// closes the remaining reproducibility hole: a locally constructed
// `rand.New(rand.NewSource(...))` is invisible to purity, yet if its
// seed derives from time.Now, from the global RNG, or from a value the
// analyzer cannot trace to a parameter or constant, the resulting
// model is just as irreproducible.
//
// Mechanics: the facts phase builds a per-function seed-provenance
// summary. Every math/rand constructor call (New, NewSource, NewPCG,
// NewChaCha8, NewZipf) has its seed operands classified by walking the
// expression: constants and parameters (a Config.Seed field threaded
// through the call chain, receiver state included) are explicit;
// time.Now and global-Source draws are environmental; locals trace
// through their assignments; anything opaque is unflowed. Functions
// constructing an environmentally- or unflowed-seeded RNG carry an
// "unseeded" fact with the construction site and reason, and the fact
// closes over the call graph — cross-package through sealed facts — so
// the run phase can report every training/eval entry point that
// reaches one, provenance chain in the message.
//
// A function may opt out with `//tdlint:seeded <reason>` in its doc
// comment: its constructions are accepted and its callees' unseeded
// facts stop propagating there (the reason is the reviewable
// contract). A reason-less annotation is itself a finding.
func Seedflow(entries []string) *analysis.Analyzer {
	s := &seedflow{entries: entries}
	return &analysis.Analyzer{
		Name: "seedflow",
		Doc: "training-path entry points must not reach RNG constructions seeded from time.Now, " +
			"the global RNG, or untraceable values (opt-out: //tdlint:seeded <reason>)",
		Facts: s.facts,
		Run:   s.run,
	}
}

// unseededFact carries the provenance chain from a function to the
// offending RNG construction.
const unseededFact = "unseeded"

// seededDirective is the opt-out annotation.
const seededDirective = "tdlint:seeded"

type seedflow struct {
	// entries are "pkgname.NamePrefix" patterns naming the training and
	// evaluation entry points (see matchesEntry).
	entries []string
}

// seedVerdict classifies a seed expression. Ordered so that combining
// operands is a max: one bad operand poisons a sum, one unflowed
// operand degrades it.
type seedVerdict int

const (
	seedOK seedVerdict = iota
	seedUnflowed
	seedBad
)

// facts computes this package's per-function unseeded summaries:
// direct construction sites first, then a fixed-point closure over
// same-package calls, reading imported packages' sealed facts at the
// boundary — the same shape as purity.
func (s *seedflow) facts(pass *analysis.Pass) error {
	if pass.Graph == nil || pass.Facts == nil {
		return fmt.Errorf("seedflow needs interprocedural context (call graph + facts)")
	}

	type fnInfo struct {
		fn      *types.Func
		decl    *ast.FuncDecl
		chain   string // unseeded provenance ("" = clean so far)
		barrier bool   // //tdlint:seeded opt-out
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
			if ok, _ := funcDirective(node.Decl, seededDirective); ok {
				info.barrier = true
			}
		}
		fns = append(fns, info)
		byFunc[fn] = info
	}

	// Direct construction sites.
	for _, info := range fns {
		if info.barrier || info.decl == nil || info.decl.Body == nil {
			continue
		}
		info.chain = s.directUnseeded(pass, info.decl)
	}

	// Fixed point over the call graph: a function reaches an unseeded
	// construction when any callee does — same-package callees resolved
	// live, imported ones through their sealed facts.
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
				var calleeChain string
				if local, ok := byFunc[callee]; ok {
					if local.barrier || local.chain == "" {
						continue
					}
					calleeChain = local.chain
				} else if chain, ok := pass.Facts.GetFunc(callee, unseededFact); ok {
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
			pass.Facts.Put(info.fn, unseededFact, info.chain)
		}
	}
	return nil
}

// run reports entry points carrying an unseeded fact, and annotation
// misuse (a //tdlint:seeded without a reason).
func (s *seedflow) run(pass *analysis.Pass) error {
	if pass.Graph == nil || pass.Facts == nil {
		return fmt.Errorf("seedflow needs interprocedural context (call graph + facts)")
	}
	pkgBase := pass.Pkg.Name()
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if ok, reason := funcDirective(decl, seededDirective); ok && strings.TrimSpace(reason) == "" {
				pass.Reportf(decl.Pos(),
					"//tdlint:seeded needs a reason: //tdlint:seeded <why this RNG's seeding is acceptable>")
			}
			if !matchesEntry(s.entries, pkgBase, decl.Name.Name) {
				continue
			}
			fn, ok := pass.Info.Defs[decl.Name].(*types.Func)
			if !ok {
				continue
			}
			if chain, ok := pass.Facts.GetFunc(fn, unseededFact); ok {
				pass.Reportf(decl.Name.Pos(),
					"%s is a training entry point but reaches an unseeded RNG: %s; thread Config.Seed through the chain, or annotate //tdlint:seeded <reason>",
					decl.Name.Name, chain)
			}
		}
	}
	return nil
}

// directUnseeded scans one declaration (closures included) for
// math/rand constructor calls whose seed operands do not trace to an
// explicit parameter or constant, and returns the first site's
// provenance detail, or "".
func (s *seedflow) directUnseeded(pass *analysis.Pass, decl *ast.FuncDecl) string {
	cls := &seedClassifier{pass: pass, params: seedParamObjects(pass, decl), body: decl}
	// Nested constructions (`rand.New(rand.NewSource(x))`) report once,
	// at the outermost call; inner constructor calls are consumed.
	consumed := map[*ast.CallExpr]bool{}
	detail := ""
	ast.Inspect(decl, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || consumed[call] || detail != "" {
			return detail == ""
		}
		name, ok := randConstructorCall(pass, call)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if inner, ok := m.(*ast.CallExpr); ok {
					if _, isCtor := randConstructorCall(pass, inner); isCtor {
						consumed[inner] = true
					}
				}
				return true
			})
		}
		verdict, why := seedOK, ""
		for _, arg := range call.Args {
			v, w := cls.classify(arg, 0, map[types.Object]bool{})
			if v > verdict {
				verdict, why = v, w
			}
		}
		if verdict != seedOK {
			pos := pass.Fset.Position(call.Pos())
			detail = fmt.Sprintf("rand.%s at %s:%d seeded from %s",
				name, filepath.Base(pos.Filename), pos.Line, why)
		}
		return true
	})
	return detail
}

// randConstructorCall matches calls to the math/rand (v1 or v2)
// source/RNG constructors.
func randConstructorCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	pkg, name := calleePkgFunc(pass, call)
	if (pkg == "math/rand" || pkg == "math/rand/v2") && randConstructors[name] {
		return name, true
	}
	return "", false
}

// seedClassifier walks a seed expression and decides whether it traces
// to explicit, reproducible inputs.
type seedClassifier struct {
	pass *analysis.Pass
	// params holds every parameter, receiver and closure parameter
	// object of the declaration under analysis — the "explicitly
	// threaded" roots.
	params map[types.Object]bool
	// body is the declaration searched for local assignments.
	body *ast.FuncDecl
}

// classify returns the worst verdict reachable from e, with a short
// reason for anything other than seedOK.
func (c *seedClassifier) classify(e ast.Expr, depth int, seen map[types.Object]bool) (seedVerdict, string) {
	if depth > 12 {
		return seedUnflowed, "seed expression too deep to trace"
	}
	if tv, ok := c.pass.Info.Types[e]; ok && tv.Value != nil {
		return seedOK, "" // compile-time constant
	}
	switch n := e.(type) {
	case *ast.ParenExpr:
		return c.classify(n.X, depth+1, seen)
	case *ast.UnaryExpr:
		return c.classify(n.X, depth+1, seen)
	case *ast.StarExpr:
		return c.classify(n.X, depth+1, seen)
	case *ast.IndexExpr:
		return c.classify(n.X, depth+1, seen)
	case *ast.BinaryExpr:
		return c.combine([]ast.Expr{n.X, n.Y}, depth, seen)
	case *ast.CompositeLit:
		return c.combine(n.Elts, depth, seen)
	case *ast.KeyValueExpr:
		return c.classify(n.Value, depth+1, seen)
	case *ast.SelectorExpr:
		// A field chain (cfg.Seed, m.cfg.Seed) is as traceable as its
		// root variable.
		if root := rootIdent(n); root != nil {
			return c.classifyIdent(root, depth, seen)
		}
		return seedUnflowed, "untraceable selector " + render(n)
	case *ast.Ident:
		return c.classifyIdent(n, depth, seen)
	case *ast.CallExpr:
		return c.classifyCall(n, depth, seen)
	}
	return seedUnflowed, "untraceable seed expression " + render(e)
}

func (c *seedClassifier) combine(exprs []ast.Expr, depth int, seen map[types.Object]bool) (seedVerdict, string) {
	verdict, why := seedOK, ""
	for _, e := range exprs {
		v, w := c.classify(e, depth+1, seen)
		if v > verdict {
			verdict, why = v, w
		}
	}
	return verdict, why
}

func (c *seedClassifier) classifyIdent(id *ast.Ident, depth int, seen map[types.Object]bool) (seedVerdict, string) {
	obj := c.pass.Info.ObjectOf(id)
	switch obj := obj.(type) {
	case *types.Const:
		return seedOK, ""
	case *types.Var:
		if c.params[obj] {
			return seedOK, "" // explicitly threaded parameter/receiver
		}
		if obj.Parent() != nil && obj.Parent().Parent() == types.Universe {
			return seedUnflowed, "package-level variable " + obj.Name()
		}
		return c.classifyLocal(obj, depth, seen)
	case *types.Func:
		return seedOK, "" // a function value, not a seed
	case nil:
		return seedUnflowed, "unresolved identifier " + id.Name
	}
	return seedUnflowed, "untraceable identifier " + id.Name
}

// classifyLocal traces a local variable through every assignment to it
// inside the declaration: the worst assigned value wins. Range-clause
// bindings count as explicit (deterministic iteration state); a local
// with no visible definition is unflowed.
func (c *seedClassifier) classifyLocal(obj *types.Var, depth int, seen map[types.Object]bool) (seedVerdict, string) {
	if seen[obj] {
		return seedOK, "" // cycle: this object's other assignments decide
	}
	seen[obj] = true
	found := false
	verdict, why := seedOK, ""
	record := func(v seedVerdict, w string) {
		found = true
		if v > verdict {
			verdict, why = v, w
		}
	}
	ast.Inspect(c.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || c.pass.Info.ObjectOf(id) != obj {
					continue
				}
				if len(n.Rhs) == len(n.Lhs) {
					v, w := c.classify(n.Rhs[i], depth+1, seen)
					record(v, w)
				} else if len(n.Rhs) == 1 {
					v, w := c.classify(n.Rhs[0], depth+1, seen)
					record(v, w)
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if c.pass.Info.Defs[name] != obj {
					continue
				}
				if len(n.Values) == 0 {
					record(seedOK, "") // zero value is deterministic
				} else if i < len(n.Values) {
					v, w := c.classify(n.Values[i], depth+1, seen)
					record(v, w)
				} else if len(n.Values) == 1 {
					v, w := c.classify(n.Values[0], depth+1, seen)
					record(v, w)
				}
			}
		case *ast.RangeStmt:
			for _, kv := range []ast.Expr{n.Key, n.Value} {
				if id, ok := kv.(*ast.Ident); ok && c.pass.Info.ObjectOf(id) == obj {
					record(seedOK, "")
				}
			}
		}
		return true
	})
	if !found {
		return seedUnflowed, "local " + obj.Name() + " with no traceable definition"
	}
	if verdict != seedOK && why == "" {
		why = "local " + obj.Name()
	}
	return verdict, why
}

func (c *seedClassifier) classifyCall(call *ast.CallExpr, depth int, seen map[types.Object]bool) (seedVerdict, string) {
	// Conversions classify as their operand.
	if tv, ok := c.pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return c.classify(call.Args[0], depth+1, seen)
	}
	if pkg, name := calleePkgFunc(c.pass, call); pkg == "time" && (name == "Now" || name == "Since") {
		return seedBad, "time." + name
	}
	if name, ok := randGlobalCall(c.pass, call); ok {
		return seedBad, "global math/rand." + name
	}
	// A constructor as a value (rand.New(rand.NewSource(x))): classify
	// its own seed operands.
	if _, ok := randConstructorCall(c.pass, call); ok {
		return c.combine(call.Args, depth, seen)
	}
	// Any other call: trust it iff every input (method receivers
	// included) is itself explicit — the splitSeed(cfg.Seed) pattern.
	// Environmental sources hiding behind an *imported* call surface
	// when that function's own package is analyzed and the fact
	// propagates here through the call graph.
	inputs := append([]ast.Expr(nil), call.Args...)
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if _, isMethod := c.pass.Info.Selections[sel]; isMethod {
			inputs = append(inputs, sel.X)
		}
	}
	v, w := c.combine(inputs, depth, seen)
	if v != seedOK && w == "" {
		w = "call " + render(call.Fun)
	}
	return v, w
}

// seedParamObjects collects the parameter, receiver and named-result
// objects of decl and of every closure inside it.
func seedParamObjects(pass *analysis.Pass, decl *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := pass.Info.Defs[name]; obj != nil {
					out[obj] = true
				}
			}
		}
	}
	addFields(decl.Recv)
	addFields(decl.Type.Params)
	ast.Inspect(decl, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			addFields(lit.Type.Params)
		}
		return true
	})
	return out
}
