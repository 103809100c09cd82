package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"temporaldoc/internal/analysis"
)

// Determinism guards the pipeline's bit-reproducibility contract:
// identical seeds must give byte-identical trained models, regardless
// of worker count, GOMAXPROCS or telemetry. Three code patterns break
// it silently and are rejected:
//
//  1. math/rand package-level functions (rand.Intn, rand.Float64, ...)
//     draw from the shared, process-global Source. Model code must
//     thread a rand.New(rand.NewSource(cfg.Seed)) explicitly.
//  2. time.Now outside the "stopwatch" pattern. Wall-clock time leaking
//     into anything but duration telemetry (a variable whose only uses
//     are time.Since arguments) makes runs unrepeatable — the classic
//     offender is rand.NewSource(time.Now().UnixNano()).
//  3. Floating-point accumulation in map iteration order. Go randomises
//     map order per run, and float addition is not associative, so
//     `sum += m[k]` or `vals = append(vals, m[k])` inside `range m`
//     changes result bits run to run. Iterate sorted keys instead.
func Determinism() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "determinism",
		Doc: "flags shared-global RNG use, wall-clock reads outside duration telemetry, " +
			"and order-dependent floating-point work inside map iteration",
		Run: runDeterminism,
	}
}

// randConstructors are the math/rand functions that take an explicit
// Source or seed and therefore stay reproducible.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		inspectStack(f, func(stack []ast.Node) bool {
			switch n := stack[len(stack)-1].(type) {
			case *ast.CallExpr:
				checkRandCall(pass, n)
				checkTimeNow(pass, n, stack)
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkRandCall(pass *analysis.Pass, call *ast.CallExpr) {
	if name, ok := randGlobalCall(pass, call); ok {
		pass.Reportf(call.Pos(),
			"rand.%s draws from the process-global Source; thread a rand.New(rand.NewSource(seed)) from config for reproducible training", name)
	}
}

// randGlobalCall matches calls to math/rand package-level functions
// that draw from the shared global Source; shared with the purity
// analyzer.
func randGlobalCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	pkg, name := calleePkgFunc(pass, call)
	if pkg != "math/rand" && pkg != "math/rand/v2" {
		return "", false
	}
	if randConstructors[name] {
		return "", false
	}
	return name, true
}

// checkTimeNow allows time.Now only in the stopwatch pattern: the
// result is assigned to a variable whose every other use is a
// time.Since argument (or a re-arming `v = time.Now()`), so wall-clock
// time can feed duration telemetry but nothing else.
func checkTimeNow(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node) {
	if timeNowViolation(pass, call, stack) {
		pass.Reportf(call.Pos(),
			"time.Now outside the stopwatch pattern (a variable used only by time.Since); wall-clock values must not reach model state")
	}
}

// timeNowViolation reports whether call is a time.Now read outside the
// stopwatch pattern; shared with the purity analyzer.
func timeNowViolation(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node) bool {
	if pkg, name := calleePkgFunc(pass, call); pkg != "time" || name != "Now" {
		return false
	}
	obj := stopwatchTarget(pass, call, stack)
	body := enclosingFuncBody(stack)
	return obj == nil || body == nil || !stopwatchOnly(pass, obj, body)
}

// stopwatchTarget returns the variable a `v := time.Now()`-shaped
// statement assigns to, or nil when the call is used any other way.
func stopwatchTarget(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node) types.Object {
	if len(stack) < 2 {
		return nil
	}
	switch parent := stack[len(stack)-2].(type) {
	case *ast.AssignStmt:
		if len(parent.Rhs) == 1 && parent.Rhs[0] == call && len(parent.Lhs) == 1 {
			if id, ok := parent.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
				return pass.Info.ObjectOf(id)
			}
		}
	case *ast.ValueSpec:
		if len(parent.Values) == 1 && parent.Values[0] == call && len(parent.Names) == 1 {
			return pass.Info.Defs[parent.Names[0]]
		}
	}
	return nil
}

// stopwatchOnly reports whether every use of obj inside body is either
// a time.Since argument or a re-arming assignment from time.Now.
func stopwatchOnly(pass *analysis.Pass, obj types.Object, body *ast.BlockStmt) bool {
	ok := true
	inspectStack(body, func(stack []ast.Node) bool {
		id, isIdent := stack[len(stack)-1].(*ast.Ident)
		if !isIdent || pass.Info.Uses[id] != obj || len(stack) < 2 {
			return true
		}
		switch parent := stack[len(stack)-2].(type) {
		case *ast.CallExpr:
			if pkg, name := calleePkgFunc(pass, parent); pkg == "time" && name == "Since" &&
				len(parent.Args) == 1 && parent.Args[0] == id {
				return true
			}
		case *ast.AssignStmt:
			if len(parent.Lhs) == 1 && parent.Lhs[0] == id && len(parent.Rhs) == 1 {
				if rhs, isCall := parent.Rhs[0].(*ast.CallExpr); isCall {
					if pkg, name := calleePkgFunc(pass, rhs); pkg == "time" && name == "Now" {
						return true
					}
				}
			}
		}
		ok = false
		return true
	})
	return ok
}

// checkMapRange flags order-dependent floating-point work inside a
// range over a map: compound float assignment to state declared outside
// the loop, and appends of float-bearing values to outside slices.
// (Collecting keys into a slice for sorting appends key-typed values,
// typically strings or ints, and stays clean.)
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	for _, f := range mapOrderFloatFindings(pass, rng) {
		if f.append {
			pass.Reportf(f.pos,
				"appending float-bearing values in map iteration order is nondeterministic; collect and sort keys first")
		} else {
			pass.Reportf(f.pos,
				"floating-point accumulation in map iteration order is nondeterministic (addition is not associative); iterate sorted keys")
		}
	}
}

// mapOrderFinding is one order-dependent float operation inside a map
// range: a compound accumulation, or an append of float-bearing values.
type mapOrderFinding struct {
	pos    token.Pos
	append bool
}

// mapOrderFloatFindings detects order-dependent floating-point work in
// a range statement; shared by the determinism analyzer (which reports
// each site) and the purity analyzer (which turns them into
// per-function facts).
func mapOrderFloatFindings(pass *analysis.Pass, rng *ast.RangeStmt) []mapOrderFinding {
	t := pass.TypeOf(rng.X)
	if t == nil {
		return nil
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return nil
	}
	var out []mapOrderFinding
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch assign.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			lhs := assign.Lhs[0]
			if isFloat(pass.TypeOf(lhs)) && outsideTarget(pass, lhs, rng) {
				out = append(out, mapOrderFinding{pos: assign.Pos()})
			}
		case token.ASSIGN, token.DEFINE:
			for _, rhs := range assign.Rhs {
				if pos, ok := floatAppendPos(pass, rhs, rng); ok {
					out = append(out, mapOrderFinding{pos: pos, append: true})
				}
			}
		default:
			// Other assignment tokens (%=, &=, ...) are integer-only.
		}
		return true
	})
	return out
}

// floatAppendPos matches `s = append(s, v...)` inside a map range when
// s lives outside the loop and v carries floats.
func floatAppendPos(pass *analysis.Pass, e ast.Expr, rng *ast.RangeStmt) (token.Pos, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return 0, false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return 0, false
	}
	if _, isBuiltin := pass.Info.Uses[fn].(*types.Builtin); !isBuiltin {
		return 0, false
	}
	if !outsideTarget(pass, call.Args[0], rng) {
		return 0, false
	}
	for _, arg := range call.Args[1:] {
		if hasFloat(pass.TypeOf(arg)) {
			return call.Pos(), true
		}
	}
	return 0, false
}

// outsideTarget reports whether the root variable of e is declared
// outside the range statement (so writes to it survive the loop).
func outsideTarget(pass *analysis.Pass, e ast.Expr, rng *ast.RangeStmt) bool {
	id := rootIdent(e)
	if id == nil {
		return false
	}
	obj := pass.Info.ObjectOf(id)
	return obj != nil && !declaredWithin(obj, rng)
}
