package analyzers

import (
	"go/ast"
	"go/types"

	"temporaldoc/internal/analysis"
)

// TelemetrySafe guards the telemetry layer's two contracts: the
// nil-safe no-op default (disabled telemetry costs nothing and cannot
// perturb training) and the hot-path discipline (metric handles are
// pre-resolved, never looked up per call). It rejects:
//
//  1. Composite literals of telemetry types outside the telemetry
//     package. `&telemetry.Registry{}` carries nil metric maps and
//     panics on first use; only NewRegistry and the registry's own
//     lookup methods hand out working values. (The zero Timer{} and
//     Span{} literals are documented no-ops and stay allowed.)
//  2. Registry lookups (Counter/Gauge/Histogram/Timer) inside loop
//     bodies: each lookup takes the registry lock and a map probe, so
//     hot paths must hoist handles out of the loop — the pre-resolved
//     handle pattern of core's modelMetrics.
//  3. Registry lookups with non-constant metric names: dynamic names
//     allocate on every call and explode metric cardinality.
//  4. Function literals that capture variables, passed to telemetry
//     APIs: the closure allocates at the call site, breaking the
//     zero-alloc disabled path.
//
// The analyzer is parameterised by the telemetry package's import path
// so fixtures can exercise it against a stand-in package.
func TelemetrySafe(telemetryPath string) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "telemetrysafe",
		Doc: "flags telemetry-type literals bypassing the nil-safe registry, registry lookups " +
			"in loops or with dynamic names, and capturing closures passed to telemetry APIs",
		Run: func(pass *analysis.Pass) error {
			return runTelemetrySafe(pass, telemetryPath)
		},
	}
}

// zeroLiteralOK lists telemetry types whose *empty* composite literal
// is a documented no-op value.
var zeroLiteralOK = map[string]bool{"Timer": true, "Span": true}

// registryLookups are the methods that lock the registry and probe a
// metric map.
var registryLookups = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true, "Timer": true,
}

func runTelemetrySafe(pass *analysis.Pass, telemetryPath string) error {
	if pass.Pkg.Path() == telemetryPath {
		return nil // the implementation package builds its own types
	}
	for _, f := range pass.Files {
		inspectStack(f, func(stack []ast.Node) bool {
			switch n := stack[len(stack)-1].(type) {
			case *ast.CompositeLit:
				checkTelemetryLiteral(pass, n, telemetryPath)
			case *ast.CallExpr:
				checkRegistryLookup(pass, n, stack, telemetryPath)
				checkTelemetryClosureArg(pass, n, telemetryPath)
			}
			return true
		})
	}
	return nil
}

func checkTelemetryLiteral(pass *analysis.Pass, lit *ast.CompositeLit, telemetryPath string) {
	t := pass.TypeOf(lit)
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != telemetryPath {
		return
	}
	if len(lit.Elts) == 0 && zeroLiteralOK[named.Obj().Name()] {
		return
	}
	pass.Reportf(lit.Pos(),
		"composite literal of telemetry.%s bypasses the nil-safe registry; construct via NewRegistry and registry lookups", named.Obj().Name())
}

func checkRegistryLookup(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node, telemetryPath string) {
	recv, method := calleeMethod(pass, call)
	if !namedIs(recv, telemetryPath, "Registry") || !registryLookups[method] {
		return
	}
	if enclosingLoop(stack) != nil {
		pass.Reportf(call.Pos(),
			"registry lookup %s(...) inside a loop locks the registry per iteration; hoist the metric handle out of the hot path", method)
	}
	if len(call.Args) > 0 {
		if tv, ok := pass.Info.Types[call.Args[0]]; ok && tv.Value == nil {
			pass.Reportf(call.Args[0].Pos(),
				"metric name passed to %s must be a compile-time constant; dynamic names allocate and explode cardinality", method)
		}
	}
}

// checkTelemetryClosureArg flags func literals with captures handed to
// telemetry functions or methods.
func checkTelemetryClosureArg(pass *analysis.Pass, call *ast.CallExpr, telemetryPath string) {
	inTelemetry := false
	if pkg, _ := calleePkgFunc(pass, call); pkg == telemetryPath {
		inTelemetry = true
	}
	if recv, _ := calleeMethod(pass, call); recv != nil && recv.Obj().Pkg() != nil &&
		recv.Obj().Pkg().Path() == telemetryPath {
		inTelemetry = true
	}
	if !inTelemetry {
		return
	}
	for _, arg := range call.Args {
		lit, ok := arg.(*ast.FuncLit)
		if !ok {
			continue
		}
		if capturesVariables(pass, lit) {
			pass.Reportf(lit.Pos(),
				"closure capturing local state passed to a telemetry API allocates per call; pass values instead")
		}
	}
}

// capturesVariables reports whether lit references a local variable
// declared outside itself (package-level vars do not force a heap
// allocation for the closure).
func capturesVariables(pass *analysis.Pass, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return true // package-level variable
		}
		if !declaredWithin(v, lit) {
			captured = true
			return false
		}
		return true
	})
	return captured
}
