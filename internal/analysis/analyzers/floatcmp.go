package analyzers

import (
	"go/ast"
	"go/constant"
	"go/printer"
	"go/token"
	"strings"

	"temporaldoc/internal/analysis"
)

// FloatCmp flags == and != on floating-point operands, and switches on
// a float tag (the same exact comparison in statement clothing). After
// any arithmetic, two mathematically equal floats rarely compare equal,
// so exact comparison encodes a silent assumption that both sides took
// bit-identical paths. Three uses are recognised as legitimate and
// allowed:
//
//   - comparison against the literal 0 (an exact, well-defined guard,
//     e.g. protecting a division);
//   - x != x / x == x (the idiomatic NaN test);
//   - comparisons inside an epsilon helper itself (a function whose
//     name contains "approx", "almost" or "epsilon" — the fast path
//     `if a == b` before the tolerance check).
//
// Everything else should go through an epsilon helper (see
// metrics.ApproxEqual) or compare math.Float64bits explicitly when
// bit-identity is the actual intent.
func FloatCmp() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "floatcmp",
		Doc:  "flags exact ==/!= on floats outside epsilon helpers, zero guards and NaN tests",
		Run:  runFloatCmp,
	}
}

func runFloatCmp(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		inspectStack(f, func(stack []ast.Node) bool {
			if sw, ok := stack[len(stack)-1].(*ast.SwitchStmt); ok && sw.Tag != nil &&
				isFloat(pass.TypeOf(sw.Tag)) {
				pass.Reportf(sw.Pos(),
					"switch on a float compares cases exactly; use an epsilon helper, or switch on math.Float64bits when bit-identity is intended")
				return true
			}
			bin, ok := stack[len(stack)-1].(*ast.BinaryExpr)
			if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
				return true
			}
			if !isFloat(pass.TypeOf(bin.X)) && !isFloat(pass.TypeOf(bin.Y)) {
				return true
			}
			if isZeroConst(pass, bin.X) || isZeroConst(pass, bin.Y) {
				return true
			}
			if exprString(pass.Fset, bin.X) == exprString(pass.Fset, bin.Y) {
				return true // NaN test: x != x
			}
			if inEpsilonHelper(stack) {
				return true
			}
			pass.Reportf(bin.OpPos,
				"exact %s on floats; use an epsilon helper, or math.Float64bits when bit-identity is intended", bin.Op)
			return true
		})
	}
	return nil
}

func isZeroConst(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	return constant.Sign(tv.Value) == 0 && tv.Value.Kind() != constant.Bool
}

func inEpsilonHelper(stack []ast.Node) bool {
	for _, n := range stack {
		fd, ok := n.(*ast.FuncDecl)
		if !ok {
			continue
		}
		name := strings.ToLower(fd.Name.Name)
		for _, marker := range []string{"approx", "almost", "epsilon"} {
			if strings.Contains(name, marker) {
				return true
			}
		}
	}
	return false
}

func exprString(fset *token.FileSet, e ast.Expr) string {
	var sb strings.Builder
	if err := printer.Fprint(&sb, fset, e); err != nil {
		return ""
	}
	return sb.String()
}
