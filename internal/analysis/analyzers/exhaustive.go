package analyzers

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"temporaldoc/internal/analysis"
)

// Exhaustive checks that value switches over enum-like types handle
// every declared member. A type is enum-like when it is a named type
// with a string or integer underlying type and at least two
// package-level constants of exactly that type in its defining package
// — core.EventKind is the motivating case: a new TrainEvent kind must
// be routed by every switch site (the CLI's event logger, the Progress
// shim), not silently dropped.
//
// A `default` case opts a switch out: partial handling is then a
// visible, deliberate decision. Switches with any non-constant case
// expression are skipped.
func Exhaustive() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "exhaustive",
		Doc:  "flags switches over enum-like constant sets that miss members and have no default",
		Run:  runExhaustive,
	}
}

func runExhaustive(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		inspectStack(f, func(stack []ast.Node) bool {
			sw, ok := stack[len(stack)-1].(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			checkSwitch(pass, sw)
			return true
		})
	}
	return nil
}

func checkSwitch(pass *analysis.Pass, sw *ast.SwitchStmt) {
	named, ok := pass.TypeOf(sw.Tag).(*types.Named)
	if !ok {
		return
	}
	members := enumMembers(named)
	if len(members) < 2 {
		return
	}
	handled := map[string]bool{}
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			return // default case: partial handling is deliberate
		}
		for _, e := range cc.List {
			tv, ok := pass.Info.Types[e]
			if !ok || tv.Value == nil {
				return // dynamic case expression: not an enum dispatch
			}
			for _, m := range members {
				if constant.Compare(tv.Value, token.EQL, m.Val()) {
					handled[m.Name()] = true
				}
			}
		}
	}
	var missing []string
	for _, m := range members {
		if !handled[m.Name()] {
			missing = append(missing, m.Name())
		}
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)
	pass.Reportf(sw.Pos(),
		"switch on %s misses %s; handle them or add an explicit default", named.Obj().Name(), strings.Join(missing, ", "))
}

// enumMembers returns the package-level constants declared with exactly
// the named type, in declaration-scope order.
func enumMembers(named *types.Named) []*types.Const {
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return nil
	}
	basic, ok := named.Underlying().(*types.Basic)
	if !ok || basic.Info()&(types.IsInteger|types.IsString) == 0 || basic.Kind() == types.Bool {
		return nil
	}
	scope := obj.Pkg().Scope()
	var members []*types.Const
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), named) {
			continue
		}
		members = append(members, c)
	}
	return members
}
