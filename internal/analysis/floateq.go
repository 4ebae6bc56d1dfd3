package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// runFloatEq flags == and != between floating-point expressions in the
// pass's scope.  Compare against an epsilon, or restate the
// comparison in integer arithmetic (cross-multiply densities, count in
// fixed units).
func runFloatEq(m *Module, p *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
				return true
			}
			if isFloat(p.Info.TypeOf(bin.X)) || isFloat(p.Info.TypeOf(bin.Y)) {
				diags = append(diags, diag(m, "floateq", bin.Pos(),
					"floating-point %s comparison; use an epsilon or integer arithmetic", bin.Op))
			}
			return true
		})
	}
	return diags
}

// isFloat reports whether t's underlying type is a floating-point
// kind (including untyped float constants).
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch b.Kind() {
	case types.Float32, types.Float64, types.UntypedFloat:
		return true
	}
	return false
}
