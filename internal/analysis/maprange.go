package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// runMapRange flags `for … range m` over a map value in the pass's
// scope unless the loop follows a deterministic idiom.  Two shapes are
// accepted:
//
//   - pure accumulation: the body only assigns, appends or increments
//     (no function calls beyond append/len/cap/delete/min/max), so the
//     result is iteration-order independent — this is the "collect the
//     keys" half of the sorted-keys idiom and also covers sums and
//     maxima;
//   - collect-then-sort: a sort.* or slices.Sort* call appears in the
//     same function after the loop, which is the canonical
//     keys := …; sort.Slice(keys, …) sequence.
//
// Everything else — printing, writing, or calling helpers directly
// from a map range — is reported.
func runMapRange(m *Module, p *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := p.Info.TypeOf(rs.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				if pureAccumulation(p, rs.Body) {
					return true
				}
				if hasSortCallAfter(p, fn.Body, rs.End()) {
					return true
				}
				diags = append(diags, diag(m, "maprange", rs.Pos(),
					"iteration over map %s in output-producing package is nondeterministic; range over sorted keys", exprString(rs.X)))
				return true
			})
		}
	}
	return diags
}

// accumulationBuiltins are the only callees allowed inside a map-range
// body for it to count as pure accumulation.
var accumulationBuiltins = map[string]bool{
	"append": true, "len": true, "cap": true, "delete": true,
	"min": true, "max": true, "abs": true,
}

// pureAccumulation reports whether the block contains no call other
// than order-insensitive builtins — ranging a map with such a body
// cannot leak iteration order into any output stream.
func pureAccumulation(p *Package, body *ast.BlockStmt) bool {
	pure := true
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			if accumulationBuiltins[id.Name] && isBuiltin(p, id, id.Name) {
				return true
			}
			// Type conversions (e.g. NodeID(v)) are order-safe too.
			if _, isType := objOf(p, id).(*types.TypeName); isType {
				return true
			}
		}
		pure = false
		return false
	})
	return pure
}

// hasSortCallAfter reports whether a sort.* or slices.Sort* call
// occurs in body strictly after pos — the tail of the sorted-keys
// idiom.
func hasSortCallAfter(p *Package, body *ast.BlockStmt, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= pos {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := resolveSelector(p, sel)
		if !ok || (fn.Kind != symFunc && fn.Kind != symMethod) {
			return true
		}
		switch fn.PkgPath {
		case "sort":
			found = true
		case "slices":
			found = strings.HasPrefix(fn.Name, "Sort")
		}
		return !found
	})
	return found
}

// exprString renders a short source form of simple expressions for
// diagnostics (identifiers and selector chains; anything else becomes
// "expression").
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprString(e.Fun) + "(…)"
	default:
		return "expression"
	}
}
