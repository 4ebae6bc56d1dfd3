package analysis

import "go/ast"

// sessionPkgSuffix and sessionTypeName locate the module's one
// sanctioned context-holding struct: the Session type of the execution
// layer.  A Session is itself a cancellation scope — it lives exactly
// as long as the run it governs — so storing its context is the
// documented exception to the pass-ctx-as-a-parameter rule.
const (
	sessionPkgSuffix = "/internal/run"
	sessionTypeName  = "Session"
)

// runCtxField flags struct fields of type context.Context anywhere but
// the session type.  Contexts stored in long-lived structs outlive the
// call they were meant to scope: cancellation stops propagating, and a
// value cancelled long ago silently poisons every later method call.
// The Go rule is to pass ctx as the first parameter; structs that need
// a scope should take a *run.Session instead.
func runCtxField(m *Module, p *Package) []Diagnostic {
	sanctioned := p.Path == m.Path+sessionPkgSuffix
	var diags []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			if sanctioned && ts.Name.Name == sessionTypeName {
				return true
			}
			for _, field := range st.Fields.List {
				if !isNamedType(p, field.Type, "context", "Context") {
					continue
				}
				name := "embedded field"
				if len(field.Names) > 0 {
					name = "field " + field.Names[0].Name
				}
				diags = append(diags, diag(m, "ctxfield", field.Pos(),
					"%s of struct %s stores a context.Context; pass ctx as a parameter (or take a *run.Session)",
					name, ts.Name.Name))
			}
			return true
		})
	}
	return diags
}
