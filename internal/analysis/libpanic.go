package analysis

import (
	"go/ast"
	"strings"
)

// runLibPanic flags panic calls in non-test code under internal/ (the
// pass's scope).  Library paths must return errors: a panic in
// internal/dag or internal/core takes down every caller — the CLI
// tools, the bench harness, a future service — instead of letting them
// degrade gracefully.  Functions named Must* (or must*) are exempt; they are
// the conventional wrappers tests and package-level initialization use
// when an error is truly unrecoverable.
func runLibPanic(m *Module, p *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			name := fn.Name.Name
			if strings.HasPrefix(name, "Must") || strings.HasPrefix(name, "must") {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				// The builtin, not a shadowing function.
				id, ok := call.Fun.(*ast.Ident)
				if !ok || !isBuiltin(p, id, "panic") {
					return true
				}
				diags = append(diags, diag(m, "libpanic", call.Pos(),
					"panic in library function %s; return an error or move it behind a Must* helper", name))
				return true
			})
		}
	}
	return diags
}
