package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// runSpanCtx enforces the tracing discipline around span.Start in
// internal/ packages: every span that is started must be endable.
//
// A qualified span.Start call is flagged when its result is thrown
// away — used as a bare statement or assigned to the blank
// identifier — because a discarded Span can never be ended, leaving
// the trace's open-stack parent attribution pointing at a span that
// outlives its region.  A call whose result lands in a plain local
// variable is flagged when no End call on that variable appears
// anywhere in the enclosing function (deferred End, End inside a
// deferred closure and explicit mid-function End all count).  Results
// stored through fields, returned, or passed along are left alone:
// ownership moved, and the receiving code is the one on the hook.
func runSpanCtx(m *Module, p *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range p.Files {
		inspectStack(f, func(stack []ast.Node, n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isSpanStart(p, call) {
				return true
			}
			parent := parentNode(stack)
			switch pn := parent.(type) {
			case *ast.ExprStmt:
				diags = append(diags, diag(m, "spanctx", call.Pos(),
					"span.Start result discarded; a span nobody holds can never be ended"))
			case *ast.DeferStmt, *ast.GoStmt:
				// `defer span.Start(...)` runs Start at function exit
				// and discards the span; same defect, worse timing.
				_ = pn
				diags = append(diags, diag(m, "spanctx", call.Pos(),
					"span.Start result discarded; a span nobody holds can never be ended"))
			case *ast.AssignStmt:
				if id := assignTarget(pn, call); id != nil {
					diags = append(diags, spanCtxCheckVar(m, p, stack, call, id)...)
				}
			case *ast.ValueSpec:
				if id := valueSpecTarget(pn, call); id != nil {
					diags = append(diags, spanCtxCheckVar(m, p, stack, call, id)...)
				}
			}
			return true
		})
	}
	return diags
}

// spanCtxCheckVar flags the Start call when id is blank or when the
// enclosing function never calls End on id's object.
func spanCtxCheckVar(m *Module, p *Package, stack []ast.Node, call *ast.CallExpr, id *ast.Ident) []Diagnostic {
	if id.Name == "_" {
		return []Diagnostic{diag(m, "spanctx", call.Pos(),
			"span.Start assigned to the blank identifier; a span nobody holds can never be ended")}
	}
	obj := objOf(p, id)
	if obj == nil {
		return nil
	}
	fn := enclosingFuncBody(stack)
	if fn == nil || spanEndCalled(p, fn, obj) {
		return nil
	}
	return []Diagnostic{diag(m, "spanctx", call.Pos(),
		"span %s is started but never ended in this function; call %s.End() (usually deferred)", id.Name, id.Name)}
}

// isSpanStart matches a qualified call of Start from an obs/span
// package.
func isSpanStart(p *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	sym, ok := resolveSelector(p, sel)
	return ok && sym.Name == "Start" && strings.HasSuffix(sym.PkgPath, "/obs/span")
}

// parentNode returns the node immediately enclosing the visited one
// (inspectStack's stack is outermost-first and excludes the node
// itself, so the parent is the last entry).
func parentNode(stack []ast.Node) ast.Node {
	if len(stack) == 0 {
		return nil
	}
	return stack[len(stack)-1]
}

// assignTarget returns the identifier on the left of the assignment
// that receives the call's value, nil when the target is not a plain
// identifier (field stores and friends move ownership elsewhere).
func assignTarget(as *ast.AssignStmt, call *ast.CallExpr) *ast.Ident {
	for i, rhs := range as.Rhs {
		if rhs != ast.Expr(call) {
			continue
		}
		// One call filling several names is the multi-return shape;
		// Start returns one value, so positions align only when the
		// counts match.
		if len(as.Lhs) != len(as.Rhs) {
			return nil
		}
		id, _ := as.Lhs[i].(*ast.Ident)
		return id
	}
	return nil
}

// valueSpecTarget is assignTarget for `var sp = span.Start(...)`.
func valueSpecTarget(vs *ast.ValueSpec, call *ast.CallExpr) *ast.Ident {
	for i, v := range vs.Values {
		if v == ast.Expr(call) {
			if len(vs.Names) != len(vs.Values) {
				return nil
			}
			return vs.Names[i]
		}
	}
	return nil
}

// enclosingFuncBody returns the body of the innermost function (decl
// or literal) on the stack.
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

// spanEndCalled reports whether body contains a call of End on an
// identifier resolving to obj.  Nested closures count: deferring a
// closure that ends the span is the request handler's idiom.
func spanEndCalled(p *Package, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "End" {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && objOf(p, id) == obj {
			found = true
			return false
		}
		return true
	})
	return found
}
