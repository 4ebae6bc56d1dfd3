package analysis

import (
	"go/ast"
	"go/types"
)

// runGoroLeak flags goroutines in internal/ packages that carry no way
// to be stopped, and any goroutine spawned directly from an HTTP
// handler.
//
// A goroutine counts as stoppable when the code it runs — the literal
// body, or the body of a same-package function or method it calls —
// references a context.Context or any channel-typed value (receives,
// sends, range loops and closes all qualify: a worker draining a
// work channel terminates when the channel is closed).  Everything
// else is a goroutine the daemon's drain sequence cannot reach; the
// serving stack's graceful shutdown depends on there being none.
//
// Inside handler-shaped functions (anything handed the *http.Request)
// a bare `go` is flagged regardless: per-request goroutines multiply
// with request rate, so a request's work runs on its own connection
// goroutine, behind the admission gate.
func runGoroLeak(m *Module, p *Package) []Diagnostic {
	decls := funcDecls(p)
	var diags []Diagnostic
	for _, f := range p.Files {
		inspectStack(f, func(stack []ast.Node, n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if inHandler(p, stack) {
				diags = append(diags, diag(m, "goroleak", gs.Pos(),
					"goroutine spawned inside an HTTP handler; per-request work runs on the request's own goroutine behind the admission gate"))
				return true
			}
			if goroutineStoppable(p, decls, gs) {
				return true
			}
			diags = append(diags, diag(m, "goroleak", gs.Pos(),
				"goroutine captures no context.Context and no stop/done channel; it cannot be cancelled or drained"))
			return true
		})
	}
	return diags
}

// inHandler reports whether the stack passes through a function (decl
// or literal) with the (http.ResponseWriter, *http.Request) signature.
func inHandler(p *Package, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		var ft *ast.FuncType
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			ft = fn.Type
		case *ast.FuncLit:
			ft = fn.Type
		default:
			continue
		}
		if isHandlerType(p, ft) {
			return true
		}
		// Only the innermost enclosing function decides: a closure
		// inside a handler that is itself not handler-shaped (a
		// background worker's body) is judged by the stoppable rule.
		return false
	}
	return false
}

// isHandlerType matches any function that is handed the request: the
// func(http.ResponseWriter, *http.Request) shape itself, and the
// serving stack's handlers behind it, which take the *http.Request
// next to a wrapped writer and further arguments.
func isHandlerType(p *Package, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, param := range ft.Params.List {
		if star, ok := param.Type.(*ast.StarExpr); ok && isNamedType(p, star.X, "net/http", "Request") {
			return true
		}
	}
	return false
}

// goroutineStoppable reports whether the go statement's code can
// observe a stop signal.
func goroutineStoppable(p *Package, decls map[types.Object]*ast.FuncDecl, gs *ast.GoStmt) bool {
	// The call's arguments are part of the goroutine's environment.
	for _, arg := range gs.Call.Args {
		if exprHasSignal(p, arg) {
			return true
		}
	}
	switch fun := gs.Call.Fun.(type) {
	case *ast.FuncLit:
		return nodeHasSignal(p, fun.Body)
	case *ast.Ident, *ast.SelectorExpr:
		var callee types.Object
		switch f := fun.(type) {
		case *ast.Ident:
			callee = objOf(p, f)
		case *ast.SelectorExpr:
			callee = objOf(p, f.Sel)
			// A method expression's receiver may itself carry the
			// signal (go s.loop where s holds nothing is still checked
			// via the body below).
			if exprHasSignal(p, f.X) {
				return true
			}
		}
		if callee != nil {
			if decl, ok := decls[callee]; ok {
				return nodeHasSignal(p, decl.Body)
			}
		}
	}
	return false
}

// nodeHasSignal reports whether any expression under n is a
// context.Context or has a channel type.
func nodeHasSignal(p *Package, n ast.Node) bool {
	if n == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if found {
			return false
		}
		if e, ok := x.(ast.Expr); ok && exprHasSignal(p, e) {
			found = true
			return false
		}
		return true
	})
	return found
}

// exprHasSignal reports whether e's type is context.Context or a
// channel.
func exprHasSignal(p *Package, e ast.Expr) bool {
	if t := p.Info.TypeOf(e); t != nil {
		if _, isChan := t.Underlying().(*types.Chan); isChan {
			return true
		}
	}
	return isNamedType(p, e, "context", "Context")
}
