package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// runAllocInLoop flags three allocation-per-iteration patterns inside
// for/range loops in the hot packages:
//
//   - fmt.Sprintf / fmt.Errorf calls that run unconditionally every
//     iteration.  A call under an if or switch (defect collectors,
//     error branches) or feeding a return or panic (the way out of the
//     loop) allocates on a rare path, not per iteration, and is left
//     alone;
//   - string accumulation: s += x or s = s + x on a string variable —
//     each iteration reallocates the whole accumulated prefix; use
//     strings.Builder or strconv;
//   - x = append(x, …) as a direct, unconditional statement of a
//     range-loop body, growing a slice that was declared in this
//     function with no capacity (var x []T, x := []T{}, or
//     make([]T, 0)) — the iteration count is the operand's length, so
//     the growth chain's log(n) reallocations are one make(…, 0, n)
//     away.  Conditional appends and appends in counted loops keep an
//     unknowable final size and are left alone.
//
// At most one diagnostic is reported per line.
func runAllocInLoop(m *Module, p *Package) []Diagnostic {
	var diags []Diagnostic
	seen := map[string]bool{} // file:line dedupe
	report := func(pos token.Pos, format string, args ...any) {
		d := diag(m, "allocinloop", pos, format, args...)
		key := d.File + ":" + strconv.Itoa(d.Line)
		if !seen[key] {
			seen[key] = true
			diags = append(diags, d)
		}
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			noCap := noCapSlices(p, fn.Body)
			inspectStack(fn.Body, func(stack []ast.Node, n ast.Node) bool {
				if !insideLoop(stack) {
					return true
				}
				switch n := n.(type) {
				case *ast.CallExpr:
					if (selectorIs(p, n.Fun, "fmt", "Sprintf") || selectorIs(p, n.Fun, "fmt", "Errorf")) &&
						!onLoopExit(stack, n) && !conditionalInLoop(stack) {
						sel := n.Fun.(*ast.SelectorExpr)
						report(n.Pos(), "%s.%s inside a hot-path loop allocates every iteration; format outside the loop or use strconv",
							exprString(sel.X), sel.Sel.Name)
					}
				case *ast.AssignStmt:
					diagStringConcat(p, n, report)
					if directRangeBodyStmt(stack) {
						diagAppendNoPrealloc(p, n, noCap, report)
					}
				}
				return true
			})
		}
	}
	return diags
}

// insideLoop reports whether the stack passes through a for or range
// statement body without leaving the current function.
func insideLoop(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		case *ast.FuncLit:
			return false
		}
	}
	return false
}

// conditionalInLoop reports whether a branch statement sits between
// the node and its innermost enclosing loop — the node then runs a
// data-dependent subset of iterations, not every one.
func conditionalInLoop(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.IfStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			return true
		case *ast.ForStmt, *ast.RangeStmt, *ast.FuncLit:
			return false
		}
	}
	return false
}

// directRangeBodyStmt reports whether the node being visited is an
// immediate statement of a range-loop body: the two innermost
// ancestors are the range statement and its block.  Appends nested
// under an if, switch or inner loop run a data-dependent number of
// times, so no preallocation size is knowable for them.
func directRangeBodyStmt(stack []ast.Node) bool {
	if len(stack) < 2 {
		return false
	}
	if _, ok := stack[len(stack)-1].(*ast.BlockStmt); !ok {
		return false
	}
	_, ok := stack[len(stack)-2].(*ast.RangeStmt)
	return ok
}

// onLoopExit reports whether the call is an argument of a return
// statement or a panic call somewhere between it and the enclosing
// loop — such a call runs at most once per loop execution.
func onLoopExit(stack []ast.Node, call *ast.CallExpr) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.ReturnStmt:
			return true
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		case *ast.ForStmt, *ast.RangeStmt, *ast.BlockStmt:
			// Keep climbing: blocks and the loop itself do not decide.
		}
	}
	return false
}

// diagStringConcat flags s += x and s = s + … accumulation on string
// identifiers.
func diagStringConcat(p *Package, as *ast.AssignStmt, report func(token.Pos, string, ...any)) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return
	}
	t := p.Info.TypeOf(as.Lhs[0])
	if t == nil {
		return
	}
	basic, ok := t.Underlying().(*types.Basic)
	if !ok || basic.Kind() != types.String {
		return
	}
	switch as.Tok {
	case token.ADD_ASSIGN:
		report(as.Pos(), "string accumulation %s += … inside a hot-path loop reallocates the prefix every iteration; use strings.Builder", id.Name)
	case token.ASSIGN:
		if bin, ok := as.Rhs[0].(*ast.BinaryExpr); ok && bin.Op == token.ADD && mentionsIdent(p, bin, objOf(p, id)) {
			report(as.Pos(), "string accumulation %s = %s + … inside a hot-path loop reallocates the prefix every iteration; use strings.Builder", id.Name, id.Name)
		}
	}
}

// mentionsIdent reports whether the expression references obj.
func mentionsIdent(p *Package, e ast.Expr, obj types.Object) bool {
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objOf(p, id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// noCapSlices collects the local slice variables declared with no
// capacity: `var x []T` with no initializer, `x := []T{}` with an
// empty literal, and `x := make([]T, 0)` with no capacity argument.
func noCapSlices(p *Package, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	mark := func(id *ast.Ident) {
		if obj := objOf(p, id); obj != nil {
			if _, isSlice := obj.Type().Underlying().(*types.Slice); isSlice {
				out[obj] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, name := range vs.Names {
					mark(name)
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				id, ok := n.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				switch r := rhs.(type) {
				case *ast.CompositeLit:
					if len(r.Elts) == 0 {
						mark(id)
					}
				case *ast.CallExpr:
					if fid, ok := r.Fun.(*ast.Ident); ok && len(r.Args) == 2 && isBuiltin(p, fid, "make") {
						if lit, ok := r.Args[1].(*ast.BasicLit); ok && lit.Value == "0" {
							mark(id)
						}
					}
				}
			}
		}
		return true
	})
	return out
}

// diagAppendNoPrealloc flags x = append(x, …) in a loop when x is a
// no-capacity local.
func diagAppendNoPrealloc(p *Package, as *ast.AssignStmt, noCap map[types.Object]bool, report func(token.Pos, string, ...any)) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 || as.Tok != token.ASSIGN {
		return
	}
	lid, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return
	}
	fid, ok := call.Fun.(*ast.Ident)
	if !ok || !isBuiltin(p, fid, "append") {
		return
	}
	firstID, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return
	}
	obj := objOf(p, lid)
	if obj == nil || objOf(p, firstID) != obj || !noCap[obj] {
		return
	}
	report(as.Pos(), "append to %s grows an uncapacitated slice inside a hot-path loop; preallocate with make(…, 0, n)", lid.Name)
}
