package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// runPoolHygiene polices the sync.Pool discipline the zero-alloc hot
// paths depend on.  Three shapes are reported:
//
//   - Get() whose result is used without an immediate type assertion —
//     the untyped any forces a later assertion (or reflection) at every
//     use site and hides pool-type mixups from the compiler;
//   - Put(v) in a function showing no evidence that v was reset — a
//     recycled value carrying its previous request's state is the
//     classic pool corruption bug, and an unreset bytes.Buffer pins its
//     high-water allocation forever.  Evidence is any Reset/Clear-style
//     call rooted at v, a clear(v…) builtin, an assignment through v
//     (fields, elements, *v, v itself), or v being handed to another
//     function (which is assumed to reset it);
//   - a value obtained from Get() in a function that also Puts it being
//     returned or stored into a field of another value — the reference
//     outlives the Put, so the pool hands the same object to two owners.
//
// Test files are never loaded, so benchmarks and tests may do what
// they like.
func runPoolHygiene(m *Module, p *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			diags = append(diags, poolCheckFunc(m, p, fn)...)
		}
	}
	return diags
}

// poolCheckFunc applies the three pool rules to one function.
func poolCheckFunc(m *Module, p *Package, fn *ast.FuncDecl) []Diagnostic {
	var diags []Diagnostic

	// Pass 1 over the body: find Get calls, whether each is wrapped in
	// a type assertion, the variables Get results are bound to, and the
	// Put calls with their argument objects.
	type getInfo struct {
		call     *ast.CallExpr
		asserted bool
		obj      types.Object // variable the asserted result is bound to, if any
	}
	var gets []*getInfo
	getByCall := map[*ast.CallExpr]*getInfo{}
	putObjs := map[types.Object]*ast.CallExpr{}

	inspectStack(fn.Body, func(stack []ast.Node, n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if selectorIs(p, call.Fun, "sync", "Pool.Get") {
			gi := &getInfo{call: call}
			// The assertion must wrap the call directly:
			// pool.Get().(*T).  Parens in between are tolerated.
			for i := len(stack) - 1; i >= 0; i-- {
				switch stack[i].(type) {
				case *ast.ParenExpr:
					continue
				case *ast.TypeAssertExpr:
					gi.asserted = true
				}
				break
			}
			gets = append(gets, gi)
			getByCall[call] = gi
		}
		if selectorIs(p, call.Fun, "sync", "Pool.Put") && len(call.Args) == 1 {
			if id := baseIdent(call.Args[0]); id != nil {
				if obj := objOf(p, id); obj != nil {
					putObjs[obj] = call
				}
			}
		}
		return true
	})

	// Bind Get results to variables: v := pool.Get().(*T) or
	// v = pool.Get().(*T).
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		ta, ok := as.Rhs[0].(*ast.TypeAssertExpr)
		if !ok {
			return true
		}
		call, ok := ta.X.(*ast.CallExpr)
		if !ok {
			return true
		}
		gi, ok := getByCall[call]
		if !ok {
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			gi.obj = objOf(p, id)
		}
		return true
	})

	// Rule 1: Get without a type assertion.
	for _, gi := range gets {
		if !gi.asserted {
			diags = append(diags, diag(m, "poolhygiene", gi.call.Pos(),
				"sync.Pool Get result used without a type assertion; bind it as pool.Get().(*T)"))
		}
	}

	// Rule 2: Put without reset evidence.
	for obj, put := range putObjs {
		if !hasResetEvidence(p, fn.Body, obj, put) {
			diags = append(diags, diag(m, "poolhygiene", put.Pos(),
				"pooled value %s is Put back with no reset in this function; stale state leaks into the next Get", obj.Name()))
		}
	}

	// Rule 3: a value this function both Gets and Puts escaping past
	// the Put via a return or a store into someone else's field.
	for _, gi := range gets {
		if gi.obj == nil {
			continue
		}
		if _, put := putObjs[gi.obj]; !put {
			continue // acquire helpers hand ownership out; allowed
		}
		obj := gi.obj
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ReturnStmt:
				for _, res := range n.Results {
					if id := baseIdent(res); id != nil && objOf(p, id) == obj {
						diags = append(diags, diag(m, "poolhygiene", n.Pos(),
							"pooled value %s is returned but also Put in this function; the caller and the pool now share it", obj.Name()))
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if i >= len(n.Rhs) {
						break
					}
					rid := baseIdent(n.Rhs[i])
					if rid == nil || objOf(p, rid) != obj {
						continue
					}
					// Storing into a field or element of some other
					// value: x.f = v, x[i] = v.
					switch lhs.(type) {
					case *ast.SelectorExpr, *ast.IndexExpr:
						if lid := baseIdent(lhs); lid == nil || objOf(p, lid) != obj {
							diags = append(diags, diag(m, "poolhygiene", n.Pos(),
								"pooled value %s is stored into a field or element but also Put in this function; the store outlives the Put", obj.Name()))
						}
					}
				}
			}
			return true
		})
	}

	return diags
}

// hasResetEvidence reports whether the function body contains any
// statement that plausibly resets obj before (or after acquiring) it:
// a method call named Reset/Clear/Truncate rooted at obj, clear(obj…),
// an assignment whose LHS is rooted at obj, or obj passed as an
// argument to any call other than the Put itself.
func hasResetEvidence(p *Package, body *ast.BlockStmt, obj types.Object, put *ast.CallExpr) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if n == put {
				return true
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Reset", "Clear", "Truncate":
					if id := baseIdent(sel.X); id != nil && objOf(p, id) == obj {
						found = true
						return false
					}
				}
			}
			if id, ok := n.Fun.(*ast.Ident); ok && len(n.Args) == 1 && isBuiltin(p, id, "clear") {
				if aid := baseIdent(n.Args[0]); aid != nil && objOf(p, aid) == obj {
					found = true
					return false
				}
			}
			// obj handed to another function: assume it resets.
			for _, arg := range n.Args {
				if id := baseIdent(arg); id != nil && objOf(p, id) == obj {
					found = true
					return false
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if _, isPlain := lhs.(*ast.Ident); isPlain && n.Tok == token.DEFINE {
					continue // the binding itself is not a reset
				}
				if id := baseIdent(lhs); id != nil && objOf(p, id) == obj {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}
