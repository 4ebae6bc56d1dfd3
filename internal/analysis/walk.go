package analysis

import (
	"go/ast"
	"go/types"
)

// inspectStack walks the tree like ast.Inspect but hands the visitor
// the ancestor stack as well (outermost first, not including n).  The
// pool, loop and handler passes all need to answer "what statement or
// loop encloses this expression", which plain ast.Inspect cannot.
func inspectStack(root ast.Node, visit func(stack []ast.Node, n ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := visit(stack, n)
		stack = append(stack, n)
		if !descend {
			// ast.Inspect still sends the nil pop for this node only
			// if we return true; returning false means no pop comes,
			// so unwind ourselves.
			stack = stack[:len(stack)-1]
		}
		return descend
	})
}

// funcDecls indexes a package's function declarations by their
// types.Object so method and function calls can be resolved back to
// their bodies.
func funcDecls(p *Package) map[types.Object]*ast.FuncDecl {
	idx := make(map[types.Object]*ast.FuncDecl)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if obj := p.Info.Defs[fn.Name]; obj != nil {
				idx[obj] = fn
			}
		}
	}
	return idx
}

// baseIdent walks selector / index / star / paren chains down to the
// root identifier, or nil when the expression is not rooted in one
// (e.g. a call result).
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// objOf resolves an identifier to its types.Object (use or def).
func objOf(p *Package, id *ast.Ident) types.Object {
	if obj := p.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Info.Defs[id]
}

// isBuiltin reports whether id is the named universe builtin (panic,
// append, clear, …) and not a package-level function shadowing it.
func isBuiltin(p *Package, id *ast.Ident, name string) bool {
	_, ok := objOf(p, id).(*types.Builtin)
	return ok && id.Name == name
}

// symbol is what a selector expression refers to outside its own
// package's locals: a package-level function, variable or type, or a
// method, identified by the package that declares it.
type symbol struct {
	PkgPath string // declaring package's import path
	PkgName string // its name, for messages
	Name    string // "Name", or "Recv.Name" for a method
	Kind    symbolKind
}

type symbolKind int

const (
	symUnresolved symbolKind = iota // import-qualified, but the package did not load
	symFunc                         // package-level function
	symMethod
	symOther // package-level variable, type or constant
)

func (s symbol) String() string { return s.PkgName + "." + s.Name }

// resolveSelector is the one place a selector is turned into the
// symbol it references.  Type information decides when the checker
// resolved the selection.  When it could not — the imported package
// failed to load — the qualifier's import declaration still names the
// package, so pkg.Name is trusted under whatever alias the file gave
// it; a local variable that merely shares a package's name never
// matches.  Struct fields and selections the checker gave up on
// resolve to nothing.
func resolveSelector(p *Package, sel *ast.SelectorExpr) (symbol, bool) {
	obj := p.Info.Uses[sel.Sel]
	if obj == nil {
		if id, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := p.Info.Uses[id].(*types.PkgName); ok {
				return symbol{pn.Imported().Path(), pn.Imported().Name(), sel.Sel.Name, symUnresolved}, true
			}
		}
		return symbol{}, false
	}
	if obj.Pkg() == nil {
		return symbol{}, false // universe: error.Error
	}
	sym := symbol{obj.Pkg().Path(), obj.Pkg().Name(), obj.Name(), symOther}
	switch obj := obj.(type) {
	case *types.Func:
		sym.Kind = symFunc
		if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
			sym.Kind = symMethod
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				sym.Name = named.Obj().Name() + "." + sym.Name
			}
		}
	case *types.Var:
		if obj.IsField() {
			return symbol{}, false
		}
	}
	return sym, true
}

// selectorIs reports whether e (a call's Fun, a type expression) is a
// selector resolving to the named symbol of the named package:
// ("fmt", "Sprintf"), or a method spelled with its receiver type,
// ("sync", "Pool.Get").
func selectorIs(p *Package, e ast.Expr, pkgPath, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	sym, ok := resolveSelector(p, sel)
	return ok && sym.PkgPath == pkgPath && sym.Name == name
}

// isNamedType reports whether the type expression (or typed value) e
// is the named type pkgPath.name.  An import-qualified type whose
// package did not load is matched through resolveSelector.
func isNamedType(p *Package, e ast.Expr, pkgPath, name string) bool {
	if named, ok := p.Info.TypeOf(e).(*types.Named); ok {
		obj := named.Obj()
		return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
	}
	return selectorIs(p, e, pkgPath, name)
}
