package analysis

import (
	"go/ast"
	"go/types"
)

// peerPackageSuffixes are the package trees allowed to construct HTTP
// clients: the cluster's pooled fill client, the sanctioned peer-call
// path.  Anywhere else, an ad-hoc net/http client is a second,
// unpooled, unmetered peer-call path — it bypasses the cluster's
// breaker and connection pool, so a failing peer would not be flipped
// out of the ring.
var peerPackageSuffixes = []string{"/internal/cluster"}

// bannedClientFuncs are the net/http package-level helpers that route
// through the default client.
var bannedClientFuncs = map[string]bool{
	"Get": true, "Head": true, "Post": true, "PostForm": true,
}

// runPeerCall flags ad-hoc HTTP client construction and default-client
// use outside the sanctioned trees: http.Client composite literals,
// http.Get/Head/Post/PostForm calls, and http.DefaultClient mentions.
func runPeerCall(m *Module, p *Package) []Diagnostic {
	if pathSuffixMatch(m, p, peerPackageSuffixes) {
		return nil
	}
	var diags []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if isHTTPClientType(p, n.Type) {
					diags = append(diags, diag(m, "peercall", n.Pos(),
						"http.Client constructed outside internal/cluster; peer calls go through the cluster's pooled fill client"))
				}
			case *ast.SelectorExpr:
				if kind, ok := bannedClientSelector(p, n); ok {
					diags = append(diags, diag(m, "peercall", n.Pos(),
						"%s uses net/http's default client; peer calls go through the cluster's pooled fill client", kind))
				}
				// Keep descending: http.DefaultClient.Do nests the
				// DefaultClient selector inside the method selector.
			}
			return true
		})
	}
	return diags
}

// isHTTPClientType reports whether the composite literal's type is
// net/http.Client, preferring type information and falling back to the
// syntactic http.Client form.
func isHTTPClientType(p *Package, expr ast.Expr) bool {
	if expr == nil {
		return false
	}
	if p.Info != nil {
		if tv, ok := p.Info.Types[expr]; ok && tv.Type != nil {
			if named, ok := tv.Type.(*types.Named); ok {
				obj := named.Obj()
				return obj != nil && obj.Name() == "Client" &&
					obj.Pkg() != nil && obj.Pkg().Path() == "net/http"
			}
			return false
		}
	}
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Client" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == "http"
}

// bannedClientSelector reports whether sel is a default-client helper
// call target (http.Get and friends) or the http.DefaultClient
// variable, returning a label for the diagnostic.
func bannedClientSelector(p *Package, sel *ast.SelectorExpr) (string, bool) {
	if p.Info != nil {
		switch obj := p.Info.Uses[sel.Sel].(type) {
		case *types.Func:
			// Package-level functions only: http.Header.Get and other
			// methods share names with the banned helpers.
			if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
				return "", false
			}
			if pkg := obj.Pkg(); pkg != nil && pkg.Path() == "net/http" && bannedClientFuncs[obj.Name()] {
				return "http." + obj.Name(), true
			}
			return "", false
		case *types.Var:
			if pkg := obj.Pkg(); pkg != nil && pkg.Path() == "net/http" && obj.Name() == "DefaultClient" {
				return "http.DefaultClient", true
			}
			return "", false
		}
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || id.Name != "http" {
		return "", false
	}
	if bannedClientFuncs[sel.Sel.Name] {
		return "http." + sel.Sel.Name, true
	}
	if sel.Sel.Name == "DefaultClient" {
		return "http.DefaultClient", true
	}
	return "", false
}
