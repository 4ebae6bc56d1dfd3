package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// runLockSafe flags mixed sync/atomic and plain access to the same
// struct field: the plain access races every atomic one, and the race
// detector only catches it on exercised paths.
//
// By-value copies of lock-bearing types are not this pass's to flag:
// that is go vet's copylocks analyzer, which scripts/ci.sh runs over
// the whole tree; TestCopyLocksCoveredByGoVet pins on this pass's
// fixture that it does.
func runLockSafe(m *Module, p *Package) []Diagnostic {
	// Phase 1: fields used atomically, and the selector nodes that are
	// part of those atomic calls (so they are not re-flagged as plain).
	atomicFields := map[types.Object]bool{}
	inAtomicCall := map[*ast.SelectorExpr]bool{}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := resolveSelector(p, sel)
			if !ok || fn.PkgPath != "sync/atomic" || fn.Kind != symFunc || !isAtomicAccess(fn.Name) {
				return true
			}
			un, ok := call.Args[0].(*ast.UnaryExpr)
			if !ok || un.Op != token.AND {
				return true
			}
			fieldSel, ok := un.X.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if s, ok := p.Info.Selections[fieldSel]; ok && s.Kind() == types.FieldVal {
				atomicFields[s.Obj()] = true
				inAtomicCall[fieldSel] = true
			}
			return true
		})
	}
	if len(atomicFields) == 0 {
		return nil
	}
	// Phase 2: plain accesses to those fields.
	var diags []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || inAtomicCall[sel] {
				return true
			}
			s, ok := p.Info.Selections[sel]
			if !ok || s.Kind() != types.FieldVal || !atomicFields[s.Obj()] {
				return true
			}
			diags = append(diags, diag(m, "locksafe", sel.Pos(),
				"plain access to field %s that is accessed atomically elsewhere in this package; every access must go through sync/atomic", s.Obj().Name()))
			return true
		})
	}
	return diags
}

// isAtomicAccess reports whether name is one of the sync/atomic
// package functions whose first argument is the address of the
// accessed word.
func isAtomicAccess(name string) bool {
	for _, verb := range []string{"Load", "Store", "Add", "Swap", "CompareAndSwap"} {
		if strings.HasPrefix(name, verb) {
			return true
		}
	}
	return false
}
