package lint

import (
	"go/ast"
	"go/types"
)

// ruleAtomicMix keeps every shared word a typed atomic: it flags each call
// of a sync/atomic package function (atomic.AddInt64, LoadUint64,
// CompareAndSwapPointer, …) in any file, tests included. A word such calls
// reach is a plain integer or pointer to the compiler, so a plain read or
// write of it elsewhere — a race the race detector sees only when a test
// happens to schedule it — compiles. A typed atomic (atomic.Int64,
// atomic.Uint64, atomic.Pointer[T], …) has no plain access: the compiler
// refuses one, and go vet's copylocks check, which ci.sh runs, refuses a
// copy. Its methods are therefore never flagged, and the rule needs no view
// beyond the call in front of it. The float-bits CAS idiom runs on an
// atomic.Uint64 (milp/pseudocost.go).
var ruleAtomicMix = &Rule{
	Name: "atomic-mix",
	New: func(p *Pass) func(*ast.File) {
		return func(f *ast.File) {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if fn := atomicFunc(p.Pkg.Info, call); fn != nil {
						p.Report(call.Pos(),
							"atomic.%s on an untyped word; use a typed atomic (atomic.Int64, atomic.Uint64, …), which cannot be reached plainly",
							fn.Name())
					}
				}
				return true
			})
		}
	},
}

// atomicFunc returns the sync/atomic package function call invokes, or nil
// when it invokes anything else — a typed atomic's method included.
func atomicFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || fn.Signature().Recv() != nil {
		return nil
	}
	return fn
}
