package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file carries the two single-file rules, float-cmp and hot-loop-time,
// and the helpers hot-alloc shares with them.

// solverPkgs are the hot-path packages where wall-clock, randomness, and
// (under hot-alloc) per-iteration allocation are banned inside loops — the
// determinism and reproducibility contract of the solver stack (DESIGN.md).
var solverPkgs = map[string]bool{
	"raha/internal/lp":    true,
	"raha/internal/milp":  true,
	"raha/internal/paths": true,
}

// inspectStack walks f depth-first, calling visit with each node and the
// stack of its ancestors (innermost last, n itself included).
func inspectStack(f *ast.File, visit func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		visit(n, stack)
		return true
	})
}

// --- float-cmp ---------------------------------------------------------------

// ruleFloatCmp flags == and != where both operands are non-constant floats.
// Comparisons against a constant (x == 0, f != 1) are the solver's sentinel
// idiom and stay legal; it is the comparison of two computed floats that
// silently depends on rounding.
var ruleFloatCmp = &Rule{
	Name: "float-cmp",
	New: func(p *Pass) func(*ast.File) {
		return func(f *ast.File) {
			inspectStack(f, func(n ast.Node, _ []ast.Node) {
				e, ok := n.(*ast.BinaryExpr)
				if !ok || (e.Op != token.EQL && e.Op != token.NEQ) {
					return
				}
				lt, rt := p.Pkg.Info.Types[e.X], p.Pkg.Info.Types[e.Y]
				if lt.Value != nil || rt.Value != nil {
					return // one side is a compile-time constant
				}
				if isFloat(lt.Type) && isFloat(rt.Type) {
					p.Report(e.OpPos,
						"%s between two non-constant floats; order them or compare against a tolerance", e.Op)
				}
			})
		}
	},
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// --- hot-loop-time -----------------------------------------------------------

// ruleHotLoopTime flags package-level calls into time and math/rand inside
// any loop of the solver packages. Wall-clock reads in the simplex or
// branch-and-bound inner loops make runs irreproducible and cost a vDSO
// call per iteration; deadline checks belong on node boundaries (where the
// solver already polls) and randomness belongs in the seeded sampler.
// Functions with "sample" in their name and _test.go files are exempt.
var ruleHotLoopTime = &Rule{
	Name: "hot-loop-time",
	New: func(p *Pass) func(*ast.File) {
		if !solverPkgs[p.Pkg.Path] {
			return nil
		}
		return func(f *ast.File) {
			if strings.HasSuffix(p.Position(f.Pos()).Filename, "_test.go") {
				return
			}
			inspectStack(f, func(n ast.Node, stack []ast.Node) {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok {
					return
				}
				if _, ok := p.Pkg.Info.Uses[id].(*types.PkgName); !ok {
					return // method call or local selector, not a package function
				}
				obj, ok := p.Pkg.Info.Uses[sel.Sel].(*types.Func)
				if !ok || obj.Pkg() == nil {
					return // a conversion like time.Duration(x), not a function call
				}
				path := obj.Pkg().Path()
				if path != "time" && path != "math/rand" && path != "math/rand/v2" {
					return
				}
				inLoop := false
				for i := len(stack) - 1; i >= 0; i-- {
					switch fn := stack[i].(type) {
					case *ast.ForStmt, *ast.RangeStmt:
						inLoop = true
					case *ast.FuncDecl:
						if inLoop && !strings.Contains(strings.ToLower(fn.Name.Name), "sample") {
							p.Report(call.Pos(),
								"%s.%s inside a loop of %s; hoist it out or move it to the sampler",
								id.Name, sel.Sel.Name, p.Pkg.Path)
						}
						return
					case *ast.FuncLit:
						// A closure resets the loop context: the literal may run
						// far from the loop that encloses its definition. Only
						// loops inside the literal itself count.
						if inLoop {
							p.Report(call.Pos(),
								"%s.%s inside a loop of %s; hoist it out or move it to the sampler",
								id.Name, sel.Sel.Name, p.Pkg.Path)
						}
						return
					}
				}
			})
		}
	},
}
