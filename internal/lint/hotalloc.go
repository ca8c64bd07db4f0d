package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ruleHotAlloc flags allocation sites inside loops of the solver packages
// (internal/lp, internal/milp) — the static complement of the allocs/node
// budget benchmark: the benchmark catches a regression after it lands, this
// flags the site in review. Flagged inside any loop of non-test solver
// code:
//
//   - make(...) and new(...);
//   - append(...) — any append may grow (amortized reallocation is still a
//     per-iteration allocation in the worst case), except the self-append
//     `x = append(x, ...)` to a variable declared OUTSIDE the loop, which
//     is the standard amortized-growth idiom the solver's setup code is
//     built on;
//   - composite literals, unless they are directly assigned to an element
//     or field of a pre-allocated container (x[i] = T{...} writes in
//     place);
//   - function literals — a closure created per iteration captures per
//     iteration.
//
// Like hot-loop-time: a function literal resets the loop context (it may
// run far from the loop that defines it), functions with "sample" in their
// name are exempt, and _test.go files are skipped.
//
// Known false negatives (DESIGN.md §2.12): allocations the compiler would
// sink anyway (escape analysis is not modeled — the rule is about sites,
// not escapes); string concatenation; boxing at interface conversions;
// allocations inside callees.
var ruleHotAlloc = &Rule{
	Name: "hot-alloc",
	New: func(p *Pass) func(*ast.File) {
		if !solverPkgs[p.Pkg.Path] {
			return nil
		}
		return func(f *ast.File) {
			if strings.HasSuffix(p.Position(f.Pos()).Filename, "_test.go") {
				return
			}
			inspectStack(f, func(n ast.Node, stack []ast.Node) {
				loop := enclosingLoop(stack)
				if loop == nil {
					return
				}
				switch n := n.(type) {
				case *ast.CallExpr:
					id, ok := ast.Unparen(n.Fun).(*ast.Ident)
					if !ok {
						return
					}
					if _, isBuiltin := p.Pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
						return
					}
					switch id.Name {
					case "make", "new":
						p.Report(n.Pos(), "%s inside a loop of %s; hoist the allocation or reuse a buffer", id.Name, p.Pkg.Path)
					case "append":
						if !isAmortizedSelfAppend(n, stack, loop) {
							p.Report(n.Pos(), "append inside a loop of %s that is not the amortized self-append idiom; pre-size or hoist it", p.Pkg.Path)
						}
					}
				case *ast.CompositeLit:
					if isNestedLit(stack) {
						return // covered by the outermost literal's report
					}
					if isInPlaceWrite(n, stack) {
						return
					}
					if isSelfAppendArg(p, n, stack, loop) {
						return // the element is copied by value into amortized storage
					}
					p.Report(n.Pos(), "composite literal inside a loop of %s; hoist it or write into a pre-allocated slot", p.Pkg.Path)
				case *ast.FuncLit:
					p.Report(n.Pos(), "closure created inside a loop of %s; hoist it out of the loop", p.Pkg.Path)
				}
			})
		}
	},
}

// isNestedLit reports whether the composite literal at the top of the stack
// sits inside another composite literal (possibly through the KeyValueExpr
// of a keyed struct or map literal).
func isNestedLit(stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.KeyValueExpr:
			continue
		case *ast.CompositeLit:
			return true
		default:
			return false
		}
	}
	return false
}

// enclosingLoop returns the innermost for/range statement enclosing the
// stack top within the current function — nil when the nearest
// function boundary (decl or literal) is crossed first, when that boundary
// is a FuncDecl named like a sampler, or when there is no loop at all.
func enclosingLoop(stack []ast.Node) ast.Node {
	for i := len(stack) - 2; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			// Walk outward to the owning function: sampler funcs are exempt.
			for j := i - 1; j >= 0; j-- {
				switch fn := stack[j].(type) {
				case *ast.FuncDecl:
					if strings.Contains(strings.ToLower(fn.Name.Name), "sample") {
						return nil
					}
					return n
				case *ast.FuncLit:
					return n
				}
			}
			return n
		case *ast.FuncDecl, *ast.FuncLit:
			return nil
		}
	}
	return nil
}

// isAmortizedSelfAppend reports whether call is `x = append(x, ...)` (or
// x.f = append(x.f, ...), x[i] = append(x[i], ...)) where the destination
// is declared outside the enclosing loop — growth is amortized across
// iterations rather than re-paid on each.
func isAmortizedSelfAppend(call *ast.CallExpr, stack []ast.Node, loop ast.Node) bool {
	if len(call.Args) == 0 {
		return false
	}
	// The call must be the sole RHS of an assignment to its own first arg.
	var assign *ast.AssignStmt
	for i := len(stack) - 2; i >= 0; i-- {
		if a, ok := stack[i].(*ast.AssignStmt); ok {
			assign = a
			break
		}
		if _, ok := stack[i].(ast.Stmt); ok {
			break
		}
	}
	if assign == nil || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 || assign.Rhs[0] != call {
		return false
	}
	if types.ExprString(assign.Lhs[0]) != types.ExprString(call.Args[0]) {
		return false
	}
	// A short variable declaration inside the loop re-allocates per
	// iteration; anything else (=, or := outside — impossible here since
	// the assignment is inside the loop) is the amortized idiom.
	if assign.Tok.String() == ":=" && loop.Pos() <= assign.Pos() && assign.End() <= loop.End() {
		return false
	}
	return true
}

// isSelfAppendArg reports whether the composite literal is an element
// argument of an append that qualifies as the amortized self-append idiom:
// `x = append(x, T{...})` copies the literal by value into the slice's
// amortized storage, so the literal itself is not a per-iteration heap
// allocation (unless it contains its own allocations — nested make/append
// inside the literal are still examined on their own).
func isSelfAppendArg(p *Pass, lit *ast.CompositeLit, stack []ast.Node, loop ast.Node) bool {
	if len(stack) < 2 {
		return false
	}
	call, ok := stack[len(stack)-2].(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	if _, isBuiltin := p.Pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return false
	}
	for _, arg := range call.Args[1:] {
		if arg == ast.Expr(lit) {
			return isAmortizedSelfAppend(call, stack[:len(stack)-1], loop)
		}
	}
	return false
}

// isInPlaceWrite reports whether the composite literal is directly assigned
// into an element or field of an existing container — x[i] = T{...} or
// x.f = T{...} — which writes into already-allocated storage (unless the
// literal itself escapes via & — that case keeps its parent &-literal form
// and is reported).
func isInPlaceWrite(lit *ast.CompositeLit, stack []ast.Node) bool {
	parent := stack[len(stack)-2]
	assign, ok := parent.(*ast.AssignStmt)
	if !ok || assign.Tok.String() == ":=" {
		return false
	}
	for i, rhs := range assign.Rhs {
		if rhs != ast.Expr(lit) || i >= len(assign.Lhs) {
			continue
		}
		switch assign.Lhs[i].(type) {
		case *ast.IndexExpr, *ast.SelectorExpr:
			return true
		}
	}
	return false
}
