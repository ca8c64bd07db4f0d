package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ruleErrDrop flags expression statements that silently discard an error
// result outside test files. Only bare call statements are flagged:
// an explicit `_ = f()` is a sanctioned, greppable discard, and defer/go
// statements are exempt (a deferred Close's error has nowhere to go — if
// it matters, the call belongs in the function body).
//
// Allowlist (the repo's progress-printing idiom): fmt.Print/Printf/Println,
// and fmt.Fprint* when the writer statically cannot fail or failure is
// delivered elsewhere — os.Stdout, os.Stderr, *bytes.Buffer,
// *strings.Builder, a hash (hash/*'s Write never returns an error), or
// *text/tabwriter.Writer (errors surface on Flush). Methods called directly
// on a bytes.Buffer or strings.Builder receiver (WriteString, WriteByte, …)
// are allowed for the same reason: both types document that their Write
// methods always return a nil error.
//
// Known false negatives (DESIGN.md §2.12): errors dropped through
// multi-assign `x, _ :=`, through defer/go, or through a function value;
// only direct call statements are examined.
var ruleErrDrop = &Rule{
	Name: "err-drop",
	New: func(p *Pass) func(*ast.File) {
		return func(f *ast.File) {
			if strings.HasSuffix(p.Position(f.Pos()).Filename, "_test.go") {
				return
			}
			ast.Inspect(f, func(n ast.Node) bool {
				stmt, ok := n.(*ast.ExprStmt)
				if !ok {
					return true
				}
				call, ok := ast.Unparen(stmt.X).(*ast.CallExpr)
				if !ok {
					return true
				}
				if tv, ok := p.Pkg.Info.Types[call.Fun]; ok && tv.IsType() {
					return true // conversion, not a call
				}
				if !returnsError(p, call) || errDropAllowed(p, call) {
					return true
				}
				p.Report(call.Pos(),
					"result of %s includes an error that is silently discarded; handle it or assign to _", callName(call))
				return true
			})
		}
	},
}

// returnsError reports whether the call's last result is an error.
func returnsError(p *Pass, call *ast.CallExpr) bool {
	tv, ok := p.Pkg.Info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if tuple, ok := t.(*types.Tuple); ok {
		if tuple.Len() == 0 {
			return false
		}
		t = tuple.At(tuple.Len() - 1).Type()
	}
	return isErrorType(t)
}

func isErrorType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() == nil && n.Obj().Name() == "error"
}

// errDropAllowed applies the writer allowlist.
func errDropAllowed(p *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := p.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		// Methods on the cannot-fail writers always return a nil error.
		if n := namedOf(recv.Type()); n != nil && n.Obj().Pkg() != nil {
			switch n.Obj().Pkg().Path() + "." + n.Obj().Name() {
			case "bytes.Buffer", "strings.Builder":
				return true
			}
		}
	}
	if fn.Pkg().Path() != "fmt" {
		return false
	}
	name := fn.Name()
	if strings.HasPrefix(name, "Print") {
		return true // stdout by definition
	}
	if !strings.HasPrefix(name, "Fprint") || len(call.Args) == 0 {
		return false
	}
	w := ast.Unparen(call.Args[0])
	switch types.ExprString(w) {
	case "os.Stdout", "os.Stderr":
		return true
	}
	t := p.Pkg.Info.Types[w].Type
	if t == nil {
		return false
	}
	if n := namedOf(t); n != nil && n.Obj().Pkg() != nil {
		path := n.Obj().Pkg().Path()
		if path == "bytes" && n.Obj().Name() == "Buffer" {
			return true
		}
		if path == "strings" && n.Obj().Name() == "Builder" {
			return true
		}
		if path == "text/tabwriter" && n.Obj().Name() == "Writer" {
			return true
		}
		if path == "hash" || strings.HasPrefix(path, "hash/") {
			return true
		}
	}
	return false
}

// callName renders the call target for the message (selector path or bare
// name, arguments elided).
func callName(call *ast.CallExpr) string {
	return types.ExprString(call.Fun)
}

// namedOf returns the named type behind t, looking through one level of
// pointer, or nil.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}
