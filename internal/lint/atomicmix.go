package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"sync"
)

// ruleAtomicMix proves atomic/plain access consistency: a struct field that
// is accessed through sync/atomic anywhere in the program must never be
// read or written plainly anywhere else. One plain load racing one atomic
// store is a data race the race detector only catches when a test happens
// to schedule it; this rule catches it structurally. The histograms and the
// search stats have moved to typed atomics or owner-only writes; what it
// still guards is milp/pseudocost.go, whose slice elements are updated with
// function-style atomics (the CAS float-bit pseudocosts).
//
// Access taxonomy, per field (fieldKey):
//
//   - atomic: &x.f (or &x.f[i]) passed as an argument to a sync/atomic
//     package function. Element accesses (&x.f[i]) are tracked as a
//     separate "element" dimension of the field, so an atomically-updated
//     slice's header may still be read plainly (len, range bounds set
//     before the workers start).
//   - plain: any other rvalue/lvalue use of x.f (or x.f[i]).
//   - opaque: &x.f (or &x.f[i]) taken for anything that is NOT a direct
//     sync/atomic argument — e.g. passed to a CAS helper like
//     milp.atomicAddFloat. The pointer's eventual use is unknown, so it
//     counts as neither. This is deliberate: flagging it would outlaw the
//     repo's own float-bit CAS idiom.
//
// Only fields whose (element) type sync/atomic can operate on are tracked:
// the sized integers, uintptr, and unsafe.Pointer. Typed atomics
// (atomic.Int64 et al.) are self-consistent by construction and ignored —
// they are also the recommended fix.
//
// Known false negatives (documented in DESIGN.md §2.12): whole-struct
// copies (s2 := *s) read every field without a per-field selector;
// accesses through unsafe or reflection; pointers laundered through the
// opaque case above.
var ruleAtomicMix = &Rule{
	Name: "atomic-mix",
	New: func(p *Pass) func(*ast.File) {
		facts := atomicMixFacts(p.Prog)
		return func(f *ast.File) {
			// Pass 1: classify the arguments of sync/atomic calls and every
			// address-taken field path as atomic or opaque.
			consumed := map[*ast.SelectorExpr]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if !isAtomicCall(p.Pkg.Info, n) {
						return true
					}
					for _, arg := range n.Args {
						sel, elem, ok := addressedField(p.Pkg.Info, arg)
						if !ok {
							continue
						}
						consumed[sel] = true
						facts.record(p, sel, elem, accessAtomic)
					}
				case *ast.UnaryExpr:
					if n.Op != token.AND {
						return true
					}
					if sel, _, ok := addressedField(p.Pkg.Info, n); ok {
						// &x.f outside an atomic call: opaque. Mark it so
						// pass 2 does not count it as plain. (Atomic args
						// were already consumed above; Inspect visits the
						// call before its arguments, so this also sees them
						// — recording opaque is a no-op.)
						consumed[sel] = true
					}
				}
				return true
			})
			// Pass 2: every remaining field selector is a plain access. An
			// index over a field selector (x.f[i] without &) is a plain
			// *element* access and must land in the element dimension, so
			// it is claimed here before the bare-selector case sees it.
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.IndexExpr:
					sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr)
					if !ok || consumed[sel] {
						return true
					}
					if tsel, ok := p.Pkg.Info.Selections[sel]; ok && tsel.Kind() == types.FieldVal {
						consumed[sel] = true
						facts.record(p, sel, true, accessPlain)
					}
				case *ast.SelectorExpr:
					if !consumed[n] {
						facts.record(p, n, false, accessPlain)
					}
				}
				return true
			})
		}
	},
	Join: func(prog *Program) {
		facts := atomicMixFacts(prog)
		facts.mu.Lock()
		defer facts.mu.Unlock()
		for _, dim := range []struct {
			atomic, plain map[string][]accessSite
			what          string
		}{
			{facts.atomicDirect, facts.plainDirect, "field"},
			{facts.atomicElem, facts.plainElem, "elements of field"},
		} {
			for key, atomics := range dim.atomic {
				plains := dim.plain[key]
				if len(plains) == 0 {
					continue
				}
				sort.Slice(atomics, func(i, j int) bool { return posLess(atomics[i].pos, atomics[j].pos) })
				for _, site := range plains {
					prog.Report(site.pos, "atomic-mix",
						"plain access of %s %s, which is accessed via sync/atomic at %s; use sync/atomic (or a typed atomic) consistently",
						dim.what, key, shortPos(atomics[0].pos))
				}
			}
		}
	},
}

type accessKind int

const (
	accessAtomic accessKind = iota
	accessPlain
)

type accessSite struct {
	pos token.Position
}

type atomicMixStore struct {
	mu           sync.Mutex
	atomicDirect map[string][]accessSite
	plainDirect  map[string][]accessSite
	atomicElem   map[string][]accessSite
	plainElem    map[string][]accessSite
}

func atomicMixFacts(prog *Program) *atomicMixStore {
	return prog.Facts("atomic-mix", func() any {
		return &atomicMixStore{
			atomicDirect: map[string][]accessSite{},
			plainDirect:  map[string][]accessSite{},
			atomicElem:   map[string][]accessSite{},
			plainElem:    map[string][]accessSite{},
		}
	}).(*atomicMixStore)
}

func (s *atomicMixStore) record(p *Pass, sel *ast.SelectorExpr, elem bool, kind accessKind) {
	tsel, ok := p.Pkg.Info.Selections[sel]
	if !ok || tsel.Kind() != types.FieldVal {
		return
	}
	ft := tsel.Obj().Type()
	if elem {
		switch t := ft.Underlying().(type) {
		case *types.Slice:
			ft = t.Elem()
		case *types.Array:
			ft = t.Elem()
		case *types.Pointer: // *[N]T
			if a, ok := t.Elem().Underlying().(*types.Array); ok {
				ft = a.Elem()
			}
		}
	}
	if !atomicCapable(ft) {
		return
	}
	key := fieldKey(tsel)
	if key == "" {
		return
	}
	site := accessSite{pos: p.Position(sel.Sel.Pos())}
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.atomicDirect
	switch {
	case kind == accessAtomic && elem:
		m = s.atomicElem
	case kind == accessPlain && !elem:
		m = s.plainDirect
	case kind == accessPlain && elem:
		m = s.plainElem
	}
	m[key] = append(m[key], site)
}

// isAtomicCall reports whether call invokes a sync/atomic package function.
func isAtomicCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == "sync/atomic"
}

// addressedField unwraps &x.f and &x.f[i], returning the field selector and
// whether the address is of an element rather than the field itself.
func addressedField(info *types.Info, e ast.Expr) (sel *ast.SelectorExpr, elem bool, ok bool) {
	u, isAddr := ast.Unparen(e).(*ast.UnaryExpr)
	if !isAddr || u.Op != token.AND {
		return nil, false, false
	}
	switch x := ast.Unparen(u.X).(type) {
	case *ast.SelectorExpr:
		if s, ok := info.Selections[x]; ok && s.Kind() == types.FieldVal {
			return x, false, true
		}
	case *ast.IndexExpr:
		if s, okSel := ast.Unparen(x.X).(*ast.SelectorExpr); okSel {
			if ts, ok := info.Selections[s]; ok && ts.Kind() == types.FieldVal {
				return s, true, true
			}
		}
	}
	return nil, false, false
}

// atomicCapable reports whether sync/atomic's untyped functions can operate
// on t.
func atomicCapable(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		switch u.Kind() {
		case types.Int32, types.Int64, types.Uint32, types.Uint64, types.Uintptr, types.UnsafePointer:
			return true
		}
	case *types.Pointer:
		return true // atomic.SwapPointer et al. via unsafe.Pointer conversions
	}
	return false
}

func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}

// shortPos renders a position with the path reduced to its base name — the
// message is part of the finding's stable ID, so it must not carry an
// absolute path (and drops the line so edits near the atomic site do not
// churn IDs of findings elsewhere).
func shortPos(p token.Position) string {
	base := p.Filename
	for i := len(base) - 1; i >= 0; i-- {
		if base[i] == '/' {
			base = base[i+1:]
			break
		}
	}
	return base
}
