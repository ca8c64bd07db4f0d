package lint

import "go/types"

// Cross-package facts cannot key on types.Object identity: each lint target
// is type-checked in its own universe, so the same field seen from two
// packages is two distinct objects. These helpers derive deterministic
// string keys instead.

// fieldKey returns the stable key of the field a selection ultimately
// resolves to: "<pkg>.<OwnerType>.<field>". Promoted fields key under the
// struct that declares them, so `outer.N` and `outer.Inner.N` agree.
func fieldKey(sel *types.Selection) string {
	t := sel.Recv()
	idx := sel.Index()
	for _, i := range idx[:len(idx)-1] {
		st := underStruct(t)
		if st == nil {
			return ""
		}
		t = st.Field(i).Type()
	}
	st := underStruct(t)
	if st == nil {
		return ""
	}
	f := st.Field(idx[len(idx)-1])
	owner := "_"
	if n := namedOf(t); n != nil {
		owner = n.Obj().Name()
	}
	pkg := "_"
	if f.Pkg() != nil {
		pkg = f.Pkg().Path()
	}
	return pkg + "." + owner + "." + f.Name()
}

// underStruct returns t's underlying struct, looking through one level of
// pointer, or nil.
func underStruct(t types.Type) *types.Struct {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
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
