package milp

import (
	"math"
	"testing"
)

// TestExprBoundsZeroCoefInfUpper is the regression test for the NaN
// propagation bug: a term with coefficient 0 on a variable with an infinite
// upper bound must contribute exactly 0 to the interval, not IEEE
// 0·(+Inf) = NaN.
func TestExprBoundsZeroCoefInfUpper(t *testing.T) {
	m := NewModel()
	free := m.ContinuousVar(0, math.Inf(1))
	x := m.ContinuousVar(0, 4)
	e := NewExpr(T(0, free), T(2, x))
	e.AddConst(1)
	lo, hi := m.ExprBounds(e)
	if lo != 1 || hi != 9 {
		t.Fatalf("ExprBounds = [%g, %g], want [1, 9]", lo, hi)
	}
}

func TestTermBoundsZeroCoefTimesInf(t *testing.T) {
	lo, hi := termBounds(0, 0, math.Inf(1))
	if lo != 0 || hi != 0 {
		t.Fatalf("termBounds(0, 0, +Inf) = [%g, %g], want [0, 0]", lo, hi)
	}
	lo, hi = termBounds(-2, 1, 3)
	if lo != -6 || hi != -2 {
		t.Fatalf("termBounds(-2, 1, 3) = [%g, %g], want [-6, -2]", lo, hi)
	}
}

// TestIndicatorGEZeroCoefBigM: before the fix, the poisoned interval turned
// the IndicatorGE Big-M coefficients into NaN silently (IsInf(NaN) is
// false, so the bounded-expression panic never fired). Now the encoding
// must come out finite and the indicator semantics must hold.
func TestIndicatorGEZeroCoefBigM(t *testing.T) {
	m := NewModel()
	free := m.ContinuousVar(0, math.Inf(1))
	x := m.ContinuousVar(0, 4)
	expr := NewExpr(T(0, free), T(1, x))
	z := m.IndicatorGE(expr, 3, 1e-6)

	for i := 0; i < m.NumConstraints(); i++ {
		e, _, rhs := m.ConstraintAt(i)
		if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
			t.Fatalf("constraint %d: non-finite rhs %g", i, rhs)
		}
		for _, term := range e.Terms {
			if math.IsNaN(term.C) || math.IsInf(term.C, 0) {
				t.Fatalf("constraint %d: non-finite coefficient %g", i, term.C)
			}
		}
	}

	// Force x to 4: the indicator must switch on; maximize z to check it may.
	m.Fix(x, 4)
	m.Fix(free, 0)
	m.SetObjective(NewExpr(T(1, z)), Maximize)
	res, err := m.Solve(Params{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantObj(t, res, 1)
}

// TestAccessors covers the read-only model view the model-check catalogue in
// internal/metaopt's tests walks.
func TestAccessors(t *testing.T) {
	m := NewModel()
	b := m.BinaryVar()
	x := m.ContinuousVar(-1, 2)
	n := m.NewVar(0, 9, Integer)
	m.Add(NewExpr(T(2, x), T(1, b)), LE, 5)
	m.SetObjective(NewExpr(T(1, n)), Minimize)

	if m.TypeOf(b) != Binary || m.TypeOf(x) != Continuous || m.TypeOf(n) != Integer {
		t.Fatal("TypeOf mismatch")
	}
	expr, rel, rhs := m.ConstraintAt(0)
	if rel != LE || rhs != 5 || len(expr.Terms) != 2 {
		t.Fatalf("ConstraintAt = %v %v %v", expr, rel, rhs)
	}
	obj, sense := m.Objective()
	if sense != Minimize || len(obj.Terms) != 1 || obj.Terms[0].V != n {
		t.Fatalf("Objective = %v %v", obj, sense)
	}
}
