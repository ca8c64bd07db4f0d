package lp

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// sameSolution requires two solutions to agree bit for bit: status,
// objective and every X, iteration counts, flags and the exported basis's
// Basic and Stat.
func sameSolution(t *testing.T, what string, got, want *Solution) {
	t.Helper()
	if got.Status != want.Status || math.Float64bits(got.Objective) != math.Float64bits(want.Objective) ||
		len(got.X) != len(want.X) {
		t.Fatalf("%s: %v obj %v, want %v obj %v", what, got.Status, got.Objective, want.Status, want.Objective)
	}
	for j := range got.X {
		if math.Float64bits(got.X[j]) != math.Float64bits(want.X[j]) {
			t.Fatalf("%s: x[%d] = %v, want %v", what, j, got.X[j], want.X[j])
		}
	}
	if !sameBasis(got.Basis, want.Basis) {
		t.Fatalf("%s: basis %+v, want %+v", what, got.Basis, want.Basis)
	}
	g, w := *got, *want
	g.X, w.X, g.Objective, w.Objective, g.Basis, w.Basis = nil, nil, 0, 0, nil, nil
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: %+v, want %+v", what, g, w)
	}
}

// perturbed returns a copy of p whose coefficients are each scaled by a
// factor in [0.8, 1.25) that is not a power of two — a different model of
// the same shape, which the power-of-two scaling cannot map onto p's.
func perturbed(rng *rand.Rand, p *Problem) *Problem {
	q := NewProblem(p.NumVars)
	copy(q.Cost, p.Cost)
	copy(q.Lo, p.Lo)
	copy(q.Hi, p.Hi)
	for _, r := range p.Rows {
		coef := make([]float64, len(r.Coef))
		for k, v := range r.Coef {
			coef[k] = v * (0.8 + 0.45*rng.Float64())
		}
		q.AddRow(append([]int(nil), r.Idx...), coef, r.Rel, r.RHS)
	}
	return q
}

// freshSolve solves p on a workspace of its own, never released.
func freshSolve(t *testing.T, p *Problem, b *Basis) *Solution {
	t.Helper()
	c := &spCache{}
	if err := buildCache(p, c); err != nil {
		t.Fatal(err)
	}
	p.sp = c
	sol, err := SolveFrom(p, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

// TestWorkspaceSwitchDropsFactors_Regression is the hazard of a workspace
// that outlives its Problem. Warm starts reuse the last factorization when
// the basis matches it slot for slot (startFactors), keyed by content alone.
// Problem A is solved and released; Problem B, of the same shape but other
// coefficients, takes A's workspace and warm-starts from a basis equal to
// the one A factorized last. Reusing A's L and U there would solve B with
// A's matrix; the solution must instead be, bit for bit, a fresh
// workspace's, and lp.warm_factor_reuses must not move.
func TestWorkspaceSwitchDropsFactors_Regression(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	checked := 0
	for trial := 0; trial < 200 && checked < 20; trial++ {
		a, _, basis := benchStateOf(t, genSparseLP(int64(100+trial), 40))
		// Re-solve A from its own optimal basis: no pivots, so the
		// workspace's last factorization is of exactly that basis.
		if sol, err := SolveFrom(a, basis, nil); err != nil || !sol.WarmStarted || sol.Iters != 0 {
			continue
		}
		ws := a.sp
		if !ws.s.facWarm || !slices.Equal(ws.s.facBasic, basis.Basic) {
			continue
		}
		a.Release()

		b := perturbed(rng, a)
		want := freshSolve(t, clone(b), basis)

		reuses := cReuses.Value()
		got, err := SolveFrom(b, basis, nil)
		if err != nil {
			t.Fatal(err)
		}
		if b.sp != ws {
			t.Fatalf("trial %d: B did not take A's released workspace", trial)
		}
		if d := cReuses.Value() - reuses; d != 0 {
			t.Fatalf("trial %d: B's warm start reused %d factorization(s) of A's matrix", trial, d)
		}
		sameSolution(t, "B on A's workspace", got, want)
		b.Release()
		checked++
	}
	if checked < 20 {
		t.Fatalf("only %d instances factorized their optimal basis with every pivot above warmPivTol", checked)
	}
}

// clone returns a deep copy of p with no workspace.
func clone(p *Problem) *Problem {
	q := NewProblem(p.NumVars)
	copy(q.Cost, p.Cost)
	copy(q.Lo, p.Lo)
	copy(q.Hi, p.Hi)
	for _, r := range p.Rows {
		q.AddRow(append([]int(nil), r.Idx...), append([]float64(nil), r.Coef...), r.Rel, r.RHS)
	}
	return q
}
