package lp

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"raha/internal/obs"
)

// genLP builds a seeded random bounded LP of the shape the warm-start tests
// exercise: a handful of variables with finite boxes, a few rows of mixed
// relations.
func genLP(rng *rand.Rand) *Problem {
	n := 2 + rng.Intn(6)
	p := NewProblem(n)
	for j := 0; j < n; j++ {
		p.Cost[j] = rng.NormFloat64()
		p.Lo[j] = -float64(rng.Intn(3))
		p.Hi[j] = p.Lo[j] + 1 + rng.Float64()*8
	}
	for i := 0; i < 1+rng.Intn(5); i++ {
		var idx []int
		var coef []float64
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.5 {
				idx = append(idx, j)
				coef = append(coef, rng.NormFloat64())
			}
		}
		if len(idx) == 0 {
			continue
		}
		p.AddRow(idx, coef, []Rel{LE, GE, EQ}[rng.Intn(3)], rng.NormFloat64()*5)
	}
	return p
}

// tightenRandomBound applies a branch-and-bound-style bound change to one
// variable: either raise its lower bound or lower its upper bound part-way
// through the box.
func tightenRandomBound(rng *rand.Rand, p *Problem) {
	j := rng.Intn(p.NumVars)
	cut := p.Lo[j] + (p.Hi[j]-p.Lo[j])*rng.Float64()
	if rng.Intn(2) == 0 {
		p.Lo[j] = cut
	} else {
		p.Hi[j] = cut
	}
}

// TestWarmResolveMatchesCold is the warm-start correctness property: after
// a bound tightening, re-solving from the parent basis must reach the same
// status and objective as a cold solve, with phase 1 never running on the
// warm path.
func TestWarmResolveMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	warmed := 0
	for trial := 0; trial < 400; trial++ {
		p := genLP(rng)
		parent, err := Solve(p, nil)
		if err != nil {
			t.Fatalf("trial %d: parent solve: %v", trial, err)
		}
		if parent.Status != Optimal || parent.Basis == nil {
			continue
		}
		tightenRandomBound(rng, p)

		cold, err := Solve(p, nil)
		if err != nil {
			t.Fatalf("trial %d: cold child solve: %v", trial, err)
		}
		warm, err := SolveFrom(p, parent.Basis, nil)
		if err != nil {
			t.Fatalf("trial %d: warm child solve: %v", trial, err)
		}
		if warm.WarmStarted {
			warmed++
			if warm.Phase1Iters != 0 {
				t.Fatalf("trial %d: warm solve ran %d phase-1 iterations", trial, warm.Phase1Iters)
			}
		}
		if cold.Status != warm.Status {
			t.Fatalf("trial %d: cold status %v != warm status %v", trial, cold.Status, warm.Status)
		}
		if cold.Status == Optimal && math.Abs(cold.Objective-warm.Objective) > 1e-6 {
			t.Fatalf("trial %d: cold objective %g != warm objective %g",
				trial, cold.Objective, warm.Objective)
		}
		// A warm optimal solve must export a basis usable by grandchildren.
		if warm.Status == Optimal && warm.WarmStarted && warm.Basis == nil {
			t.Fatalf("trial %d: warm optimal solve exported no basis", trial)
		}
	}
	if warmed < 150 {
		t.Fatalf("only %d/400 trials took the warm path; the dual-simplex phase is not being exercised", warmed)
	}
}

// TestWarmSkipsPhase1Counters pins the accounting satellite: a warm re-solve
// contributes nothing to lp.phase1_iterations and exactly one increment to
// lp.warm_solves.
func TestWarmSkipsPhase1Counters(t *testing.T) {
	p := NewProblem(2)
	p.Cost = []float64{-1, -2}
	p.Hi = []float64{4, 4}
	p.AddRow([]int{0, 1}, []float64{1, 1}, LE, 5)
	p.AddRow([]int{0, 1}, []float64{1, 3}, GE, 2) // forces phase 1 on the cold path

	parent, err := Solve(p, nil)
	if err != nil || parent.Status != Optimal {
		t.Fatalf("parent solve: %v %v", parent, err)
	}
	if parent.Basis == nil {
		t.Fatal("parent optimal solve exported no basis")
	}

	p.Hi[1] = 1 // tighten: the inherited point becomes primal-infeasible
	phase1Before := obs.Default.Counter("lp.phase1_iterations").Value()
	warmBefore := obs.Default.Counter("lp.warm_solves").Value()

	warm, err := SolveFrom(p, parent.Basis, nil)
	if err != nil {
		t.Fatalf("warm solve: %v", err)
	}
	if !warm.WarmStarted {
		t.Fatalf("expected the warm path, got a cold fallback: %+v", warm)
	}
	if warm.Status != Optimal {
		t.Fatalf("warm status %v, want optimal", warm.Status)
	}
	if warm.Phase1Iters != 0 {
		t.Fatalf("warm solve reports %d phase-1 iterations", warm.Phase1Iters)
	}
	if d := obs.Default.Counter("lp.phase1_iterations").Value() - phase1Before; d != 0 {
		t.Fatalf("warm solve added %d to lp.phase1_iterations", d)
	}
	if d := obs.Default.Counter("lp.warm_solves").Value() - warmBefore; d != 1 {
		t.Fatalf("lp.warm_solves advanced by %d, want 1", d)
	}

	cold, err := Solve(p, nil)
	if err != nil || cold.Status != Optimal {
		t.Fatalf("cold reference solve: %v %v", cold, err)
	}
	if math.Abs(cold.Objective-warm.Objective) > 1e-9 {
		t.Fatalf("warm objective %g != cold %g", warm.Objective, cold.Objective)
	}
}

// TestWarmDetectsInfeasibleChild: the dual simplex must prove infeasibility
// of a child whose bound change empties the feasible region.
func TestWarmDetectsInfeasibleChild(t *testing.T) {
	p := NewProblem(2)
	p.Cost = []float64{1, 1}
	p.Hi = []float64{10, 10}
	p.AddRow([]int{0, 1}, []float64{1, 1}, GE, 5)

	parent, err := Solve(p, nil)
	if err != nil || parent.Status != Optimal || parent.Basis == nil {
		t.Fatalf("parent solve: %+v %v", parent, err)
	}
	p.Hi[0], p.Hi[1] = 2, 2 // x0+x1 ≤ 4 < 5: infeasible
	warm, err := SolveFrom(p, parent.Basis, nil)
	if err != nil {
		t.Fatalf("warm solve: %v", err)
	}
	if warm.Status != Infeasible {
		t.Fatalf("warm status %v, want infeasible", warm.Status)
	}
}

// TestSolveFromFallsBack: structurally unusable bases must silently take
// the cold path and still produce the right answer.
func TestSolveFromFallsBack(t *testing.T) {
	p := NewProblem(2)
	p.Cost = []float64{-1, -1}
	p.Hi = []float64{3, 3}
	p.AddRow([]int{0, 1}, []float64{1, 1}, LE, 4)
	want, err := Solve(p, nil)
	if err != nil || want.Status != Optimal {
		t.Fatalf("reference solve: %v %v", want, err)
	}

	bad := []*Basis{
		nil,
		{Basic: []int{0}, Stat: []BasisStatus{BasisBasic}},                                // wrong Stat length
		{Basic: []int{0, 1}, Stat: []BasisStatus{BasisBasic, BasisBasic, BasisAtLower}},   // wrong Basic length
		{Basic: []int{2}, Stat: []BasisStatus{BasisAtLower, BasisAtLower, BasisAtLower}},  // Basic not marked basic
		{Basic: []int{5}, Stat: []BasisStatus{BasisBasic, BasisAtLower, BasisAtLower}},    // out of range
		{Basic: []int{0}, Stat: []BasisStatus{BasisBasic, BasisBasic, BasisAtLower}},      // count mismatch
		{Basic: []int{0, 0}, Stat: []BasisStatus{BasisBasic, BasisAtLower, BasisAtLower}}, // duplicate
	}
	for i, b := range bad {
		sol, err := SolveFrom(p, b, nil)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if sol.WarmStarted {
			t.Fatalf("case %d: unusable basis took the warm path", i)
		}
		if sol.Status != Optimal || math.Abs(sol.Objective-want.Objective) > 1e-9 {
			t.Fatalf("case %d: fallback result %v %g, want optimal %g", i, sol.Status, sol.Objective, want.Objective)
		}
	}
}

// TestExportedBasisIsValid: every optimal solve's exported basis passes the
// structural validation SolveFrom applies.
func TestExportedBasisIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		p := genLP(rng)
		sol, err := Solve(p, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Status != Optimal || sol.Basis == nil {
			continue
		}
		if !sol.Basis.valid(len(p.Rows), p.NumVars+len(p.Rows)) {
			t.Fatalf("trial %d: exported basis fails validation: %+v", trial, sol.Basis)
		}
	}
}

// TestObjLimitCorpus pins the objective cutoff on the 400-LP corpus. For
// every warm re-solve that ends optimal at z*: a limit just above z* changes
// nothing — status, objective, point, basis and pivot count all bit for bit
// those of the unlimited solve; a limit below z*, by a hair or by a lot,
// never returns Optimal — the solve stops with ObjLimit and an objective that
// is above the limit and a true lower bound on z*. A child the dual simplex
// proves infeasible may be reported either way under a limit (its dual
// objective is unbounded, so it passes any limit on the way). The dense referee
// has no dual bound to watch and solves every one of them out.
func TestObjLimitCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	limited := func(p *Problem, b *Basis, lim float64) *Solution {
		t.Helper()
		sol, err := SolveFrom(p, b, &Options{ObjLimit: lim, UseObjLimit: true})
		if err != nil {
			t.Fatalf("limited warm solve: %v", err)
		}
		return sol
	}
	stops, optimal := 0, 0
	stopsBefore := obs.Default.Counter("lp.objlimit_stops").Value()
	for trial := 0; trial < 400; trial++ {
		p := genLP(rng)
		parent, err := Solve(p, nil)
		if err != nil {
			t.Fatalf("trial %d: parent solve: %v", trial, err)
		}
		if parent.Status != Optimal || parent.Basis == nil {
			continue
		}
		tightenRandomBound(rng, p)
		free, err := SolveFrom(p, parent.Basis, nil)
		if err != nil {
			t.Fatalf("trial %d: warm solve: %v", trial, err)
		}
		if !free.WarmStarted {
			continue // the cold path ignores the limit
		}
		switch free.Status {
		case Infeasible:
			if got := limited(p, parent.Basis, parent.Objective); got.Status != Infeasible && got.Status != ObjLimit {
				t.Fatalf("trial %d: infeasible child under a limit: %v", trial, got.Status)
			}
			continue
		case Optimal:
			optimal++
		default:
			continue
		}
		z := free.Objective
		margin := 1e-6 * (1 + math.Abs(z))

		above := limited(p, parent.Basis, z+margin)
		if above.Status != Optimal || above.Iters != free.Iters || above.DualIters != free.DualIters ||
			math.Float64bits(above.Objective) != math.Float64bits(z) {
			t.Fatalf("trial %d: limit above the optimum: %v %.17g in %d iterations, unlimited optimal %.17g in %d",
				trial, above.Status, above.Objective, above.Iters, z, free.Iters)
		}
		for j := range free.X {
			if math.Float64bits(above.X[j]) != math.Float64bits(free.X[j]) {
				t.Fatalf("trial %d: limit above the optimum moved x[%d]: %.17g, unlimited %.17g", trial, j, above.X[j], free.X[j])
			}
		}
		if !reflect.DeepEqual(above.Basis, free.Basis) {
			t.Fatalf("trial %d: limit above the optimum changed the basis", trial)
		}

		for _, lim := range []float64{z - margin, z - 1 - rng.Float64()*math.Abs(z)} {
			got := limited(p, parent.Basis, lim)
			if got.Status != ObjLimit || !got.WarmStarted || got.Basis != nil {
				t.Fatalf("trial %d: limit %.12g below the optimum %.12g: %v (warm %v)", trial, lim, z, got.Status, got.WarmStarted)
			}
			if got.Objective <= lim || got.Objective > z+1e-9 {
				t.Fatalf("trial %d: stopped at bound %.12g; want above the limit %.12g and at most the optimum %.12g",
					trial, got.Objective, lim, z)
			}
			if got.Iters > free.Iters {
				t.Fatalf("trial %d: the limited solve took %d iterations, the unlimited one %d", trial, got.Iters, free.Iters)
			}
			stops++
			if d := denseFrom(p, parent.Basis, &Options{ObjLimit: lim, UseObjLimit: true}); d.Status != Optimal || math.Abs(d.Objective-z) > 1e-6 {
				t.Fatalf("trial %d: dense referee under a limit: %v %g, want optimal %g", trial, d.Status, d.Objective, z)
			}
		}
	}
	if optimal < 100 {
		t.Fatalf("only %d warm solves ended optimal; the corpus no longer exercises the cutoff", optimal)
	}
	if d := obs.Default.Counter("lp.objlimit_stops").Value() - stopsBefore; d < int64(stops) {
		t.Errorf("lp.objlimit_stops advanced by %d over %d stops", d, stops)
	}
}

// cloneProblem copies p into a Problem with no lowering yet: no factors and
// no reduced costs a warm start could reuse. The rows are shared; no solve
// edits them.
func cloneProblem(p *Problem) *Problem {
	return &Problem{
		NumVars: p.NumVars,
		Cost:    slices.Clone(p.Cost),
		Rows:    p.Rows,
		Lo:      slices.Clone(p.Lo),
		Hi:      slices.Clone(p.Hi),
	}
}

// wantSameSolution checks a re-solve against the same call made where
// nothing could be reused: the same status, pivots, point and basis, bit for
// bit (zeros of either sign equal).
func wantSameSolution(t *testing.T, what string, got, want *Solution) {
	t.Helper()
	if got.Status != want.Status || got.WarmStarted != want.WarmStarted ||
		got.Iters != want.Iters || got.DualIters != want.DualIters ||
		got.DegeneratePivots != want.DegeneratePivots || got.BlandPivots != want.BlandPivots {
		t.Fatalf("%s: %v warm %v, %d iterations (%d dual, %d degenerate, %d Bland); fresh: %v warm %v, %d (%d, %d, %d)",
			what, got.Status, got.WarmStarted, got.Iters, got.DualIters, got.DegeneratePivots, got.BlandPivots,
			want.Status, want.WarmStarted, want.Iters, want.DualIters, want.DegeneratePivots, want.BlandPivots)
	}
	if !sameBits(got.Objective, want.Objective) {
		t.Fatalf("%s: objective %v, fresh %v", what, got.Objective, want.Objective)
	}
	wantSameF(t, what+": X", got.X, want.X)
	if !reflect.DeepEqual(got.Basis, want.Basis) {
		t.Fatalf("%s: basis %+v, fresh %+v", what, got.Basis, want.Basis)
	}
}

// TestWarmReuseBitIdentical is the referee for the start state a warm
// solve reuses (startFactors, startD). Each LP of the corpus is re-solved
// from its optimal basis twice in a row, under two different bound
// changes: the first factorizes that basis, the second finds it already
// factored. Each result must be, bit for bit, the same call's on a fresh
// copy of the Problem, where nothing is kept to reuse.
func TestWarmReuseBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	hits := 0
	for trial := 0; trial < 400; trial++ {
		p := genLP(rng)
		root, err := Solve(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if root.Status != Optimal || root.Basis == nil {
			continue
		}
		lo, hi := slices.Clone(p.Lo), slices.Clone(p.Hi)
		for call := 0; call < 2; call++ {
			copy(p.Lo, lo)
			copy(p.Hi, hi)
			tightenRandomBound(rng, p)
			fresh := cloneProblem(p)
			before := cReuses.Value()
			got, err := SolveFrom(p, root.Basis, nil)
			if err != nil {
				t.Fatal(err)
			}
			reused := cReuses.Value() - before
			want, err := SolveFrom(fresh, root.Basis, nil)
			if err != nil {
				t.Fatal(err)
			}
			if n := cReuses.Value() - before - reused; n != 0 {
				t.Fatalf("trial %d: a fresh Problem's warm start reused factors (%d)", trial, n)
			}
			hits += int(reused)
			wantSameSolution(t, fmt.Sprintf("trial %d, call %d", trial, call), got, want)
		}
	}
	t.Logf("%d warm starts reused their factors", hits)
	if hits < 150 {
		t.Fatalf("only %d warm starts reused their factors; the referee no longer exercises the reuse", hits)
	}
}

// TestWarmReuseRecomputesChangedCosts: the reduced costs a warm start keeps
// belong to the scaled costs they came from. After an edit to Cost the next
// warm start on the same basis reuses the factors but recomputes the
// reduced costs, and its solve is the one a fresh Problem makes.
func TestWarmReuseRecomputesChangedCosts(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	checked := 0
	for trial := 0; trial < 400; trial++ {
		p := genLP(rng)
		root, err := Solve(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if root.Status != Optimal || root.Basis == nil {
			continue
		}
		if sol, err := SolveFrom(p, root.Basis, nil); err != nil || !sol.WarmStarted || sol.Iters != 0 {
			continue // the reduced costs kept are those of the optimal basis, fresh
		}
		p.Cost[rng.Intn(p.NumVars)] += rng.NormFloat64()

		// White-box: the start state the next solve will build.
		c := mustCache(t, p)
		s := &c.s
		if !s.initWarm(p, c, root.Basis) {
			t.Fatalf("trial %d: initWarm refused the optimal basis", trial)
		}
		before := cReuses.Value()
		if !s.startFactors() || cReuses.Value() != before+1 {
			t.Fatalf("trial %d: the factors of the optimal basis were not reused", trial)
		}
		s.recomputeXB()
		s.startD()
		d := slices.Clone(s.d)
		s.recomputeD()
		wantSameF(t, fmt.Sprintf("trial %d: reduced costs after a cost edit", trial), d, s.d)

		tightenRandomBound(rng, p)
		fresh := cloneProblem(p)
		got, err := SolveFrom(p, root.Basis, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := SolveFrom(fresh, root.Basis, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantSameSolution(t, fmt.Sprintf("trial %d", trial), got, want)
		checked++
	}
	t.Logf("%d cost edits checked", checked)
	if checked < 150 {
		t.Fatalf("only %d trials checked", checked)
	}
}

// TestWarmReuseRefusesLowPivotFactor: a mid-solve refactorization runs at
// luPivotFloor, below warmPivTol, so its factors may hold a pivot the warm
// path would turn down. They must not be reused: a warm start on their
// basis factorizes it itself, fails at warmPivTol and falls back cold,
// exactly as on a Problem that never held them. In the fixture the second
// pivot of the basis {x0, x1} is 2⁻²⁶ ≈ 1.5e-8.
func TestWarmReuseRefusesLowPivotFactor(t *testing.T) {
	const eps = 1.0 / (1 << 26)
	build := func() *Problem {
		p := NewProblem(2)
		p.Cost = []float64{-1, -1}
		p.Hi = []float64{4, 4}
		p.AddRow([]int{0, 1}, []float64{1, 1}, LE, 3)
		p.AddRow([]int{0, 1}, []float64{1, 1 + eps}, LE, 3)
		return p
	}
	basis := &Basis{Basic: []int{0, 1}, Stat: []BasisStatus{BasisBasic, BasisBasic, BasisAtLower, BasisAtLower}}
	p := build()
	c := mustCache(t, p)
	s := &c.s
	if !s.initWarm(p, c, basis) || !s.refactor() {
		t.Fatal("fixture: the basis does not factorize at luPivotFloor")
	}
	if s.fac.pivotsAbove(warmPivTol) || !s.fac.pivotsAbove(luPivotFloor) {
		t.Fatalf("fixture: pivots %v, want the smallest in [luPivotFloor, warmPivTol)", s.fac.diag)
	}
	before := cReuses.Value()
	got, err := SolveFrom(p, basis, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := cReuses.Value() - before; n != 0 || got.WarmStarted {
		t.Fatalf("factors with a pivot under warmPivTol were reused (%d) or the solve stayed warm (%v)", n, got.WarmStarted)
	}
	want, err := SolveFrom(build(), basis, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantSameSolution(t, "low-pivot basis", got, want)
}
