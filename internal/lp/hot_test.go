package lp

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
)

// wantRestoredMatches checks a restored or hot re-solve against the same
// call on a fresh copy of the Problem, which rebuilds its start state from
// the basis: the same status, the objective within 1e-9 relative, a point
// feasible within feasTol, and an optimal basis — a rebuilt warm start from
// it on a fresh copy takes no pivot. The pivots themselves may differ: the
// restored start carries the exporting solve's rounding where the fresh one
// recomputes.
func wantRestoredMatches(t *testing.T, what string, p *Problem, b *Basis, got *Solution) {
	t.Helper()
	want, err := SolveFrom(cloneProblem(p), b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != want.Status {
		t.Fatalf("%s: restored %v, fresh %v", what, got.Status, want.Status)
	}
	if got.Status != Optimal {
		return
	}
	if d := math.Abs(got.Objective - want.Objective); d > 1e-9*math.Max(1, math.Abs(want.Objective)) {
		t.Fatalf("%s: restored objective %.17g, fresh %.17g", what, got.Objective, want.Objective)
	}
	wantFeasible(t, what, p, got.X)
	if got.Basis == nil {
		t.Fatalf("%s: a restored solve ended optimal without a basis", what)
	}
	again, err := SolveFrom(cloneProblem(p), got.Basis, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.Status != Optimal || !again.WarmStarted || again.Iters != 0 {
		t.Fatalf("%s: the restored solve's basis is not optimal: a fresh warm start from it ends %v (warm %v) after %d pivots",
			what, again.Status, again.WarmStarted, again.Iters)
	}
}

// wantFeasible checks x against p's bounds and rows within feasTol, scaled
// by the magnitude of each row's terms.
func wantFeasible(t *testing.T, what string, p *Problem, x []float64) {
	t.Helper()
	for j := range x {
		if x[j] < p.Lo[j]-feasTol || x[j] > p.Hi[j]+feasTol {
			t.Fatalf("%s: x[%d] = %g outside [%g, %g]", what, j, x[j], p.Lo[j], p.Hi[j])
		}
	}
	for i, r := range p.Rows {
		v, mag := 0.0, math.Abs(r.RHS)
		for k, j := range r.Idx {
			v += r.Coef[k] * x[j]
			mag = math.Max(mag, math.Abs(r.Coef[k]*x[j]))
		}
		tol := feasTol * math.Max(1, mag)
		if (r.Rel == LE && v > r.RHS+tol) || (r.Rel == GE && v < r.RHS-tol) || (r.Rel == EQ && math.Abs(v-r.RHS) > tol) {
			t.Fatalf("%s: row %d reads %.17g %v %.17g", what, i, v, r.Rel, r.RHS)
		}
	}
}

// TestHotStartMatchesFresh is the hot start's referee on the 400-LP corpus:
// solve, re-solve warm from the optimal basis (a cold solve that needed an
// artificial column leaves nothing live), tighten one bound, and re-solve
// from the basis that ended on, on the same Problem — a hot start, whenever
// the tightened column's reduced cost keeps its sign — and check the answer
// against a fresh copy's.
func TestHotStartMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	hot := 0
	for trial := 0; trial < 400; trial++ {
		p := genLP(rng)
		root, err := Solve(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if root.Status != Optimal || root.Basis == nil {
			continue
		}
		if root, err = SolveFrom(p, root.Basis, nil); err != nil || root.Status != Optimal {
			t.Fatalf("trial %d: the warm re-solve of an optimal basis: %v %+v", trial, err, root)
		}
		tightenRandomBound(rng, p)
		before := cHot.Value()
		got, err := SolveFrom(p, root.Basis, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := cHot.Value() - before; n != 0 != got.Hot || got.Hot && !got.WarmStarted {
			t.Fatalf("trial %d: Hot %v, warm %v, lp.hot_starts moved by %d", trial, got.Hot, got.WarmStarted, n)
		}
		if got.Hot {
			hot++
		}
		wantRestoredMatches(t, fmt.Sprintf("trial %d", trial), p, root.Basis, got)
	}
	t.Logf("%d hot starts", hot)
	if hot < 140 {
		t.Fatalf("only %d re-solves started hot; the referee no longer exercises the hot start", hot)
	}
}

// TestHotStartDives runs dives: from an optimal root, successive branchings
// — an upper bound cut below the value a moving column holds — each
// re-solved from the basis the last one ended on, as branch and bound's dive
// does. On LPs of 200 rows the eta file fills and the basis is refactorized
// inside some hot solves, so later hot starts carry factors and basic
// values across a refactorization. Every step must match a fresh copy's
// solve, and most dives must run at least eight deep.
func TestHotStartDives(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	hot, across, deep := 0, 0, 0
	for dive := 0; dive < 12; dive++ {
		p := genSparseLPCols(int64(100+dive), 200, 260, dive%2 == 1)
		sol, err := Solve(p, nil)
		if err != nil || sol.Status != Optimal {
			t.Fatalf("dive %d: root: %v %v", dive, err, sol)
		}
		refactored := false
		for depth := 0; depth < 16; depth++ {
			b := sol.Basis
			branch(rng, p, sol.X, 1+rng.Intn(3))
			refacs := cRefacs.Value()
			if sol, err = SolveFrom(p, b, nil); err != nil {
				t.Fatal(err)
			}
			if sol.Hot {
				hot++
				if refactored {
					across++
				}
			}
			if sol.Hot && cRefacs.Value() > refacs {
				refactored = true
			}
			wantRestoredMatches(t, fmt.Sprintf("dive %d, depth %d", dive, depth), p, b, sol)
			if depth == 7 {
				deep++
			}
			if sol.Status != Optimal {
				break
			}
		}
	}
	t.Logf("%d of 12 dives eight deep; %d hot starts, %d of them after a hot solve refactorized", deep, hot, across)
	if deep < 8 || hot < 60 || across < 10 {
		t.Fatalf("%d dives eight deep, %d hot starts, %d after a refactorization; the dives no longer carry the state through one", deep, hot, across)
	}
}

// branch cuts the upper bounds of k columns that x holds above their lower
// bounds to below those values, as a branching does: each re-solve from the
// basis that gave x has a basic or an upper-bounded column to move.
func branch(rng *rand.Rand, p *Problem, x []float64, k int) {
	var moving []int
	for j, v := range x {
		if v > p.Lo[j]+1e-3 {
			moving = append(moving, j)
		}
	}
	for ; k > 0 && len(moving) > 0; k-- {
		j := moving[rng.Intn(len(moving))]
		p.Hi[j] = math.Min(p.Hi[j], p.Lo[j]+(x[j]-p.Lo[j])*rng.Float64())
	}
}

// hotCase returns a 40-row LP, solved to optimality on the Problem — cold,
// then warm from its optimal basis, since a cold solve that needed an
// artificial column leaves nothing live — and then branched on, whose
// re-solve from the optimal basis starts hot and satisfies ok; and that
// basis. A twin built from the same seed takes that re-solve first, so the
// Problem returned still holds the live state for the caller to act on.
func hotCase(t *testing.T, seed int64, ok func(*Solution) bool) (*Problem, *Basis) {
	t.Helper()
	for ; ; seed++ {
		build := func() (*Problem, *Solution) {
			rng := rand.New(rand.NewSource(seed))
			p := genSparseLPCols(seed, 40, 50, seed%2 == 1)
			sol, err := Solve(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			if sol.Status == Optimal {
				if sol, err = SolveFrom(p, sol.Basis, nil); err != nil {
					t.Fatal(err)
				}
				branch(rng, p, sol.X, 3)
			}
			return p, sol
		}
		twin, root := build()
		if root.Status != Optimal || root.Basis == nil {
			continue
		}
		probe, err := SolveFrom(twin, root.Basis, nil)
		if err != nil {
			t.Fatal(err)
		}
		if probe.Hot && ok(probe) {
			p, root := build()
			return p, root.Basis
		}
	}
}

func optimal(sol *Solution) bool { return sol.Status == Optimal }

// wantRebuilt checks that a re-solve neither restored its basis's end state
// nor started hot and is, bit for bit, the same call's on a fresh copy of
// the Problem.
func wantRebuilt(t *testing.T, what string, p *Problem, b *Basis, got *Solution) {
	t.Helper()
	if got.Restored || got.Hot {
		t.Fatalf("%s: the re-solve restored its basis (hot %v)", what, got.Hot)
	}
	want, err := SolveFrom(cloneProblem(p), b, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantSameSolution(t, what, got, want)
}

// TestHotStartFallsThrough: each of these leaves the basis's end state
// unusable, and the re-solve takes the rebuilt path — the one a fresh
// Problem takes, bit for bit: an edit to a cost; DropFactors; and an
// at-upper column whose upper bound is loosened to +Inf while its reduced
// cost says it wants to rise, which sends both paths cold. A last solve
// that ended ObjLimit or Infeasible before its first pivot does not: the
// next start from the same basis restores it, hot, and matches a fresh
// copy's.
func TestHotStartFallsThrough(t *testing.T) {
	for seed := int64(0); seed < 40; seed += 10 {
		p, b := hotCase(t, seed, optimal)
		p.Cost[0] += 0.5
		got, err := SolveFrom(p, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantRebuilt(t, fmt.Sprintf("seed %d: a cost edit", seed), p, b, got)

		p, b = hotCase(t, seed, optimal)
		p.DropFactors()
		if got, err = SolveFrom(p, b, nil); err != nil {
			t.Fatal(err)
		}
		wantRebuilt(t, fmt.Sprintf("seed %d: DropFactors", seed), p, b, got)

		// A limit below every objective stops the hot solve before its first
		// pivot: the factors are still b's, and the next start is hot again.
		p, b = hotCase(t, seed, optimal)
		stop, err := SolveFrom(p, b, &Options{ObjLimit: -math.MaxFloat64, UseObjLimit: true})
		if err != nil {
			t.Fatal(err)
		}
		if !stop.Hot || stop.Status != ObjLimit || stop.Iters != 0 {
			t.Fatalf("seed %d: hot %v, %v after %d iterations; want a hot solve stopped at once", seed, stop.Hot, stop.Status, stop.Iters)
		}
		if got, err = SolveFrom(p, b, nil); err != nil || !got.Hot {
			t.Fatalf("seed %d: after ObjLimit: %v, hot %v", seed, err, got.Hot)
		}
		wantRestoredMatches(t, fmt.Sprintf("seed %d: after ObjLimit", seed), p, b, got)
	}

	// min −2x₀ − x₁ subject to x₀ + x₁ ≤ 10, x₀ ∈ [0, 4], x₁ ∈ [0, 20]: x₀
	// rests at its upper bound with reduced cost −1, x₁ = 6 is basic.
	build := func() *Problem {
		p := NewProblem(2)
		p.Cost = []float64{-2, -1}
		p.Hi = []float64{4, 20}
		p.AddRow([]int{0, 1}, []float64{1, 1}, LE, 10)
		return p
	}
	p := build()
	root, err := Solve(p, nil)
	if err != nil || root.Status != Optimal || root.Basis.Stat[0] != BasisAtUpper {
		t.Fatalf("fixture: %v %+v", err, root)
	}
	// The control: a harmless tightening re-solves hot.
	if sol, err := SolveFrom(p, root.Basis, nil); err != nil || !sol.Hot || sol.Objective != -14 {
		t.Fatalf("fixture: the control re-solve: %v %+v", err, sol)
	}
	// x₀'s upper bound goes: it drops to its lower bound, where its
	// reduced cost has the wrong sign. Neither start is dual feasible, so
	// the solve runs cold.
	if _, err := Solve(p, nil); err != nil {
		t.Fatal(err)
	}
	p.Hi[0] = math.Inf(1)
	got, err := SolveFrom(p, root.Basis, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hot || got.WarmStarted || got.Status != Optimal || got.Objective != -20 {
		t.Fatalf("x₀ loosened to +Inf: hot %v, warm %v, %v %g; want a cold solve to −20", got.Hot, got.WarmStarted, got.Status, got.Objective)
	}
	wantRebuilt(t, "x₀ loosened to +Inf", p, root.Basis, got)

	// min x₀ + x₁ subject to x₀ + x₁ ≥ 2, x₀ fixed at 3 and posed at its
	// upper bound, where its reduced cost +1 has the wrong sign: fixed, it
	// is exempt, and the solve ends optimal at once and exports that basis.
	// Unfixed, the reduced cost counts, so the start from it runs cold.
	p = NewProblem(2)
	p.Cost = []float64{1, 1}
	p.Lo, p.Hi = []float64{3, 0}, []float64{3, 20}
	p.AddRow([]int{0, 1}, []float64{1, 1}, GE, 2)
	posed := &Basis{Basic: []int32{2}, Stat: []BasisStatus{BasisAtUpper, BasisAtLower, BasisBasic}}
	fixed, err := SolveFrom(p, posed, nil)
	if err != nil || fixed.Status != Optimal || fixed.Iters != 0 || fixed.Basis == nil || fixed.Basis.Stat[0] != BasisAtUpper {
		t.Fatalf("x₀ fixed at its upper bound: %v %+v", err, fixed)
	}
	p.Lo[0] = 0
	if got, err = SolveFrom(p, fixed.Basis, nil); err != nil {
		t.Fatal(err)
	}
	if got.Restored || got.WarmStarted || got.Status != Optimal || got.Objective != 2 {
		t.Fatalf("x₀ unfixed: restored %v, warm %v, %v %g; want a cold solve to 2", got.Restored, got.WarmStarted, got.Status, got.Objective)
	}

	// x₀ fixed at 4 and x₁ ≥ 7 cannot both hold: the hot solve (x₀ is fixed,
	// so exempt from the sign check) proves it before its first pivot.
	p = build()
	if root, err = Solve(p, nil); err != nil {
		t.Fatal(err)
	}
	p.Lo[0], p.Lo[1] = 4, 7
	if got, err = SolveFrom(p, root.Basis, nil); err != nil || !got.Hot || got.Status != Infeasible || got.Iters != 0 {
		t.Fatalf("the infeasible child: %v %+v", err, got)
	}
	p.Lo[0], p.Lo[1] = 0, 0
	if got, err = SolveFrom(p, root.Basis, nil); err != nil || !got.Hot {
		t.Fatalf("after Infeasible: %v %+v", err, got)
	}
	wantRestoredMatches(t, "after Infeasible", p, root.Basis, got)
}

// TestHotStartHonoursOptions: the hot path applies maxIters, Stop and
// ObjLimit as the rebuilt one does. A limit above the optimum changes
// nothing, bit for bit; one below it stops the solve with a bound between
// the two.
func TestHotStartHonoursOptions(t *testing.T) {
	twoPivots := func(sol *Solution) bool { return sol.Status == Optimal && sol.DualIters >= 2 }
	for seed := int64(0); seed < 200; seed += 20 {
		p, b := hotCase(t, seed, twoPivots)
		sol, err := SolveFrom(p, b, &Options{maxIters: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !sol.Hot || sol.Status != IterLimit || sol.Iters != 1 {
			t.Fatalf("seed %d: maxIters 1: hot %v, %v after %d iterations", seed, sol.Hot, sol.Status, sol.Iters)
		}

		p, b = hotCase(t, seed, twoPivots)
		var halt atomic.Bool
		halt.Store(true)
		if sol, err = SolveFrom(p, b, &Options{Stop: &halt}); err != nil {
			t.Fatal(err)
		}
		if !sol.Hot || sol.Status != IterLimit || sol.Iters != 0 {
			t.Fatalf("seed %d: Stop set: hot %v, %v after %d iterations", seed, sol.Hot, sol.Status, sol.Iters)
		}

		p, b = hotCase(t, seed, twoPivots)
		free, err := SolveFrom(p, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		z := free.Objective
		margin := 1e-6 * (1 + math.Abs(z))
		p, b = hotCase(t, seed, twoPivots)
		above, err := SolveFrom(p, b, &Options{ObjLimit: z + margin, UseObjLimit: true})
		if err != nil {
			t.Fatal(err)
		}
		if !above.Hot {
			t.Fatalf("seed %d: the limited twin did not start hot", seed)
		}
		wantSameSolution(t, fmt.Sprintf("seed %d: a limit above the optimum", seed), above, free)
		p, b = hotCase(t, seed, twoPivots)
		below, err := SolveFrom(p, b, &Options{ObjLimit: z - margin, UseObjLimit: true})
		if err != nil {
			t.Fatal(err)
		}
		if !below.Hot || below.Status != ObjLimit || below.Objective <= z-margin || below.Objective > z+1e-9 {
			t.Fatalf("seed %d: a limit below the optimum %g: hot %v, %v at %g", seed, z, below.Hot, below.Status, below.Objective)
		}
	}
}
