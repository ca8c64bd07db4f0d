package lp

import (
	"math"
	"math/rand"
	"testing"

	"raha/internal/obs"
)

// dualCold runs the dual cold start on p directly, whatever its size and
// however many of its rows start out of bounds.
func dualCold(t *testing.T, p *Problem) (*Solution, dualStart) {
	t.Helper()
	return solveDualCold(p, mustPrepare(t, p), nil, len(p.Rows))
}

// TestDualColdMatchesDenseCorpus: over the 400-LP corpus, the dual start
// from the slack basis agrees with the dense referee on status and optimal
// objective, returns a primal-feasible point, and runs no phase 1. Every
// corpus variable has a finite box, so every slack basis is dual feasible;
// a start may still give way to a stall, but the corpus must mostly finish
// from the dual, and must reach infeasible LPs and equality rows.
func TestDualColdMatchesDenseCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var started, infeasible, withEQ int
	for trial := 0; trial < 400; trial++ {
		p := genLP(rng)
		sol, why := dualCold(t, p)
		if why != dualStarted {
			if why != dualStalled {
				t.Fatalf("trial %d: the dual start gave way (%d) on a corpus LP whose slack basis is dual feasible", trial, why)
			}
			continue
		}
		started++
		ref := solveDense(p, nil)
		if sol.Status != ref.Status {
			t.Fatalf("trial %d: status dual start %v, dense %v", trial, sol.Status, ref.Status)
		}
		if !sol.DualCold || sol.WarmStarted || sol.Phase1Iters != 0 || sol.DualIters > sol.Iters {
			t.Fatalf("trial %d: dual cold %v, warm %v, %d phase-1 and %d dual of %d iterations",
				trial, sol.DualCold, sol.WarmStarted, sol.Phase1Iters, sol.DualIters, sol.Iters)
		}
		switch sol.Status {
		case Optimal:
			if math.Abs(sol.Objective-ref.Objective) > 1e-6 {
				t.Fatalf("trial %d: objective dual start %g, dense %g", trial, sol.Objective, ref.Objective)
			}
			checkFeasible(t, p, sol.X, trial)
			for _, r := range p.Rows {
				if r.Rel == EQ {
					withEQ++
					break
				}
			}
		case Infeasible:
			infeasible++
		default:
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
	}
	t.Logf("%d of 400 dual starts finished: %d infeasible, %d optimal with an equality row", started, infeasible, withEQ)
	if started < 380 || infeasible == 0 || withEQ == 0 {
		t.Fatalf("%d dual starts finished, %d infeasible, %d optimal with an equality row", started, infeasible, withEQ)
	}
}

// TestDualColdInfeasible: x ≥ 2 and x ≤ 1 have no common point, and the
// dual start proves it with no phase 1.
func TestDualColdInfeasible(t *testing.T) {
	p := NewProblem(1)
	p.Cost = []float64{1}
	p.Hi[0] = 10
	p.AddRow([]int{0}, []float64{1}, GE, 2)
	p.AddRow([]int{0}, []float64{1}, LE, 1)
	sol, why := dualCold(t, p)
	if why != dualStarted || sol.Status != Infeasible || sol.Phase1Iters != 0 {
		t.Fatalf("start %d: %+v, want an infeasible dual start", why, sol)
	}
}

// TestDualColdEquality: equality rows, whose slacks are fixed at zero, leave
// the slack basis primal infeasible; the dual drives those slacks out. The
// third variable's negative cost puts it at its upper bound.
func TestDualColdEquality(t *testing.T) {
	// min x + 3y − z s.t. x + y = 5, y − z = 1, x ≤ 3, z ≤ 4: x=3, y=2, z=1 → 8.
	p := NewProblem(3)
	p.Cost = []float64{1, 3, -1}
	p.Hi[0], p.Hi[2] = 3, 4
	p.AddRow([]int{0, 1}, []float64{1, 1}, EQ, 5)
	p.AddRow([]int{1, 2}, []float64{1, -1}, EQ, 1)
	sol, why := dualCold(t, p)
	if why != dualStarted {
		t.Fatalf("start gave way (%d)", why)
	}
	wantObj(t, sol, 8)
	checkFeasible(t, p, sol.X, 0)
	if sol.Phase1Iters != 0 || sol.DualIters == 0 {
		t.Fatalf("%d phase-1 and %d dual iterations, want 0 and some", sol.Phase1Iters, sol.DualIters)
	}
}

// TestDualColdFallsBackWhenNotDualFeasible: a negative cost on a variable
// with no upper bound has no bound to rest at that makes the slack basis
// dual feasible. The dual start says so, and Solve, made to try it, counts
// the fallback by its reason and answers from the two-phase primal.
func TestDualColdFallsBackWhenNotDualFeasible(t *testing.T) {
	// min −x − y s.t. x + 2y ≤ 4, y ≥ 1 (y bounded above by 3): x=2, y=1 → −3.
	p := NewProblem(2)
	p.Cost = []float64{-1, -1}
	p.Hi[1] = 3
	p.AddRow([]int{0, 1}, []float64{1, 2}, LE, 4)
	p.AddRow([]int{1}, []float64{1}, GE, 1)
	if _, why := dualCold(t, p); why != notDualFeasible {
		t.Fatalf("dual start on a dual-infeasible slack basis: %d, want notDualFeasible", why)
	}

	dualColdAll = true
	defer func() { dualColdAll = false }()
	before := obs.Default.Snapshot()
	sol := solveOK(t, p)
	after := obs.Default.Snapshot()
	wantObj(t, sol, -3)
	if sol.DualCold || sol.Phase1Iters == 0 {
		t.Fatalf("dual cold %v with %d phase-1 iterations, want the two-phase primal", sol.DualCold, sol.Phase1Iters)
	}
	for key, want := range map[string]int64{
		"lp.dual_cold_starts":                      0,
		"lp.dual_cold_fallbacks":                   1,
		"lp.dual_cold_fallbacks.not_dual_feasible": 1,
		"lp.dual_cold_fallbacks.too_infeasible":    0,
		"lp.dual_cold_fallbacks.stall":             0,
		"lp.dual_cold_fallbacks.singular":          0,
	} {
		if d := after[key] - before[key]; d != want {
			t.Errorf("%s advanced by %d, want %d", key, d, want)
		}
	}
}

// coveringLP is a random sparse LP with the given row count: positive costs
// on boxed variables, each row a covering (≥) or packing (≤) constraint over
// three of them, feasible at x = 1; the first `covering` rows of every
// three are covering rows. The slack basis leaves exactly those out of
// bounds, and they need phase 1 on the two-phase path.
func coveringLP(rng *rand.Rand, rows, covering int) *Problem {
	n := rows * 2 / 3
	p := NewProblem(n)
	for j := range p.Cost {
		p.Cost[j] = 0.5 + rng.Float64()
		p.Hi[j] = 10
	}
	for i := 0; i < rows; i++ {
		idx := rng.Perm(n)[:3]
		coef := []float64{0.5 + rng.Float64(), 0.5 + rng.Float64(), 0.5 + rng.Float64()}
		if i%3 < covering {
			p.AddRow(idx, coef, GE, 1+rng.Float64())
		} else {
			p.AddRow(idx, coef, LE, 20)
		}
	}
	return p
}

// twoPhase is the two-phase primal's solution of p, on a copy with its own
// lowering.
func twoPhase(t *testing.T, p *Problem) *Solution {
	t.Helper()
	ref := cloneProblem(p)
	sol, ok := solveSparse(ref, mustPrepare(t, ref), nil)
	if !ok || sol.Status != Optimal {
		t.Fatalf("two-phase primal: %v %+v", ok, sol)
	}
	return sol
}

// TestColdStartSelection: a cold Solve below coldDualRows rows is the
// two-phase primal's, bit for bit, and so is one at the threshold whose
// slack basis leaves more than half its rows out of bounds, counted as
// that fallback. At the threshold with a third of the rows out of bounds
// it is the dual start's, counted once, with no phase 1, and with the
// primal's optimum.
func TestColdStartSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	snap := func() map[string]int64 { return obs.Default.Snapshot() }

	below := coveringLP(rng, coldDualRows-1, 1)
	primal := twoPhase(t, below)
	before := snap()
	got := solveOK(t, below)
	after := snap()
	wantSameSolution(t, "below the threshold", got, primal)
	if got.DualCold || got.Phase1Iters == 0 || got.Phase1Iters != primal.Phase1Iters ||
		after["lp.dual_cold_starts"] != before["lp.dual_cold_starts"] || after["lp.dual_cold_fallbacks"] != before["lp.dual_cold_fallbacks"] {
		t.Fatalf("below the threshold: dual cold %v, %d phase-1 iterations (primal %d)", got.DualCold, got.Phase1Iters, primal.Phase1Iters)
	}

	crowded := coveringLP(rng, coldDualRows, 2)
	primal = twoPhase(t, crowded)
	before = snap()
	got = solveOK(t, crowded)
	after = snap()
	wantSameSolution(t, "two thirds of the rows out of bounds", got, primal)
	if d := after["lp.dual_cold_fallbacks.too_infeasible"] - before["lp.dual_cold_fallbacks.too_infeasible"]; d != 1 || got.DualCold {
		t.Fatalf("two thirds of the rows out of bounds: %d too-infeasible fallbacks counted, dual cold %v", d, got.DualCold)
	}

	at := coveringLP(rng, coldDualRows, 1)
	primal = twoPhase(t, at)
	before = snap()
	got = solveOK(t, at)
	after = snap()
	if d := after["lp.dual_cold_starts"] - before["lp.dual_cold_starts"]; d != 1 || !got.DualCold || got.Phase1Iters != 0 || got.WarmStarted {
		t.Fatalf("at the threshold: %d dual cold starts counted, dual cold %v, %d phase-1 iterations, warm %v",
			d, got.DualCold, got.Phase1Iters, got.WarmStarted)
	}
	if math.Abs(got.Objective-primal.Objective) > 1e-6*(1+math.Abs(primal.Objective)) {
		t.Fatalf("at the threshold: objective %g, two-phase primal %g", got.Objective, primal.Objective)
	}
	checkFeasible(t, at, got.X, 0)
}

func mustPrepare(t *testing.T, p *Problem) *spCache {
	t.Helper()
	c, err := p.prepare()
	if err != nil {
		t.Fatal(err)
	}
	return c
}
