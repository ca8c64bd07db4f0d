package lp

import (
	"testing"

	"raha/internal/obs"
)

// TestSolveTelemetry checks the per-solve pivot accounting and the
// process-wide counters the solve feeds.
func TestSolveTelemetry(t *testing.T) {
	before := obs.Default.Snapshot()

	// max x+y s.t. x+y <= 4, x <= 3, y <= 3 (as a minimization).
	p := NewProblem(2)
	p.Cost = []float64{-1, -1}
	p.Hi = []float64{3, 3}
	p.AddRow([]int{0, 1}, []float64{1, 1}, LE, 4)
	sol, err := Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if sol.Iters <= 0 {
		t.Fatalf("Iters = %d, want > 0", sol.Iters)
	}
	if sol.Phase1Iters > sol.Iters {
		t.Fatalf("Phase1Iters %d > Iters %d", sol.Phase1Iters, sol.Iters)
	}
	if sol.DegeneratePivots < 0 || sol.DegeneratePivots > sol.Iters {
		t.Fatalf("DegeneratePivots = %d of %d", sol.DegeneratePivots, sol.Iters)
	}
	if sol.BlandPivots > sol.Iters {
		t.Fatalf("BlandPivots = %d of %d", sol.BlandPivots, sol.Iters)
	}

	after := obs.Default.Snapshot()
	if after["lp.solves"] != before["lp.solves"]+1 {
		t.Fatalf("lp.solves %d -> %d", before["lp.solves"], after["lp.solves"])
	}
	if after["lp.iterations"] != before["lp.iterations"]+int64(sol.Iters) {
		t.Fatalf("lp.iterations advanced by %d, want %d",
			after["lp.iterations"]-before["lp.iterations"], sol.Iters)
	}
}

// TestSolveTelemetryPhase1 forces a phase-1 start (an EQ row needs an
// artificial) and checks the phase split is recorded.
func TestSolveTelemetryPhase1(t *testing.T) {
	p := NewProblem(2)
	p.Cost = []float64{1, 2}
	p.Hi = []float64{10, 10}
	p.AddRow([]int{0, 1}, []float64{1, 1}, EQ, 5)
	sol, err := Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if sol.Phase1Iters <= 0 {
		t.Fatalf("Phase1Iters = %d, want > 0 (EQ row needs an artificial)", sol.Phase1Iters)
	}
}

// TestSolveTelemetryStatusCounters checks the outcome counters advance.
func TestSolveTelemetryStatusCounters(t *testing.T) {
	before := obs.Default.Snapshot()
	p := NewProblem(1)
	p.Hi = []float64{1}
	p.AddRow([]int{0}, []float64{1}, GE, 5) // x >= 5 with x <= 1
	sol, err := Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
	after := obs.Default.Snapshot()
	if after["lp.infeasible"] != before["lp.infeasible"]+1 {
		t.Fatal("lp.infeasible did not advance")
	}
}

// TestFillGaugeCoversWarmStart: lp.lu_fill_permille is set by every
// factorization, not only by mid-solve refactorizations — a warm re-solve
// that never refactors (here: no bound moved, zero pivots) still reports the
// fill of the factorization it started from. On the mostly-slack fixture the
// triangular order keeps that under 1.2 entries of L+U per basis entry
// (1,113‰ measured; slot-order elimination gives 1,789‰ on the same basis).
func TestFillGaugeCoversWarmStart(t *testing.T) {
	p, _, basis := benchState(t, 450)
	before := cRefacs.Value()
	gFill.Set(0)
	sol, err := SolveFrom(p, basis, nil)
	if err != nil || !sol.WarmStarted {
		t.Fatalf("warm re-solve: %v %+v", err, sol)
	}
	if n := cRefacs.Value() - before; n != 0 {
		t.Fatalf("fixture: the re-solve refactorized %d times; it should not need to", n)
	}
	if fill := gFill.Value(); fill < 1000 || fill > 1200 {
		t.Errorf("lp.lu_fill_permille = %d after a warm solve, want within [1000, 1200]", fill)
	}
}

// TestWarmFactorReuseCounter: lp.warm_factor_reuses counts the warm starts
// that found their basis already factored and skipped factorize. A warm
// start on a fresh Problem has nothing to find; repeating it on the same
// Problem finds the factors the first one built.
func TestWarmFactorReuseCounter(t *testing.T) {
	p, _, basis := benchState(t, 90)
	fresh := cloneProblem(p)
	reuses := func() int64 { return obs.Default.Snapshot()["lp.warm_factor_reuses"] }
	before := reuses()
	for n := int64(0); n < 3; n++ {
		if sol, err := SolveFrom(fresh, basis, nil); err != nil || !sol.WarmStarted {
			t.Fatalf("warm re-solve %d: %v %+v", n, err, sol)
		}
		if got := reuses() - before; got != n {
			t.Fatalf("after %d warm starts on one Problem lp.warm_factor_reuses moved by %d, want %d", n+1, got, n)
		}
	}
}

// TestNumericalFailureStatus pins what a collapse of the factorization looks
// like from outside: a status with a name, counted, carrying no basis — not
// an error, and not an answer. In the fixture columns 0 and 1 are parallel to
// one part in 10⁹; the simplex pivots both into the basis on an acceptable
// ratio-test pivot, and the refactorization that follows, eliminating in its
// own order, is left with a pivot under luPivotFloor. (The LP is bounded,
// with its optimum near x₀ = 6·10¹²; the dense referee calls it unbounded,
// which is why a collapse is reported rather than handed to another core.)
func TestNumericalFailureStatus(t *testing.T) {
	p := NewProblem(3)
	p.Cost = []float64{0, -1, -3}
	p.AddRow([]int{0, 1, 2}, []float64{-0.004, 4, 4.00000000004}, GE, -1)
	p.AddRow([]int{0, 1, 2}, []float64{-0.001, 1.000000001, 10000}, EQ, 6)
	before := obs.Default.Snapshot()
	sol, err := Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != NumericalFailure || sol.Status.String() != "numerical-failure" {
		t.Fatalf("status %v, want numerical-failure (has the fixture stopped collapsing?)", sol.Status)
	}
	if sol.Basis != nil {
		t.Fatalf("a failed solve exported a basis: %+v", sol.Basis)
	}
	after := obs.Default.Snapshot()
	if d := after["lp.numerical_failures"] - before["lp.numerical_failures"]; d != 1 {
		t.Fatalf("lp.numerical_failures advanced by %d, want 1", d)
	}
	if d := after["lp.solves"] - before["lp.solves"]; d != 1 {
		t.Fatalf("lp.solves advanced by %d over one failed solve, want 1", d)
	}
}
