package lp

import (
	"math"
	"testing"
	"time"
)

// illConditionedWarmStart is the named seed for the dual simplex's
// refactor-and-retry loop: an LP and a basis on which FTRAN and BTRAN
// disagree about a pivot on freshly computed factors.
//
// The three basic columns are L·U for U = [[3/7, 1, 1], [0, ε, 1], [0, 0, ε]]
// and L unit lower triangular with first column (1, 1/3, 2/3), ε = 2⁻¹⁸: a
// basis of condition ~1/ε² whose pivots still clear warmPivTol, so the warm
// path accepts it. Columns 3 and 4 are ± copies of basic column 0. Their
// FTRAN is ±e₀ exactly — the multipliers 1/3 and 2/3 reproduce the column
// they came from — so the pivot on slot 1 is 0; the BTRAN row of slot 1 has
// entries of order 1e10 that should cancel against those columns and leave
// rounding of order 1e-6 instead, far above pivTol. x₁ sits at 1 above its
// upper bound ½, so slot 1 must leave and one of the copies is the only
// column the ratio test can offer (every row is an equation, the slacks are
// fixed).
//
// It was found as a hang: bench/run.sh --workload uninett_optimal --shift 1
// at 6153965 retried one such (r, q) 500,000 times in 90 s inside
// milp.tryRound, FTRAN pivot exactly 0 against a BTRAN entry of −2⁻²⁰.
func illConditionedWarmStart() (*Problem, *Basis) {
	const eps = 1.0 / (1 << 18)
	cols := [3][3]float64{
		{3.0 / 7, 1.0 / 7, 2.0 / 7},
		{1, 1.0/3 + eps, 2.0/3 + eps},
		{1, 1.0/3 + 1, 2.0/3 + 1 + eps},
	}
	p := NewProblem(5)
	for i := 0; i < 3; i++ {
		coef := []float64{cols[0][i], cols[1][i], cols[2][i], cols[0][i], -cols[0][i]}
		p.AddRow([]int{0, 1, 2, 3, 4}, coef, EQ, coef[0]+coef[1]+coef[2]) // x = (1, 1, 1, 0, 0)
	}
	p.Cost = []float64{0, 0, 0, 1, 1}
	p.Hi = []float64{10, 0.5, 10, 10, 10}
	stat := make([]BasisStatus, 8)
	stat[0], stat[1], stat[2] = BasisBasic, BasisBasic, BasisBasic
	return p, &Basis{Basic: []int{0, 1, 2}, Stat: stat}
}

// TestDualRetryTerminates: when FTRAN and BTRAN disagree on the pivot with no
// eta file to blame, refactorizing changes nothing and the dual simplex used
// to pick the same row and column again, uncounted, for ever. It must give
// the basis up instead, so that SolveFrom answers from the cold path.
func TestDualRetryTerminates(t *testing.T) {
	p, basis := illConditionedWarmStart()

	// The fixture must still force the disagreement, or this test guards
	// nothing: fresh factors, slot 1 the only infeasible one, a pivot row
	// that offers column 3 or 4, and an FTRAN pivot of zero for both.
	c := p.cache()
	s := &c.s
	if !s.initWarm(p, c, basis) || !s.factorize(warmPivTol) {
		t.Fatal("fixture: the warm path rejects the basis outright")
	}
	s.recomputeXB()
	s.recomputeD()
	if !s.dualFeasible() {
		t.Fatal("fixture: basis not dual-feasible")
	}
	for k, j := range s.basic {
		over := s.xval[j]-s.hi[j] > feasTol || s.lo[j]-s.xval[j] > feasTol
		if over != (k == 1) {
			t.Fatalf("fixture: slot %d infeasible = %v", k, over)
		}
	}
	unitBtran(s, 1)
	s.yTimesA()
	if math.Max(s.arow[3], s.arow[4]) <= pivTol {
		t.Fatalf("fixture: pivot row offers neither copy: %g, %g", s.arow[3], s.arow[4])
	}
	for _, q := range []int{3, 4} {
		s.scatterColToW(q)
		s.fac.ftran(s.w, s.alpha)
		if math.Abs(s.alpha[1]) >= pivTol {
			t.Fatalf("fixture: FTRAN pivot of column %d is %g, not below pivTol", q, s.alpha[1])
		}
	}

	done := make(chan *Solution, 1) // the solver goroutine never blocks on its send
	go func() {
		sol, err := SolveFrom(p, basis, nil)
		if err != nil {
			t.Error(err)
		}
		done <- sol
	}()
	var warm *Solution
	select {
	case warm = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("SolveFrom still running after 20 s: the dual simplex is retrying one pivot for ever")
	}
	if warm == nil {
		return
	}
	cold := solveOK(t, p)
	if warm.WarmStarted {
		t.Errorf("answered from the warm path (%v after %d iterations); want the cold fallback", warm.Status, warm.Iters)
	}
	if warm.Status != cold.Status || warm.Status == Optimal && math.Abs(warm.Objective-cold.Objective) > 1e-9 {
		t.Errorf("fallback gives %v %g, cold solve %v %g", warm.Status, warm.Objective, cold.Status, cold.Objective)
	}
	t.Logf("cold answer: %v, objective %g, x %v", cold.Status, cold.Objective, cold.X)
}
