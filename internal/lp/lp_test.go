package lp

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
)

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := Solve(p, nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol
}

func wantStatus(t *testing.T, sol *Solution, want Status) {
	t.Helper()
	if sol.Status != want {
		t.Fatalf("status = %v, want %v (obj %g, x %v)", sol.Status, want, sol.Objective, sol.X)
	}
}

func wantObj(t *testing.T, sol *Solution, want float64) {
	t.Helper()
	wantStatus(t, sol, Optimal)
	if math.Abs(sol.Objective-want) > 1e-6 {
		t.Fatalf("objective = %g, want %g (x = %v)", sol.Objective, want, sol.X)
	}
}

func TestSimple2D(t *testing.T) {
	// max x+y s.t. x+2y<=4, 3x+y<=6  =>  min -(x+y); optimum at (8/5, 6/5).
	p := NewProblem(2)
	p.Cost = []float64{-1, -1}
	p.AddRow([]int{0, 1}, []float64{1, 2}, LE, 4)
	p.AddRow([]int{0, 1}, []float64{3, 1}, LE, 6)
	sol := solveOK(t, p)
	wantObj(t, sol, -(8.0/5 + 6.0/5))
}

func TestUpperBoundsActive(t *testing.T) {
	// max x+y, x<=1.5, y<=2, x+y<=3  => 3 at (1.5, 1.5) or (1, 2).
	p := NewProblem(2)
	p.Cost = []float64{-1, -1}
	p.Hi = []float64{1.5, 2}
	p.AddRow([]int{0, 1}, []float64{1, 1}, LE, 3)
	sol := solveOK(t, p)
	wantObj(t, sol, -3)
}

func TestNoConstraintsBoundsOnly(t *testing.T) {
	// min -2x - y over box [0,3]×[1,2]  =>  -8 at (3,2).
	p := NewProblem(2)
	p.Cost = []float64{-2, -1}
	p.Lo = []float64{0, 1}
	p.Hi = []float64{3, 2}
	sol := solveOK(t, p)
	wantObj(t, sol, -8)
	if sol.X[0] != 3 || sol.X[1] != 2 {
		t.Fatalf("x = %v, want [3 2]", sol.X)
	}
}

func TestEquality(t *testing.T) {
	// min x + 2y s.t. x + y = 5, x ≤ 3  => y ≥ 2; optimum x=3,y=2 → 7.
	p := NewProblem(2)
	p.Cost = []float64{1, 2}
	p.Hi[0] = 3
	p.AddRow([]int{0, 1}, []float64{1, 1}, EQ, 5)
	sol := solveOK(t, p)
	wantObj(t, sol, 7)
}

func TestGERow(t *testing.T) {
	// min x+y s.t. x + 2y >= 4, x,y>=0  => 2 at (0,2).
	p := NewProblem(2)
	p.Cost = []float64{1, 1}
	p.AddRow([]int{0, 1}, []float64{1, 2}, GE, 4)
	sol := solveOK(t, p)
	wantObj(t, sol, 2)
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(1)
	p.Hi[0] = 1
	p.AddRow([]int{0}, []float64{1}, GE, 2)
	sol := solveOK(t, p)
	wantStatus(t, sol, Infeasible)
}

func TestInfeasibleEquality(t *testing.T) {
	p := NewProblem(2)
	p.AddRow([]int{0, 1}, []float64{1, 1}, EQ, 1)
	p.AddRow([]int{0, 1}, []float64{1, 1}, EQ, 2)
	sol := solveOK(t, p)
	wantStatus(t, sol, Infeasible)
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(1)
	p.Cost[0] = -1 // max x, x>=0 unbounded
	sol := solveOK(t, p)
	wantStatus(t, sol, Unbounded)
}

func TestNegativeLowerBounds(t *testing.T) {
	// min x s.t. x >= -5 (bound)  => -5.
	p := NewProblem(1)
	p.Cost[0] = 1
	p.Lo[0] = -5
	sol := solveOK(t, p)
	wantObj(t, sol, -5)
}

func TestDegenerateRows(t *testing.T) {
	// Redundant constraints should not break anything.
	p := NewProblem(2)
	p.Cost = []float64{-1, -1}
	for i := 0; i < 5; i++ {
		p.AddRow([]int{0, 1}, []float64{1, 1}, LE, 2)
	}
	p.AddRow([]int{0}, []float64{1}, LE, 2)
	p.AddRow([]int{1}, []float64{1}, LE, 2)
	sol := solveOK(t, p)
	wantObj(t, sol, -2)
}

func TestFixedVariable(t *testing.T) {
	// x fixed to 2 via bounds, max x+y with x+y<=5.
	p := NewProblem(2)
	p.Cost = []float64{-1, -1}
	p.Lo[0], p.Hi[0] = 2, 2
	p.AddRow([]int{0, 1}, []float64{1, 1}, LE, 5)
	sol := solveOK(t, p)
	wantObj(t, sol, -5)
	if math.Abs(sol.X[0]-2) > 1e-9 {
		t.Fatalf("x0 = %g, want 2", sol.X[0])
	}
}

func TestBadBounds(t *testing.T) {
	p := NewProblem(1)
	p.Lo[0] = math.Inf(-1)
	if _, err := Solve(p, nil); err == nil {
		t.Fatal("expected error for -Inf lower bound")
	}
	p2 := NewProblem(1)
	p2.Lo[0], p2.Hi[0] = 2, 1
	if _, err := Solve(p2, nil); err == nil {
		t.Fatal("expected error for Lo > Hi")
	}
}

// TestSolveRejectsMalformedRows_Regression: rows are checked where their
// lowering is built, and a malformed one is an error from Solve and
// SolveFrom alike, before any solve — not a panic in the build (a missing
// coefficient) and not an answer computed from a bad number (an extra
// coefficient, a NaN or infinite one and a NaN right-hand side all came
// back "optimal", the NaN cost "optimal" with objective NaN). Each case is
// also met by a Problem already solved once, so a lowering is cached when
// the edit arrives.
func TestSolveRejectsMalformedRows_Regression(t *testing.T) {
	base := func() *Problem {
		p := NewProblem(2)
		p.Cost = []float64{-1, -1}
		p.Hi = []float64{5, 5}
		p.AddRow([]int{0, 1}, []float64{1, 1}, LE, 10)
		return p
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		edit func(p *Problem)
	}{
		{"coefficient missing", func(p *Problem) { p.Rows = append(p.Rows, Row{Idx: []int{0, 1}, Coef: []float64{1}}) }},
		{"coefficient extra", func(p *Problem) { p.Rows = append(p.Rows, Row{Idx: []int{0}, Coef: []float64{1, 1}}) }},
		{"index out of range", func(p *Problem) { p.AddRow([]int{0, 2}, []float64{1, 1}, LE, 4) }},
		{"negative index", func(p *Problem) { p.AddRow([]int{-1}, []float64{1}, LE, 4) }},
		{"NaN coefficient", func(p *Problem) { p.AddRow([]int{0, 1}, []float64{nan, 1}, LE, 4) }},
		{"infinite coefficient", func(p *Problem) { p.AddRow([]int{0, 1}, []float64{1, -inf}, LE, 4) }},
		{"NaN right-hand side", func(p *Problem) { p.AddRow([]int{0, 1}, []float64{1, 1}, LE, nan) }},
		{"NaN cost", func(p *Problem) { p.Cost[1] = nan }},
	} {
		for _, solved := range []bool{false, true} {
			p := base()
			var basis *Basis
			if solved {
				basis = solveOK(t, p).Basis
			}
			tc.edit(p)
			for _, warm := range []bool{false, true} {
				what := fmt.Sprintf("%s (solved before %v, warm %v)", tc.name, solved, warm)
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("%s: panicked: %v", what, r)
						}
					}()
					var sol *Solution
					var err error
					if warm {
						sol, err = SolveFrom(p, basis, nil)
					} else {
						sol, err = Solve(p, nil)
					}
					if err == nil {
						t.Errorf("%s: %v, objective %g; want an error", what, sol.Status, sol.Objective)
					}
				}()
			}
		}
	}

	// An infinite right-hand side is no error: the row never binds.
	p := base()
	p.AddRow([]int{0, 1}, []float64{1, 1}, LE, inf)
	if sol := solveOK(t, p); sol.Status != Optimal || sol.Objective != -10 {
		t.Errorf("infinite right-hand side: %v, objective %g; want optimal −10", sol.Status, sol.Objective)
	}
}

func TestTransportation(t *testing.T) {
	// Classic balanced transportation problem: supplies {20, 30},
	// demands {10, 25, 15}, costs below; known optimum 20·1+10·3+5·2+... the
	// LP optimum computed by hand: ship cheapest first.
	// cost matrix: s0: [8,6,10], s1: [9,12,13]
	// Optimal: s0→d1 20 units? Solve via solver and check against brute
	// reference value computed with vertex enumeration in the fuzz test;
	// here we assert feasibility + a known bound.
	p := NewProblem(6) // x[s][d]
	cost := []float64{8, 6, 10, 9, 12, 13}
	copy(p.Cost, cost)
	p.AddRow([]int{0, 1, 2}, []float64{1, 1, 1}, LE, 20)
	p.AddRow([]int{3, 4, 5}, []float64{1, 1, 1}, LE, 30)
	p.AddRow([]int{0, 3}, []float64{1, 1}, EQ, 10)
	p.AddRow([]int{1, 4}, []float64{1, 1}, EQ, 25)
	p.AddRow([]int{2, 5}, []float64{1, 1}, EQ, 15)
	sol := solveOK(t, p)
	wantStatus(t, sol, Optimal)
	// Reference optimum computed independently (vertex enumeration): x02=0;
	// assignments: d0←s1(10@9), d1←s0(20@6)+s1(5@12), d2←s1(15@13) = 465
	// vs putting d2 on s0: d1←s0(5)+s1(20): 8? enumerate: the solver's
	// answer must satisfy all demands exactly.
	for i, rhs := range []float64{10, 25, 15} {
		got := sol.X[i] + sol.X[i+3]
		if math.Abs(got-rhs) > 1e-6 {
			t.Fatalf("demand %d: shipped %g, want %g", i, got, rhs)
		}
	}
	if sol.Objective > 465+1e-6 {
		t.Fatalf("objective %g exceeds known feasible plan 465", sol.Objective)
	}
}

// --- brute-force reference -------------------------------------------------

// bruteForce enumerates candidate vertices (active sets of rows and bounds)
// of a small LP and returns the best feasible objective, or NaN when no
// vertex is feasible. Assumes a bounded feasible region.
func bruteForce(p *Problem) float64 {
	n := p.NumVars
	type cRow struct {
		a   []float64
		b   float64
		eq  bool
		dir int // for inequality feasibility check: a·x ≤ b after normalization
	}
	var all []cRow
	for _, r := range p.Rows {
		a := make([]float64, n)
		for k, j := range r.Idx {
			a[j] += r.Coef[k]
		}
		switch r.Rel {
		case LE:
			all = append(all, cRow{a: a, b: r.RHS})
		case GE:
			na := make([]float64, n)
			for i := range a {
				na[i] = -a[i]
			}
			all = append(all, cRow{a: na, b: -r.RHS})
		case EQ:
			all = append(all, cRow{a: a, b: r.RHS, eq: true})
		}
	}
	for j := 0; j < n; j++ {
		a := make([]float64, n)
		a[j] = -1
		all = append(all, cRow{a: a, b: -p.Lo[j]}) // -x ≤ -lo
		if !math.IsInf(p.Hi[j], 1) {
			a2 := make([]float64, n)
			a2[j] = 1
			all = append(all, cRow{a: a2, b: p.Hi[j]})
		}
	}

	feasible := func(x []float64) bool {
		for _, c := range all {
			v := 0.0
			for j := range x {
				v += c.a[j] * x[j]
			}
			if c.eq {
				if math.Abs(v-c.b) > 1e-6 {
					return false
				}
			} else if v > c.b+1e-6 {
				return false
			}
		}
		return true
	}

	best := math.NaN()
	idx := make([]int, n)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == n {
			// Solve the n×n system of active constraints.
			A := make([][]float64, n)
			b := make([]float64, n)
			for i, ci := range idx {
				A[i] = append([]float64(nil), all[ci].a...)
				b[i] = all[ci].b
			}
			x, ok := gauss(A, b)
			if !ok || !feasible(x) {
				return
			}
			obj := 0.0
			for j := range x {
				obj += p.Cost[j] * x[j]
			}
			if math.IsNaN(best) || obj < best {
				best = obj
			}
			return
		}
		for i := start; i < len(all); i++ {
			idx[k] = i
			rec(i+1, k+1)
		}
	}
	rec(0, 0)
	return best
}

func gauss(A [][]float64, b []float64) ([]float64, bool) {
	n := len(b)
	for c := 0; c < n; c++ {
		piv, pv := -1, 1e-9
		for r := c; r < n; r++ {
			if math.Abs(A[r][c]) > pv {
				piv, pv = r, math.Abs(A[r][c])
			}
		}
		if piv < 0 {
			return nil, false
		}
		A[c], A[piv] = A[piv], A[c]
		b[c], b[piv] = b[piv], b[c]
		inv := 1 / A[c][c]
		for j := c; j < n; j++ {
			A[c][j] *= inv
		}
		b[c] *= inv
		for r := 0; r < n; r++ {
			if r == c || A[r][c] == 0 {
				continue
			}
			f := A[r][c]
			for j := c; j < n; j++ {
				A[r][j] -= f * A[c][j]
			}
			b[r] -= f * b[c]
		}
	}
	return b, true
}

func TestAgainstVertexEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(3) // 2..4 vars
		m := 1 + rng.Intn(4) // 1..4 rows
		p := NewProblem(n)
		for j := 0; j < n; j++ {
			p.Cost[j] = math.Round(rng.Float64()*20-10) / 2
			p.Hi[j] = float64(1 + rng.Intn(10)) // bounded box keeps brute force finite
		}
		for i := 0; i < m; i++ {
			var idx []int
			var coef []float64
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.7 {
					idx = append(idx, j)
					coef = append(coef, math.Round(rng.Float64()*10-5))
				}
			}
			if len(idx) == 0 {
				idx, coef = []int{0}, []float64{1}
			}
			rel := []Rel{LE, GE, EQ}[rng.Intn(3)]
			rhs := math.Round(rng.Float64()*20 - 5)
			p.AddRow(idx, coef, rel, rhs)
		}
		want := bruteForce(p)
		sol, err := Solve(p, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.IsNaN(want) {
			if sol.Status == Optimal {
				// Brute force can miss feasibility only by tolerance quirks;
				// verify the solver's point is genuinely feasible.
				checkFeasible(t, p, sol.X, trial)
			}
			continue
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v, brute force found optimum %g", trial, sol.Status, want)
		}
		if math.Abs(sol.Objective-want) > 1e-5 {
			t.Fatalf("trial %d: objective %g, brute force %g", trial, sol.Objective, want)
		}
	}
}

func checkFeasible(t *testing.T, p *Problem, x []float64, trial int) {
	t.Helper()
	for j := 0; j < p.NumVars; j++ {
		if x[j] < p.Lo[j]-1e-6 || x[j] > p.Hi[j]+1e-6 {
			t.Fatalf("trial %d: x[%d]=%g outside [%g,%g]", trial, j, x[j], p.Lo[j], p.Hi[j])
		}
	}
	for i, r := range p.Rows {
		v := 0.0
		for k, j := range r.Idx {
			v += r.Coef[k] * x[j]
		}
		switch r.Rel {
		case LE:
			if v > r.RHS+1e-6 {
				t.Fatalf("trial %d row %d: %g > %g", trial, i, v, r.RHS)
			}
		case GE:
			if v < r.RHS-1e-6 {
				t.Fatalf("trial %d row %d: %g < %g", trial, i, v, r.RHS)
			}
		case EQ:
			if math.Abs(v-r.RHS) > 1e-6 {
				t.Fatalf("trial %d row %d: %g != %g", trial, i, v, r.RHS)
			}
		}
	}
}

func TestSolutionFeasibilityFuzz(t *testing.T) {
	// Larger random LPs: verify returned points are feasible and that
	// re-solving is deterministic.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 5 + rng.Intn(15)
		m := 3 + rng.Intn(12)
		p := NewProblem(n)
		for j := 0; j < n; j++ {
			p.Cost[j] = rng.NormFloat64()
			p.Hi[j] = 1 + rng.Float64()*9
		}
		for i := 0; i < m; i++ {
			var idx []int
			var coef []float64
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.4 {
					idx = append(idx, j)
					coef = append(coef, rng.NormFloat64())
				}
			}
			if len(idx) == 0 {
				continue
			}
			p.AddRow(idx, coef, LE, rng.Float64()*10)
		}
		sol, err := Solve(p, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Status == Optimal {
			checkFeasible(t, p, sol.X, trial)
		}
		sol2, _ := Solve(p, nil)
		if sol2.Status != sol.Status || math.Abs(sol2.Objective-sol.Objective) > 1e-9 {
			t.Fatalf("trial %d: non-deterministic resolve", trial)
		}
	}
}

func TestIterLimit(t *testing.T) {
	p := NewProblem(4)
	p.Cost = []float64{-1, -1, -1, -1}
	for i := 0; i < 4; i++ {
		p.AddRow([]int{i}, []float64{1}, LE, 1)
	}
	sol, err := Solve(p, &Options{maxIters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != IterLimit && sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
}

func TestRelString(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "=" {
		t.Fatal("Rel.String mismatch")
	}
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" ||
		Unbounded.String() != "unbounded" || IterLimit.String() != "iteration-limit" {
		t.Fatal("Status.String mismatch")
	}
}

// TestStopFlagEndsSolve: a caller's stop flag that is already set ends a
// cold Solve and a warm SolveFrom IterLimit within one poll interval, where
// the same solves without it run to Optimal. The warm one must end on the
// dual path it started on, not in the cold fallback.
func TestStopFlagEndsSolve(t *testing.T) {
	// An assignment LP: n×n variables in [0, 1], every row summing to one
	// and every column to at most one (no redundant row, so the optimum
	// carries a basis), seeded costs. Phase 1 alone needs a pivot per row.
	const n = 40
	rng := rand.New(rand.NewSource(3))
	p := NewProblem(n * n)
	for j := range p.Cost {
		p.Cost[j] = rng.Float64()
		p.Hi[j] = 1
	}
	ones := make([]float64, n)
	for k := range ones {
		ones[k] = 1
	}
	for i := 0; i < n; i++ {
		row, col := make([]int, n), make([]int, n)
		for k := 0; k < n; k++ {
			row[k], col[k] = i*n+k, k*n+i
		}
		p.AddRow(row, ones, EQ, 1)
		p.AddRow(col, ones, LE, 1)
	}
	var stop atomic.Bool
	stop.Store(true)

	free := solveOK(t, p)
	if free.Status != Optimal || free.Iters <= stopPollIters {
		t.Fatalf("cold solve without a stop: %v in %d iterations, want optimal past %d", free.Status, free.Iters, stopPollIters)
	}
	cold, err := Solve(p, &Options{Stop: &stop})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Status != IterLimit || cold.Iters > stopPollIters {
		t.Errorf("cold solve with the stop set: %v after %d iterations, want iteration-limit within %d", cold.Status, cold.Iters, stopPollIters)
	}

	// Forbid one assignment of the optimum: the dual simplex has pivots to
	// make from the old basis.
	for j, x := range free.X {
		if x > 0.5 {
			p.Hi[j] = 0
			break
		}
	}
	warmFree, err := SolveFrom(p, free.Basis, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warmFree.Status != Optimal || !warmFree.WarmStarted || warmFree.Iters == 0 {
		t.Fatalf("warm solve without a stop: %v in %d iterations (warm %v), want a warm optimal with pivots", warmFree.Status, warmFree.Iters, warmFree.WarmStarted)
	}
	warm, err := SolveFrom(p, free.Basis, &Options{Stop: &stop})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != IterLimit || !warm.WarmStarted || warm.Iters > stopPollIters {
		t.Errorf("warm solve with the stop set: %v after %d iterations (warm %v), want a warm iteration-limit within %d", warm.Status, warm.Iters, warm.WarmStarted, stopPollIters)
	}
}
