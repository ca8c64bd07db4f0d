package lp

import (
	"math"
	"math/rand"
	"testing"
)

// denseFrom is SolveFrom on the dense referee (dense_ref_test.go): the same
// shape check and the same cold retry when the basis cannot be reused.
func denseFrom(p *Problem, b *Basis, opt *Options) *Solution {
	if m := len(p.Rows); b.valid(m, p.NumVars+m) {
		if sol, ok := solveFromDense(p, b, opt); ok {
			return sol
		}
	}
	return solveDense(p, opt)
}

// solveBoth solves p cold on both cores and checks they agree on status
// and, when optimal, objective within the solver tolerance.
func solveBoth(t *testing.T, trial int, p *Problem) (sparse, dense *Solution) {
	t.Helper()
	var err error
	sparse, err = Solve(p, nil)
	if err != nil {
		t.Fatalf("trial %d: sparse Solve: %v", trial, err)
	}
	dense = solveDense(p, nil)
	if sparse.Status != dense.Status {
		t.Fatalf("trial %d: status sparse=%v dense=%v", trial, sparse.Status, dense.Status)
	}
	if sparse.Status == Optimal && math.Abs(sparse.Objective-dense.Objective) > 1e-6 {
		t.Fatalf("trial %d: objective sparse=%g dense=%g (Δ=%g)",
			trial, sparse.Objective, dense.Objective, sparse.Objective-dense.Objective)
	}
	return sparse, dense
}

// TestDenseSparseEquivalenceCorpus is the tentpole's ground-truth pin: over
// the same 400-LP corpus the warm-start tests use, the sparse revised
// simplex and the dense tableau must agree on status and optimal objective,
// cold and warm. Warm solves are cross-checked both ways — the sparse core
// re-solving from a dense-exported basis and vice versa — because Basis is
// a shared, position-based contract between the cores.
func TestDenseSparseEquivalenceCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	crossWarm := 0
	for trial := 0; trial < 400; trial++ {
		p := genLP(rng)
		sparseCold, denseCold := solveBoth(t, trial, p)
		if sparseCold.Status != Optimal || sparseCold.Basis == nil || denseCold.Basis == nil {
			continue
		}

		tightenRandomBound(rng, p)
		childDense := solveDense(p, nil)

		// Sparse warm from each core's parent basis vs the dense cold child.
		for _, parent := range []*Basis{sparseCold.Basis, denseCold.Basis} {
			warm, err := SolveFrom(p, parent, nil)
			if err != nil {
				t.Fatalf("trial %d: SolveFrom: %v", trial, err)
			}
			if warm.WarmStarted {
				crossWarm++
				if warm.Phase1Iters != 0 {
					t.Fatalf("trial %d: warm solve ran phase 1 (%d iters)", trial, warm.Phase1Iters)
				}
			}
			if warm.Status != childDense.Status {
				t.Fatalf("trial %d: child status warm=%v dense=%v", trial, warm.Status, childDense.Status)
			}
			if warm.Status == Optimal && math.Abs(warm.Objective-childDense.Objective) > 1e-6 {
				t.Fatalf("trial %d: child objective warm=%g dense=%g", trial, warm.Objective, childDense.Objective)
			}
		}
	}
	if crossWarm < 150 {
		t.Fatalf("only %d warm-started cross-core re-solves; corpus no longer exercises the warm path", crossWarm)
	}
}

// TestSparseDenseRow: one row touching every variable (a dense row is the
// worst case for CSC row scatter and for LU fill from a slack pivot).
func TestSparseDenseRow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 12 + rng.Intn(20)
		p := NewProblem(n)
		idx := make([]int, n)
		coef := make([]float64, n)
		for j := 0; j < n; j++ {
			p.Cost[j] = rng.NormFloat64()
			p.Hi[j] = 1 + rng.Float64()*5
			idx[j] = j
			coef[j] = 0.5 + rng.Float64()
		}
		p.AddRow(idx, coef, LE, float64(n)/2)
		// A couple of sparse rows on top so the basis mixes densities.
		for i := 0; i < 2; i++ {
			p.AddRow([]int{rng.Intn(n), rng.Intn(n)}, []float64{rng.NormFloat64(), rng.NormFloat64()}, LE, rng.Float64()*4)
		}
		solveBoth(t, trial, p)
	}
}

// TestSparseDenseColumn: one variable appearing in every row (a dense
// column stresses FTRAN fill and the eta file when it enters the basis).
func TestSparseDenseColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 40; trial++ {
		n := 6 + rng.Intn(8)
		m := 8 + rng.Intn(10)
		p := NewProblem(n)
		for j := 0; j < n; j++ {
			p.Cost[j] = rng.NormFloat64()
			p.Hi[j] = 1 + rng.Float64()*4
		}
		for i := 0; i < m; i++ {
			idx := []int{0} // variable 0 is in every row
			coef := []float64{1 + rng.Float64()}
			for j := 1; j < n; j++ {
				if rng.Float64() < 0.3 {
					idx = append(idx, j)
					coef = append(coef, rng.NormFloat64())
				}
			}
			p.AddRow(idx, coef, LE, 1+rng.Float64()*6)
		}
		solveBoth(t, trial, p)
	}
}

// TestSparseFullyDense: small LPs with no zeros at all — the sparse core
// must degrade gracefully to dense behavior, not break on it.
func TestSparseFullyDense(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(5)
		m := 2 + rng.Intn(4)
		p := NewProblem(n)
		idx := make([]int, n)
		for j := 0; j < n; j++ {
			p.Cost[j] = rng.NormFloat64()
			p.Hi[j] = 1 + rng.Float64()*3
			idx[j] = j
		}
		for i := 0; i < m; i++ {
			coef := make([]float64, n)
			for j := range coef {
				coef[j] = rng.NormFloat64()
				if coef[j] == 0 {
					coef[j] = 1
				}
			}
			p.AddRow(idx, coef, []Rel{LE, GE, EQ}[rng.Intn(3)], rng.NormFloat64()*3)
		}
		solveBoth(t, trial, p)
	}
}

// TestSparseSingletonColumns: variables appearing in exactly one row each
// (the CSC columns are singletons, so LU pivoting sees near-triangular
// bases — the best case, which still has to be exactly right).
func TestSparseSingletonColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 40; trial++ {
		m := 3 + rng.Intn(6)
		n := m * 2
		p := NewProblem(n)
		for j := 0; j < n; j++ {
			p.Cost[j] = rng.NormFloat64()
			p.Hi[j] = 1 + rng.Float64()*5
			// Variable j belongs to row j mod m, and no other.
		}
		for i := 0; i < m; i++ {
			idx := []int{i, i + m}
			coef := []float64{1 + rng.Float64(), rng.NormFloat64()}
			p.AddRow(idx, coef, []Rel{LE, GE}[rng.Intn(2)], 1+rng.Float64()*4)
		}
		solveBoth(t, trial, p)
	}
}

// TestSparseBealeCycling is Beale's classic cycling fixture: under naive
// Dantzig pricing with exact-tie ratio tests, the textbook simplex cycles
// forever at the degenerate origin. The Harris two-pass test plus the Bland
// fallback must terminate at the known optimum z* = -0.05.
func TestSparseBealeCycling(t *testing.T) {
	p := NewProblem(3)
	p.Cost = []float64{-0.75, 150, -0.02}
	p.Hi = []float64{math.Inf(1), math.Inf(1), 1}
	p.AddRow([]int{0, 1, 2}, []float64{0.25, -60, -1.0 / 25}, LE, 0)
	p.AddRow([]int{0, 1, 2}, []float64{0.5, -90, -1.0 / 50}, LE, 0)
	// (The classic statement adds x3 ≤ 1 as a row; the box bound above is
	// equivalent and also exercises the bounded-variable path.)
	sol := solveOK(t, p)
	wantObj(t, sol, -0.05)
	wantObj(t, solveDense(p, nil), -0.05)
}

// TestSparseBadScaling: coefficients spanning 14 orders of magnitude. The
// geometric-mean scaling has to bring the matrix into factorizable range;
// the test pins the known optimum rather than comparing cores (the dense
// core is itself at the edge of its precision here).
func TestSparseBadScaling(t *testing.T) {
	// min -x - 1e8·y  s.t.  1e8·x + 1e-6·y ≤ 1e8,  x,y ∈ [0, 1].
	// Optimum: y=1 (its row use is negligible), x = 1 - 1e-14 ≈ 1.
	p := NewProblem(2)
	p.Cost = []float64{-1, -1e8}
	p.Hi = []float64{1, 1}
	p.AddRow([]int{0, 1}, []float64{1e8, 1e-6}, LE, 1e8)
	sol := solveOK(t, p)
	wantStatus(t, sol, Optimal)
	if math.Abs(sol.Objective-(-1e8-1)) > 1e-2 {
		t.Fatalf("objective = %g, want ≈ %g", sol.Objective, -1e8-1)
	}
}

// TestLUFactorRoundTrip pins the LU engine directly: factor a fixed 4×4
// basis (chosen to force row pivoting and fill-in), then check FTRAN/BTRAN
// against solutions computed by hand, including after eta updates.
func TestLUFactorRoundTrip(t *testing.T) {
	// B, by columns (slot-major). Column 0 starts with a small leading
	// entry so partial pivoting must pick row 1.
	cols := [][]float64{
		{0.001, 2, 0, 1},
		{3, 1, 0, 0},
		{0, 4, 1, 2},
		{1, 0, 5, 1},
	}
	m := 4
	var f luFactor
	f.reset(m)
	for k := 0; k < m; k++ {
		f.slot[k] = int32(k)
		f.beginColumn()
		for i, v := range cols[k] {
			if v != 0 {
				f.setW(int32(i), v)
			}
		}
		if !f.factorColumn(k, 1e-12) {
			t.Fatalf("factorColumn(%d) reported singular", k)
		}
	}
	f.finish()

	mul := func(x []float64) []float64 { // B·x, rows indexed 0..m-1
		out := make([]float64, m)
		for k := 0; k < m; k++ {
			for i := 0; i < m; i++ {
				out[i] += cols[k][i] * x[k]
			}
		}
		return out
	}
	mulT := func(y []float64) []float64 { // Bᵀ·y, slots indexed 0..m-1
		out := make([]float64, m)
		for k := 0; k < m; k++ {
			for i := 0; i < m; i++ {
				out[k] += cols[k][i] * y[i]
			}
		}
		return out
	}

	xWant := []float64{1, -2, 0.5, 3}
	b := mul(xWant)
	out := make([]float64, m)
	f.ftran(b, out) // consumes b
	for k := 0; k < m; k++ {
		if math.Abs(out[k]-xWant[k]) > 1e-10 {
			t.Fatalf("ftran: out[%d] = %g, want %g", k, out[k], xWant[k])
		}
	}

	yWant := []float64{-1, 0.25, 2, -3}
	c := mulT(yWant)
	y := make([]float64, m)
	f.btran(c, y) // consumes c
	for i := 0; i < m; i++ {
		if math.Abs(y[i]-yWant[i]) > 1e-10 {
			t.Fatalf("btran: y[%d] = %g, want %g", i, y[i], yWant[i])
		}
	}

	// Replace slot 2's column through an eta update: alpha = B⁻¹·newCol.
	newCol := []float64{1, 1, 2, 0}
	alpha := make([]float64, m)
	f.ftran(append([]float64(nil), newCol...), alpha)
	f.pushEta(alpha, 2)
	cols[2] = newCol

	b = mul(xWant)
	f.ftran(b, out)
	for k := 0; k < m; k++ {
		if math.Abs(out[k]-xWant[k]) > 1e-9 {
			t.Fatalf("post-eta ftran: out[%d] = %g, want %g", k, out[k], xWant[k])
		}
	}
	c = mulT(yWant)
	f.btran(c, y)
	for i := 0; i < m; i++ {
		if math.Abs(y[i]-yWant[i]) > 1e-9 {
			t.Fatalf("post-eta btran: y[%d] = %g, want %g", i, y[i], yWant[i])
		}
	}
}

// TestSparseWorkspaceReuse pins the allocation contract the MILP layer
// depends on: after the first solve of a Problem, repeated re-solves with
// only bound changes must not rebuild the sparse cache.
func TestSparseWorkspaceReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	p := genLP(rng)
	if _, err := Solve(p, nil); err != nil {
		t.Fatalf("Solve: %v", err)
	}
	cacheBefore := p.sp
	for trial := 0; trial < 20; trial++ {
		tightenRandomBound(rng, p)
		if _, err := Solve(p, nil); err != nil {
			t.Fatalf("Solve: %v", err)
		}
		if p.sp != cacheBefore {
			t.Fatalf("trial %d: bound-only re-solve rebuilt the sparse cache", trial)
		}
	}
}
