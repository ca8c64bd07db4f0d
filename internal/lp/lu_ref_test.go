package lp

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The bit-identity referee. The kernels in lu.go and sparse.go are written
// to cost what they touch — a reach heap instead of a scan over every
// earlier step, row-wise Uᵀ and marked Lᵀ solves, a row-wise pivot row —
// while performing exactly the floating-point operations, on the same
// operands in the same order, as the straightforward versions they replaced.
// Those versions live on here, as the reference: on every basis the corpus
// and the fixtures visit, the factors, both solves and the pivot row must
// come out identical to the last bit (−0 and +0 count as equal: a skipped
// zero term can only change a zero's sign, which no comparison or quotient
// downstream observes).

// refFactorColumn is factorColumn eliminating by a scan over steps 0..k-1.
func refFactorColumn(f *luFactor, k int, minPiv float64) bool {
	for t := 0; t < k; t++ {
		pr := f.prow[t]
		if f.wmark[pr] != f.wgen {
			continue
		}
		pf := f.w[pr]
		if math.Abs(pf) <= luDropTol {
			continue
		}
		f.urow = append(f.urow, int32(t))
		f.uval = append(f.uval, pf)
		for e := f.lptr[t]; e < f.lptr[t+1]; e++ {
			f.setW(f.lrow[e], -f.lval[e]*pf)
		}
	}
	f.uptr[k+1] = int32(len(f.uval))

	piv := int32(-1)
	pabs := minPiv
	for _, r := range f.touch {
		if f.pstep[r] != -1 || f.wmark[r] != f.wgen {
			continue
		}
		if a := math.Abs(f.w[r]); a > pabs {
			piv, pabs = r, a
		}
	}
	if piv < 0 {
		return false
	}
	d := f.w[piv]
	f.prow[k] = piv
	f.pstep[piv] = int32(k)
	f.diag[k] = d
	for _, r := range f.touch {
		if r == piv || f.pstep[r] != -1 || f.wmark[r] != f.wgen {
			continue
		}
		v := f.w[r]
		if math.Abs(v) <= luDropTol {
			continue
		}
		f.lrow = append(f.lrow, r)
		f.lval = append(f.lval, v/d)
	}
	f.lptr[k+1] = int32(len(f.lval))
	return true
}

// uByStep returns copies of f's U entries with each column's sorted by
// ascending step.
func uByStep(f *luFactor) ([]int32, []float64) {
	urow := append([]int32(nil), f.urow...)
	uval := append([]float64(nil), f.uval...)
	for k := 0; k < f.m; k++ {
		lo, hi := f.uptr[k], f.uptr[k+1]
		sort.Sort(&uColumn{urow[lo:hi], uval[lo:hi]})
	}
	return urow, uval
}

type uColumn struct {
	row []int32
	val []float64
}

func (c *uColumn) Len() int           { return len(c.row) }
func (c *uColumn) Less(i, j int) bool { return c.row[i] < c.row[j] }
func (c *uColumn) Swap(i, j int) {
	c.row[i], c.row[j] = c.row[j], c.row[i]
	c.val[i], c.val[j] = c.val[j], c.val[i]
}

// refFactorize factors s's current basis into f with refFactorColumn, step
// k eliminating the column of slot order[k] — every column alike, unit
// columns included, every entry through the scatter and the scan (a reset
// factor has no unit steps for loadColumn to write around). The production
// order is an input, not re-derived (TestFactorOrder checks it on its own);
// the slot-order loop the solver used to run is slotOrder.
func refFactorize(s *spSolver, f *luFactor, order []int32, minPiv float64) bool {
	f.reset(s.m)
	copy(f.slot, order)
	for k, slot := range order {
		f.beginColumn()
		s.loadColumn(f, int(s.basic[slot]))
		if !refFactorColumn(f, k, minPiv) {
			return false
		}
	}
	return true
}

// slotOrder is the identity step order: slot k eliminated at step k.
func slotOrder(m int) []int32 {
	order := make([]int32, m)
	for k := range order {
		order[k] = int32(k)
	}
	return order
}

// refFtran is ftran dividing every component and scanning every step.
func refFtran(f *luFactor, x, out []float64) {
	m := f.m
	for t := 0; t < m; t++ {
		pf := x[f.prow[t]]
		if pf == 0 {
			continue
		}
		for e := f.lptr[t]; e < f.lptr[t+1]; e++ {
			x[f.lrow[e]] -= f.lval[e] * pf
		}
	}
	for k := m - 1; k >= 0; k-- {
		xk := x[f.prow[k]] / f.diag[k]
		out[f.slot[k]] = xk
		if xk == 0 {
			continue
		}
		for e := f.uptr[k]; e < f.uptr[k+1]; e++ {
			x[f.prow[f.urow[e]]] -= f.uval[e] * xk
		}
	}
	for e := 0; e < len(f.epiv); e++ {
		r := f.epiv[e]
		pf := out[r] / f.epval[e]
		if pf != 0 {
			for t := f.eptr[e]; t < f.eptr[e+1]; t++ {
				out[f.eslot[t]] -= f.eval[t] * pf
			}
		}
		out[r] = pf
	}
}

// refBtran is btran with both triangular solves as dot products down the
// stored columns of U and L.
func refBtran(f *luFactor, c, y []float64) {
	m := f.m
	for e := len(f.epiv) - 1; e >= 0; e-- {
		r := f.epiv[e]
		sum := 0.0
		for t := f.eptr[e]; t < f.eptr[e+1]; t++ {
			sum += f.eval[t] * c[f.eslot[t]]
		}
		c[r] = (c[r] - sum) / f.epval[e]
	}
	cs := make([]float64, m) // c by step
	urow, uval := uByStep(f)
	for k := 0; k < m; k++ {
		sum := c[f.slot[k]]
		for e := f.uptr[k]; e < f.uptr[k+1]; e++ {
			sum -= uval[e] * cs[urow[e]]
		}
		cs[k] = sum / f.diag[k]
	}
	for k := 0; k < m; k++ {
		y[f.prow[k]] = cs[k]
	}
	for t := m - 1; t >= 0; t-- {
		sum := y[f.prow[t]]
		for e := f.lptr[t]; e < f.lptr[t+1]; e++ {
			sum -= f.lval[e] * y[f.lrow[e]]
		}
		y[f.prow[t]] = sum
	}
}

// refYTimesA is yTimesA as one dot product per column, down the CSC.
func refYTimesA(s *spSolver, out []float64) {
	c := s.c
	for j := 0; j < s.nTot; j++ {
		switch {
		case j < s.nStr:
			sum := 0.0
			for e := c.ptr[j]; e < c.ptr[j+1]; e++ {
				sum += c.val[e] * s.y[c.rix[e]]
			}
			out[j] = sum
		case j < s.nStr+s.m:
			out[j] = s.y[j-s.nStr]
		default:
			a := j - s.nStr - s.m
			out[j] = s.artSign[a] * s.y[s.artRow[a]]
		}
	}
}

// sameBits reports a and b identical bit for bit, except that zeros of
// either sign are equal (x+0 turns −0 into +0 and changes nothing else).
func sameBits(a, b float64) bool {
	return math.Float64bits(a+0) == math.Float64bits(b+0)
}

func wantSameF(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func wantSameI(t *testing.T, what string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %d, reference %d", what, i, got[i], want[i])
		}
	}
}

// referee checks the solver state s — whatever basis, factors and eta file a
// solve left there — against the reference kernels: FTRAN of up to nVec
// columns and of a dense vector, BTRAN of as many unit vectors and of a dense
// vector, the pivot row of each BTRAN, and finally a fresh factorization of
// the basis. It returns false when the basis is singular (both sides must
// agree on that too).
func referee(t *testing.T, s *spSolver, rng *rand.Rand, nVec int, minPiv float64) bool {
	t.Helper()
	m, f := s.m, &s.fac
	in := make([]float64, m)
	got, want := make([]float64, m), make([]float64, m)
	arow := make([]float64, s.nTot)
	dense := func() {
		for i := range in {
			in[i] = rng.NormFloat64()
		}
	}
	ftranBoth := func(what string) {
		t.Helper()
		refFtran(f, append([]float64(nil), in...), want)
		f.ftran(append([]float64(nil), in...), got)
		wantSameF(t, what, got, want)
	}
	btranBoth := func(what string) {
		t.Helper()
		refBtran(f, append([]float64(nil), in...), want)
		f.btran(append([]float64(nil), in...), got)
		wantSameF(t, what, got, want)
		copy(s.y, got)
		s.yTimesA()
		refYTimesA(s, arow)
		wantSameF(t, what+" pivot row", s.arow, arow)
	}
	for n := 0; n < min(nVec, s.nTot); n++ {
		j := n
		if nVec < s.nTot {
			j = rng.Intn(s.nTot)
		}
		s.scatterColToW(j)
		copy(in, s.w)
		ftranBoth("ftran(column)")
	}
	for n := 0; n < min(nVec, m); n++ {
		r := n
		if nVec < m {
			r = rng.Intn(m)
		}
		clear(in)
		in[r] = 1
		btranBoth("btran(unit)")
	}
	dense()
	ftranBoth("ftran(dense)")
	dense()
	btranBoth("btran(dense)")

	ok := s.factorize(minPiv) // leaves the whole step order in f.slot even when it fails
	var ref luFactor
	if okRef := refFactorize(s, &ref, f.slot, minPiv); ok != okRef {
		t.Fatalf("factorize ok = %v, reference %v", ok, okRef)
	}
	if !ok {
		return false
	}
	wantSameI(t, "prow", f.prow, ref.prow)
	wantSameI(t, "lptr", f.lptr, ref.lptr)
	wantSameI(t, "lrow", f.lrow, ref.lrow)
	wantSameF(t, "lval", f.lval, ref.lval)
	wantSameI(t, "uptr", f.uptr, ref.uptr)
	urow, uval := uByStep(f)
	wantSameI(t, "urow (by step)", urow, ref.urow)
	wantSameF(t, "uval (by step)", uval, ref.uval)
	wantSameF(t, "diag", f.diag, ref.diag)
	return true
}

// refereeSolves solves p cold on the sparse core once per iteration cap
// 1, 2, … up to the iteration count of the uncapped solve, so that every
// basis the solve visits is left in the workspace in turn — with the eta
// file it had at that point — and handed to the referee. When the solve ends
// optimal it does the same for a warm re-solve after tighten has changed the
// bounds. It returns the number of states checked.
func refereeSolves(t *testing.T, p *Problem, rng *rand.Rand, tighten func(*Problem)) int {
	t.Helper()
	states := 0
	visit := func(solve func(opt *Options) (*Solution, bool)) *Solution {
		t.Helper()
		full, ok := solve(nil)
		if !ok {
			return nil
		}
		for k := 1; k <= full.Iters; k++ {
			if _, ok := solve(&Options{MaxIters: k}); !ok {
				t.Fatalf("capped solve (%d of %d iterations) failed where the full one did not", k, full.Iters)
			}
			referee(t, &p.sp.s, rng, 1<<30, luPivotFloor)
			states++
		}
		return full
	}
	cold := visit(func(opt *Options) (*Solution, bool) { return solveSparse(p, opt) })
	if cold == nil || cold.Status != Optimal || cold.Basis == nil || tighten == nil {
		return states
	}
	tighten(p)
	visit(func(opt *Options) (*Solution, bool) { return solveFromSparse(p, cold.Basis, opt) })
	return states
}

// TestKernelsBitIdenticalCorpus runs the referee over every basis visited by
// the 400-LP corpus, cold and warm.
func TestKernelsBitIdenticalCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	states := 0
	for trial := 0; trial < 400; trial++ {
		p := genLP(rng)
		states += refereeSolves(t, p, rng, func(p *Problem) { tightenRandomBound(rng, p) })
	}
	if states < 500 {
		t.Fatalf("only %d bases refereed; the corpus no longer pivots", states)
	}
}

// TestKernelsBitIdenticalFixtures runs the referee over the pathological
// shapes of sparse_test.go: a dense row, a dense column, fully dense
// matrices, singleton columns, Beale's cycling LP and a badly scaled one.
func TestKernelsBitIdenticalFixtures(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	randRow := func(p *Problem, n int, density float64, first int) {
		idx, coef := []int{}, []float64{}
		if first >= 0 {
			idx, coef = append(idx, first), append(coef, 1+rng.Float64())
		}
		for j := 0; j < n; j++ {
			if j != first && rng.Float64() < density {
				idx, coef = append(idx, j), append(coef, rng.NormFloat64())
			}
		}
		if len(idx) > 0 {
			p.AddRow(idx, coef, []Rel{LE, GE, EQ}[rng.Intn(3)], 1+rng.Float64()*5)
		}
	}
	boxed := func(n int) *Problem {
		p := NewProblem(n)
		for j := 0; j < n; j++ {
			p.Cost[j] = rng.NormFloat64()
			p.Hi[j] = 1 + rng.Float64()*5
		}
		return p
	}
	fixtures := []struct {
		name string
		gen  func() *Problem
	}{
		{"dense row", func() *Problem {
			n := 12 + rng.Intn(20)
			p := boxed(n)
			randRow(p, n, 1, -1)
			randRow(p, n, 0.1, -1)
			randRow(p, n, 0.1, -1)
			return p
		}},
		{"dense column", func() *Problem {
			n := 6 + rng.Intn(8)
			p := boxed(n)
			for i := 8 + rng.Intn(10); i > 0; i-- {
				randRow(p, n, 0.3, 0)
			}
			return p
		}},
		{"fully dense", func() *Problem {
			n := 3 + rng.Intn(5)
			p := boxed(n)
			for i := 2 + rng.Intn(4); i > 0; i-- {
				randRow(p, n, 1, -1)
			}
			return p
		}},
		{"singleton columns", func() *Problem {
			m := 3 + rng.Intn(6)
			p := boxed(2 * m)
			for i := 0; i < m; i++ {
				p.AddRow([]int{i, i + m}, []float64{1 + rng.Float64(), rng.NormFloat64()}, []Rel{LE, GE}[rng.Intn(2)], 1+rng.Float64()*4)
			}
			return p
		}},
		{"beale", func() *Problem {
			p := NewProblem(3)
			p.Cost = []float64{-0.75, 150, -0.02}
			p.Hi = []float64{math.Inf(1), math.Inf(1), 1}
			p.AddRow([]int{0, 1, 2}, []float64{0.25, -60, -1.0 / 25}, LE, 0)
			p.AddRow([]int{0, 1, 2}, []float64{0.5, -90, -1.0 / 50}, LE, 0)
			return p
		}},
		{"bad scaling", func() *Problem {
			p := NewProblem(2)
			p.Cost = []float64{-1, -1e8}
			p.Hi = []float64{1, 1}
			p.AddRow([]int{0, 1}, []float64{1e8, 1e-6}, LE, 1e8)
			return p
		}},
	}
	for _, fx := range fixtures {
		states := 0
		for trial := 0; trial < 20; trial++ {
			states += refereeSolves(t, fx.gen(), rng, nil)
		}
		if states == 0 {
			t.Errorf("%s: no basis refereed", fx.name)
		}
	}
}

// TestKernelsBitIdenticalLargeBasis runs the referee on AfricaWAN-sized
// bases (m = 2,600, about a third of the columns structural): the optimal
// one, freshly factored, and — through a capped re-solve of the same LP —
// one mid-flight with a long eta file behind it.
func TestKernelsBitIdenticalLargeBasis(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p, s, _ := benchState(t, 2600)
	if !referee(t, s, rng, 60, warmPivTol) {
		t.Fatal("optimal basis reported singular")
	}
	if _, ok := solveSparse(p, &Options{MaxIters: 5*maxEta + maxEta/2}); !ok {
		t.Fatal("capped cold solve failed")
	}
	if n := s.fac.nEtas(); n < maxEta/4 {
		t.Fatalf("eta file holds %d etas; the capped solve no longer stops mid-chain", n)
	}
	if !referee(t, s, rng, 60, luPivotFloor) {
		t.Fatal("mid-solve basis reported singular")
	}
}

// TestReachHeapPopsAscending pins the heap on its own: whatever order steps
// are pushed in, and however pushes and pops interleave, every pop returns
// the smallest step pending.
func TestReachHeapPopsAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var f luFactor
	for trial := 0; trial < 200; trial++ {
		pending := map[int32]bool{}
		for op := 0; op < 60; op++ {
			if len(pending) == 0 || rng.Intn(3) > 0 {
				s := int32(rng.Intn(1000))
				if !pending[s] { // factorColumn never pushes a step twice
					pending[s] = true
					f.pushReach(s)
				}
				continue
			}
			want := int32(math.MaxInt32)
			for s := range pending {
				want = min(want, s)
			}
			if got := f.popReach(); got != want {
				t.Fatalf("trial %d: popped step %d, smallest pending is %d", trial, got, want)
			}
			delete(pending, want)
		}
		f.reach = f.reach[:0]
	}
}
