package lp

// The sparse revised simplex core — the one solver. The constraint
// matrix is held both column-wise (CSC) and row-wise (CSR) after
// geometric-mean scaling; the basis is an LU factorization with a
// product-form eta file (lu.go); pricing and the ratio test work against
// FTRAN/BTRAN solves instead of a dense tableau. The dense tableau it
// replaced (dense_ref_test.go) defines the pivot-rule semantics this file
// reproduces and remains the referee in the equivalence tests.
//
// Column layout, shared with the dense referee and the exported Basis:
// structural variables 0..nStr-1 (stored CSC columns), one slack per row
// nStr..nStr+m-1 (implicit +1 unit columns; the row scaling is absorbed
// into the slack variable itself, so the stored coefficient stays exactly
// 1), then any phase-1 artificials (implicit ±1 unit columns).

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"raha/internal/obs"
)

// harrisDelta is the bound-relaxation used by the first pass of the Harris
// ratio test: basic variables may overshoot their bounds by up to this much
// so the second pass can pick the largest pivot among the near-ties. The
// accumulated shift is shed whenever the basis is refactorized (basic
// values are recomputed from true bounds) and at extraction (clamp).
const harrisDelta = 1e-8

// Sparse-core counters and gauges (obs.Default, exported as raha.lp.*).
var (
	cRefacs = obs.Default.Counter("lp.refactorizations")
	cLowers = obs.Default.Counter("lp.lowerings")          // buildCache runs: a Problem's rows scaled into CSC
	cReuses = obs.Default.Counter("lp.warm_factor_reuses") // warm starts that skipped factorize
	gEtaLen = obs.Default.Gauge("lp.eta_len")
	gFill   = obs.Default.Gauge("lp.lu_fill_permille")
)

// spCache is a Problem's sparse lowering, built once per (rows, vars) shape
// and reused across solves: the scaled CSC matrix, the scaling vectors, the
// scaled right-hand side, and the solver workspace. Branch and bound
// re-solves one Problem thousands of times with only bound changes
// (milp.reuseLP), so everything here amortizes to zero allocations per
// solve. Its storage outlives the Problem too: Problem.Release hands it to a
// process-wide free list (workspace.go), and the next lowering is built into
// it, so a fleet of short searches does not regrow the same buffers search
// after search. Not safe for concurrent solves of the same Problem.
type spCache struct {
	nVars, nRows int // shape stamp; a mismatch rebuilds the cache

	// Scaled structural columns, CSC: column j's entries are
	// rix/val[ptr[j]:ptr[j+1]], row-sorted, duplicates merged. GE rows are
	// sign-folded into LE form here, like the dense build.
	ptr []int32
	rix []int32
	val []float64

	// The same scaled entries by row (CSR): row i's are cix/rval[rptr[i]:
	// rptr[i+1]], column-sorted. Pricing walks these (see yTimesA).
	rptr []int32
	cix  []int32
	rval []float64

	rowScale []float64 // R: scaled row i = R_i · sign_i · (original row i)
	colScale []float64 // C: original x_j = C_j · scaled x̂_j
	bhat     []float64 // scaled right-hand side R·sign·RHS
	eqRow    []bool    // row is EQ (its slack is fixed at 0)

	// buildCache's scratch, kept for the next build into this cache.
	sign, rmin, rmax []float64
	mark, next, epos []int32

	s spSolver // reusable solver workspace

	// Recycled results (Problem.Recycle, Problem.RecycleBasis) that finish
	// hands out again instead of allocating.
	freeSols  []*Solution
	freeBases []*Basis
}

// cache returns the problem's sparse lowering, rebuilding it when the shape
// changed (reuseLP keeps the shape, so the rebuild happens once per model).
// A rebuild goes into the storage the problem already holds, else into a
// released workspace's (takeWorkspace). The error is a malformed row, found
// by the build.
func (p *Problem) cache() (*spCache, error) {
	if p.sp != nil && p.sp.nVars == p.NumVars && p.sp.nRows == len(p.Rows) {
		return p.sp, nil
	}
	c := p.sp
	if c == nil {
		c = takeWorkspace()
	}
	if err := buildCache(p, c); err != nil {
		p.sp = nil
		putWorkspace(c)
		return nil, err
	}
	p.sp = c
	return c, nil
}

// pow2Round rounds a positive scale factor to the nearest power of two:
// scaling then becomes exact in floating point (exponent shifts only), so
// it cannot itself introduce rounding error into the matrix.
func pow2Round(x float64) float64 {
	if !(x > 0) || math.IsInf(x, 1) {
		return 1
	}
	return math.Exp2(math.Round(math.Log2(x)))
}

// clampScale caps scales at 2^±20 so a single pathological coefficient
// cannot drive the rest of the matrix to the edge of the exponent range.
func clampScale(s float64) float64 {
	const maxScale = 1 << 20
	if s > maxScale {
		return maxScale
	}
	if s < 1.0/maxScale {
		return 1.0 / maxScale
	}
	return s
}

// buildCache lowers p to scaled CSC form into c, reusing c's storage: merge
// duplicate indices, fold GE signs, then two passes of geometric-mean
// row/column equilibration with power-of-two scales. Its first pass over the
// rows is also their check: an index out of range, a coefficient count that
// differs from the index count, a non-finite coefficient or a NaN right-hand
// side is an error (an infinite right-hand side is not).
//
// c's workspace may hold the factors and reduced costs of another lowering,
// and a warm start keys its reuse of them by content alone (startFactors,
// startD): a basis that matches the old factorization slot for slot would
// otherwise take L and U built from other coefficients. So the build drops
// both first, before anything can fail.
func buildCache(p *Problem, c *spCache) error {
	m, n := len(p.Rows), p.NumVars
	c.nVars, c.nRows = -1, -1 // not a lowering of anything until the build succeeds
	c.s.facWarm, c.s.dKept = false, false

	sign := resize(&c.sign, m)
	for i, r := range p.Rows {
		if r.Rel == GE {
			sign[i] = -1
		} else {
			sign[i] = 1
		}
	}

	// Count merged nonzeros per column (rows may repeat an index; the milp
	// lowering does, and the dense build summed them with +=).
	mark := resize(&c.mark, n)
	for i := range mark {
		mark[i] = -1
	}
	ptr := resize(&c.ptr, n+1)
	clear(ptr)
	for i, r := range p.Rows {
		if len(r.Coef) != len(r.Idx) {
			return fmt.Errorf("lp: row %d has %d indices but %d coefficients", i, len(r.Idx), len(r.Coef))
		}
		if math.IsNaN(r.RHS) {
			return fmt.Errorf("lp: row %d has a NaN right-hand side", i)
		}
		for k, j := range r.Idx {
			if j < 0 || j >= n {
				return fmt.Errorf("lp: row %d references variable %d out of range", i, j)
			}
			if v := r.Coef[k]; math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("lp: row %d has coefficient %g on variable %d", i, v, j)
			}
			if mark[j] != int32(i) {
				mark[j] = int32(i)
				ptr[j+1]++
			}
		}
	}
	for j := 0; j < n; j++ {
		ptr[j+1] += ptr[j]
	}
	nnz := int(ptr[n])
	rix := resize(&c.rix, nnz)
	val := resize(&c.val, nnz)
	next := resize(&c.next, n)
	copy(next, ptr[:n])
	epos := resize(&c.epos, n)
	for i := range mark {
		mark[i] = -1
	}
	for i, r := range p.Rows {
		for k, j := range r.Idx {
			v := sign[i] * r.Coef[k]
			if mark[j] != int32(i) {
				mark[j] = int32(i)
				epos[j] = next[j]
				rix[next[j]] = int32(i)
				val[next[j]] = v
				next[j]++
			} else {
				val[epos[j]] += v
			}
		}
	}

	// Geometric-mean equilibration: alternate row and column passes, each
	// scale the reciprocal root of the min·max magnitude in its line,
	// rounded to a power of two. Two passes bring the B4/Uninett models
	// within a decade of unit magnitude, which is all the LU pivoting
	// needs; more passes buy nothing measurable.
	rs := resize(&c.rowScale, m)
	cs := resize(&c.colScale, n)
	for i := range rs {
		rs[i] = 1
	}
	for j := range cs {
		cs[j] = 1
	}
	rmin := resize(&c.rmin, m)
	rmax := resize(&c.rmax, m)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < m; i++ {
			rmin[i] = math.Inf(1)
			rmax[i] = 0
		}
		for j := 0; j < n; j++ {
			for e := ptr[j]; e < ptr[j+1]; e++ {
				a := math.Abs(val[e]) * rs[rix[e]] * cs[j]
				if a == 0 {
					continue
				}
				i := rix[e]
				if a < rmin[i] {
					rmin[i] = a
				}
				if a > rmax[i] {
					rmax[i] = a
				}
			}
		}
		for i := 0; i < m; i++ {
			if rmax[i] > 0 {
				rs[i] = clampScale(rs[i] * pow2Round(1/math.Sqrt(rmin[i]*rmax[i])))
			}
		}
		for j := 0; j < n; j++ {
			cmin, cmax := math.Inf(1), 0.0
			for e := ptr[j]; e < ptr[j+1]; e++ {
				a := math.Abs(val[e]) * rs[rix[e]] * cs[j]
				if a == 0 {
					continue
				}
				if a < cmin {
					cmin = a
				}
				if a > cmax {
					cmax = a
				}
			}
			if cmax > 0 {
				cs[j] = clampScale(cs[j] * pow2Round(1/math.Sqrt(cmin*cmax)))
			}
		}
	}
	for j := 0; j < n; j++ {
		for e := ptr[j]; e < ptr[j+1]; e++ {
			val[e] *= rs[rix[e]] * cs[j]
		}
	}

	bhat := resize(&c.bhat, m)
	eq := resize(&c.eqRow, m)
	for i, r := range p.Rows {
		bhat[i] = sign[i] * rs[i] * r.RHS
		eq[i] = r.Rel == EQ
	}

	c.rptr, c.cix, c.rval = transposeCS(m, ptr, rix, val, c.rptr, c.cix, c.rval)
	c.nVars, c.nRows = n, m
	cLowers.Inc()
	return nil
}

// resize sets *buf to length n, reallocating only when its capacity is
// short, and returns it. The contents are whatever the storage held.
func resize[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// spSolver is the revised-simplex working state. It lives inside the
// spCache so repeated solves of one Problem reuse every slice.
type spSolver struct {
	c    *spCache
	m    int // constraint rows (= basis size)
	nStr int // structural variables
	nArt int // artificial columns this solve
	nTot int // nStr + m + nArt

	// Per-column state, length nTot, in scaled space.
	lo, hi []float64
	cost   []float64 // current phase objective
	xval   []float64
	d      []float64 // reduced costs (dual path only; primal reprices)
	arow   []float64 // yᵀA: the dual's pivot row, pricing's column products
	stat   []vstat
	slotOf []int32 // basis slot of a basic column, -1 otherwise

	basic   []int32   // basic column per slot, length m
	artRow  []int32   // constraint row of each artificial
	artSign []float64 // ±1 coefficient of each artificial

	// Length-m scratch.
	w      []float64 // original-row-indexed FTRAN input / residual buffer
	alpha  []float64 // slot-indexed FTRAN output (entering column)
	cbuf   []float64 // slot-indexed BTRAN input, all zero between calls
	y      []float64 // original-row-indexed BTRAN output (duals)
	cslots []int32   // the slots of cbuf's nonzeros, for btran

	// Supports over columns: colSet collects the pivot row's, colList is
	// yTimesA's ascending answer, and costCols lists, ascending, the columns
	// with a nonzero cost in the current phase objective (noteCostCols).
	// unitRow is the one row of a unit column scattered into w.
	colSet   bitset
	colList  []int32
	costCols []int32
	unitRow  [1]int32

	fac luFactor

	// What a warm start may reuse (startFactors, startD). facBasic is the
	// basis, slot by slot, that fac's L and U were built for, and facWarm
	// reports that every pivot of that factorization cleared warmPivTol, so
	// factorize(warmPivTol) would rebuild those factors bit for bit. dKeep
	// holds the reduced costs last computed on them with an empty eta file,
	// and dCost the scaled costs they came from; dKept says both are
	// current. Keyed by content, never by a *Basis: a Basis carries no state.
	facBasic     []int32
	facWarm      bool
	dKeep, dCost []float64
	dKept        bool

	// infeas holds, during the dual phase, every slot whose basic violates
	// a bound by more than feasTol, and possibly some that no longer do
	// (leavingRow drops those as it meets them).
	infeas bitset

	iters int
	cap   int
	stop  *atomic.Bool // Options.Stop; nil when the caller gave none

	// Objective cutoff of the warm dual phase (Options.ObjLimit; +Inf when
	// none): dobj is the objective Σ cost·xval of the current dual-feasible
	// basis, carried pivot to pivot and read only while a limit is set.
	objLimit float64
	dobj     float64

	degenPivots int
	blandPivots int
	dualIters   int

	// fail marks a numerical catastrophe (the basis would not factorize
	// mid-solve) or a dual stall (stalled): a dual start gives way, a warm
	// one to a cold solve and a cold one to the two-phase primal, and the
	// two-phase primal ends NumericalFailure.
	fail, stalled bool
}

// sizeFor (re)sizes the workspace for this solve's column count.
func (s *spSolver) sizeFor(m, nTot int) {
	if cap(s.lo) < nTot {
		s.lo = make([]float64, nTot)
		s.hi = make([]float64, nTot)
		s.cost = make([]float64, nTot)
		s.xval = make([]float64, nTot)
		s.d = make([]float64, nTot)
		s.arow = make([]float64, nTot)
		s.stat = make([]vstat, nTot)
		s.slotOf = make([]int32, nTot)
		s.colList = make([]int32, nTot)
		s.costCols = make([]int32, 0, nTot)
	}
	s.lo = s.lo[:nTot]
	s.hi = s.hi[:nTot]
	s.cost = s.cost[:nTot]
	s.xval = s.xval[:nTot]
	s.d = s.d[:nTot]
	s.arow = s.arow[:nTot]
	s.stat = s.stat[:nTot]
	s.slotOf = s.slotOf[:nTot]
	s.colList = s.colList[:nTot]
	s.colSet = s.colSet.sized(nTot)
	if cap(s.basic) < m {
		s.basic = make([]int32, m)
		s.alpha = make([]float64, m)
		s.cbuf = make([]float64, m)
		s.y = make([]float64, m)
		s.cslots = make([]int32, m)
		s.facBasic = make([]int32, m)
	}
	// w is sized separately: initCold borrows it as a residual buffer
	// before sizeFor runs, and that aliasing must survive this call.
	if cap(s.w) < m {
		s.w = make([]float64, m)
	}
	s.basic = s.basic[:m]
	s.w = s.w[:m]
	s.alpha = s.alpha[:m]
	s.cbuf = s.cbuf[:m]
	s.y = s.y[:m]
	s.cslots = s.cslots[:m]
	s.facBasic = s.facBasic[:m]
	s.infeas = s.infeas.sized(m)
	s.iters = 0
	s.degenPivots = 0
	s.blandPivots = 0
	s.dualIters = 0
	s.fail, s.stalled = false, false
	s.stop = nil
}

// scatterColToW writes column j (scaled) into the original-row-indexed
// working vector w, zeroing it first, and returns the rows it wrote — FTRAN's
// input support.
func (s *spSolver) scatterColToW(j int) []int32 {
	clear(s.w)
	if j >= s.nStr {
		r, v := s.unitColumn(j)
		s.w[r] = v
		s.unitRow[0] = r
		return s.unitRow[:]
	}
	c := s.c
	for e := c.ptr[j]; e < c.ptr[j+1]; e++ {
		s.w[c.rix[e]] = c.val[e]
	}
	return c.rix[c.ptr[j]:c.ptr[j+1]]
}

// ftranColumn solves B·alpha = A_j into alpha and returns alpha's support
// (FTRAN's ascending slots).
func (s *spSolver) ftranColumn(j int) []int32 {
	rows := s.scatterColToW(j)
	return s.fac.ftran(s.w, rows, s.alpha)
}

// yTimesA fills arow[j] = yᵀA_j for every column j, for the
// original-row-indexed y whose nonzeros lie on the ascending rows (BTRAN's
// support). The structural part is accumulated row by row over those rows,
// in ascending i: the CSC columns are row-sorted, so each arow[j] receives
// exactly the addends a dot product down column j would, in the same order,
// minus terms that are exact zeros — at a cost proportional to the nonzeros
// of y's rows rather than of A. It returns the ascending columns where arow
// may be nonzero — the structurals those rows hit, the slacks of y's
// nonzeros and the nonzero artificials — together with the columns also
// lists.
func (s *spSolver) yTimesA(rows, also []int32) []int32 {
	c := s.c
	arow, cols := s.arow, s.colSet
	clear(arow[:s.nStr])
	for _, j := range also {
		cols.set(j)
	}
	for _, i := range rows {
		yi := s.y[i]
		if yi == 0 {
			continue
		}
		for e := c.rptr[i]; e < c.rptr[i+1]; e++ {
			j := c.cix[e]
			arow[j] += c.rval[e] * yi
			cols.set(j)
		}
		cols.set(int32(s.nStr) + i)
	}
	copy(arow[s.nStr:], s.y) // slacks are unit columns
	for a, r := range s.artRow {
		j := s.nStr + s.m + a
		if arow[j] = s.artSign[a] * s.y[r]; arow[j] != 0 {
			cols.set(int32(j))
		}
	}
	return cols.drain(s.colList)
}

// costRow sets y to the duals B⁻ᵀc_B of the current phase objective and arow
// to yᵀA, so that column j's reduced cost is cost[j] − arow[j]. c_B is built
// from the basic columns among costCols, every other slot's cost being zero.
// It returns the ascending columns where cost or arow may be nonzero: at
// every other column the reduced cost is 0 − 0.
func (s *spSolver) costRow() []int32 {
	n := 0
	for _, j := range s.costCols {
		if s.stat[j] == basic {
			k := s.slotOf[j]
			s.cbuf[k] = s.cost[j]
			s.cslots[n] = k
			n++
		}
	}
	var rows []int32
	if n > 0 {
		rows = s.fac.btran(s.cbuf, s.cslots[:n], s.y)
	} else {
		clear(s.y)
	}
	return s.yTimesA(rows, s.costCols)
}

// noteCostCols records costCols for the objective just installed in cost.
func (s *spSolver) noteCostCols() {
	cc := s.costCols[:0]
	for j, c := range s.cost {
		if c != 0 {
			cc = append(cc, int32(j))
		}
	}
	s.costCols = cc
}

// unitColumn returns the row and the ±1 coefficient of slack or artificial
// column j.
func (s *spSolver) unitColumn(j int) (int32, float64) {
	if a := j - s.nStr - s.m; a >= 0 {
		return s.artRow[a], s.artSign[a]
	}
	return int32(j - s.nStr), 1
}

// loadColumn scatters column j into f's working column (after beginColumn)
// and returns its number of entries.
//
// A structural entry on a row that one of the leading unit steps pivoted on
// goes straight into U instead: that step has an empty L column, so
// eliminating against it would subtract nothing, and no later L column can
// address its row (L addresses rows still unpivoted at its own step) — the
// value is final the moment it is loaded, and the reach heap never hears of
// it. Such entries precede the heap's in the stored U column, in row rather
// than step order; FTRAN's scatter hits distinct targets and BTRAN runs on
// the transposed copy, so neither can tell.
func (s *spSolver) loadColumn(f *luFactor, j int) int {
	if j >= s.nStr {
		f.setW(s.unitColumn(j))
		return 1
	}
	c := s.c
	for e := c.ptr[j]; e < c.ptr[j+1]; e++ {
		r, v := c.rix[e], c.val[e]
		if t := f.pstep[r]; t >= 0 && t < f.unitSteps {
			if math.Abs(v) > luDropTol {
				f.urow = append(f.urow, t)
				f.uval = append(f.uval, v)
			}
			continue
		}
		f.setW(r, v)
	}
	return int(c.ptr[j+1] - c.ptr[j])
}

// orderSteps fills fac.slot with the static triangular elimination order:
// every basic slack or artificial first, in ascending slot order, then the
// structural columns by ascending stored nonzero count, ties in slot order
// (one counting sort over the cache's column pointers). A unit column
// eliminated before any structural one pivots on its own row with no L and
// no U entries, and a sparse structural column met early has little behind
// it to fill; the order reads only the pattern, never a value, so partial
// pivoting inside each step keeps its |l| ≤ 1 bound.
func (s *spSolver) orderSteps() {
	f, ptr := &s.fac, s.c.ptr
	bucket := f.bucket
	clear(bucket)
	pos := int32(0)
	for k, j := range s.basic {
		if int(j) >= s.nStr {
			f.slot[pos] = int32(k)
			pos++
		} else {
			bucket[ptr[j+1]-ptr[j]]++
		}
	}
	for n, cnt := range bucket {
		bucket[n] = pos
		pos += cnt
	}
	for k, j := range s.basic {
		if int(j) < s.nStr {
			n := ptr[j+1] - ptr[j]
			f.slot[bucket[n]] = int32(k)
			bucket[n]++
		}
	}
}

// factorize rebuilds the LU of the current basis from scratch, in the order
// orderSteps lays down, clearing the eta file. It reports false when the
// basis is numerically singular at the given pivot floor. The factors
// depend on nothing but the slot order of the basis and the scaled matrix,
// so it records that basis for startFactors.
func (s *spSolver) factorize(minPiv float64) bool {
	f := &s.fac
	f.reset(s.m)
	s.facWarm, s.dKept = false, false
	s.orderSteps()
	nnz := 0
	for k, slot := range f.slot {
		j := int(s.basic[slot])
		if j >= s.nStr {
			// A unit column whose row is still unpivoted is a finished
			// step: pivot ±1 on that row, nothing in L, nothing in U. A
			// taken row (two unit columns of one row) goes the general way,
			// which finds no pivot and reports the basis singular.
			if r, v := s.unitColumn(j); f.pstep[r] < 0 {
				f.prow[k], f.pstep[r], f.diag[k] = r, int32(k), v
				f.lptr[k+1], f.uptr[k+1] = f.lptr[k], f.uptr[k]
				f.unitSteps = int32(k + 1)
				nnz++
				continue
			}
		}
		f.beginColumn()
		nnz += s.loadColumn(f, j)
		if !f.factorColumn(k, minPiv) {
			return false
		}
	}
	f.finish()
	f.basisNnz = nnz
	gFill.Set(f.fillPermille())
	copy(s.facBasic, s.basic)
	s.facWarm = f.pivotsAbove(warmPivTol)
	return true
}

// startFactors gives a warm start the LU of its basis: fac's own when it
// was built for this basis, slot for slot, with every pivot above
// warmPivTol — factorize(warmPivTol) would produce the same bits — with the
// eta file cleared, else a factorization at warmPivTol. It reports false
// when the basis will not factorize.
func (s *spSolver) startFactors() bool {
	if !s.facWarm || !slices.Equal(s.basic, s.facBasic) {
		return s.factorize(warmPivTol)
	}
	s.fac.clearEtas()
	gFill.Set(s.fac.fillPermille())
	cReuses.Inc()
	return true
}

// refactor rebuilds the basis factorization mid-solve and recomputes the
// basic values from true bounds — which is also what sheds the Harris
// bound shifts. Reports false on a numerically singular basis (the
// caller's catastrophe path).
func (s *spSolver) refactor() bool {
	cRefacs.Inc()
	gEtaLen.Set(int64(s.fac.nEtas()))
	if !s.factorize(luPivotFloor) {
		return false
	}
	s.recomputeXB()
	return true
}

// recomputeXB snaps every nonbasic variable to its bound and recomputes the
// basic values as B⁻¹(b̂ − Σ_nonbasic A_j·x_j) through the fresh factors.
func (s *spSolver) recomputeXB() {
	for j := 0; j < s.nTot; j++ {
		switch s.stat[j] {
		case atLower:
			s.xval[j] = s.lo[j]
		case atUpper:
			s.xval[j] = s.hi[j]
		}
	}
	copy(s.w, s.c.bhat)
	c := s.c
	for j := 0; j < s.nStr; j++ {
		if s.stat[j] == basic {
			continue
		}
		xj := s.xval[j]
		if xj == 0 {
			continue
		}
		for e := c.ptr[j]; e < c.ptr[j+1]; e++ {
			s.w[c.rix[e]] -= c.val[e] * xj
		}
	}
	for i := 0; i < s.m; i++ {
		j := s.nStr + i
		if s.stat[j] != basic && s.xval[j] != 0 {
			s.w[i] -= s.xval[j]
		}
	}
	for a := 0; a < s.nArt; a++ {
		j := s.nStr + s.m + a
		if s.stat[j] != basic && s.xval[j] != 0 {
			s.w[s.artRow[a]] -= s.artSign[a] * s.xval[j]
		}
	}
	s.fac.ftran(s.w, nil, s.alpha)
	for k := 0; k < s.m; k++ {
		s.xval[s.basic[k]] = s.alpha[k]
	}
}

// setBasic installs column j as the basic variable of slot k with value v.
func (s *spSolver) setBasic(k, j int, v float64) {
	s.basic[k] = int32(j)
	s.slotOf[j] = int32(k)
	s.stat[j] = basic
	s.xval[j] = v
}

// initCold prepares a cold solve: structurals at their (scaled) lower
// bounds, slack basis, artificials where a row's residual cannot be carried
// by its slack — the same rule as the dense build, applied in scaled space.
func (s *spSolver) initCold(p *Problem, c *spCache) {
	m, nStr := len(p.Rows), p.NumVars
	s.c = c
	s.m, s.nStr = m, nStr
	// Residual of each row at the all-at-lower point, using w as scratch
	// (sizeFor has not run yet, so size the length-m slices first).
	if cap(s.w) < m {
		s.w = make([]float64, m)
	}
	s.w = s.w[:m]
	resid := s.w
	copy(resid, c.bhat)
	for j := 0; j < nStr; j++ {
		lj := p.Lo[j] / c.colScale[j]
		if lj == 0 {
			continue
		}
		for e := c.ptr[j]; e < c.ptr[j+1]; e++ {
			resid[c.rix[e]] -= c.val[e] * lj
		}
	}
	nArt := 0
	for i := 0; i < m; i++ {
		if c.eqRow[i] {
			if math.Abs(resid[i]) > feasTol {
				nArt++
			}
		} else if resid[i] < -feasTol {
			nArt++
		}
	}
	nTot := nStr + m + nArt
	s.nArt, s.nTot = nArt, nTot
	s.sizeFor(m, nTot) // keeps w's backing array, so resid stays valid
	s.artRow = s.artRow[:0]
	s.artSign = s.artSign[:0]

	inf := math.Inf(1)
	for j := 0; j < nStr; j++ {
		csj := c.colScale[j]
		s.lo[j] = p.Lo[j] / csj
		s.hi[j] = p.Hi[j] / csj
		s.stat[j] = atLower
		s.xval[j] = s.lo[j]
		s.slotOf[j] = -1
		s.cost[j] = 0
	}
	for i := 0; i < m; i++ {
		j := nStr + i
		s.lo[j] = 0
		if c.eqRow[i] {
			s.hi[j] = 0
		} else {
			s.hi[j] = inf
		}
		s.stat[j] = atLower
		s.xval[j] = 0
		s.slotOf[j] = -1
		s.cost[j] = 0
	}
	a := 0
	for i := 0; i < m; i++ {
		need := false
		if c.eqRow[i] {
			need = math.Abs(resid[i]) > feasTol
		} else {
			need = resid[i] < -feasTol
		}
		if need {
			j := nStr + m + a
			s.artRow = append(s.artRow, int32(i))
			if resid[i] >= 0 {
				s.artSign = append(s.artSign, 1)
			} else {
				s.artSign = append(s.artSign, -1)
			}
			s.lo[j] = 0
			s.hi[j] = inf
			s.cost[j] = 1 // phase-1 objective
			s.slotOf[j] = -1
			s.setBasic(i, j, math.Abs(resid[i]))
			a++
		} else {
			s.setBasic(i, nStr+i, resid[i])
		}
	}
	s.noteCostCols()
	s.cap = 50*(m+nTot) + 1000
}

// initDual prepares a solve that starts from the dual simplex: structural
// and slack columns only, the real objective from the start, no objective
// limit. The caller installs the basis.
func (s *spSolver) initDual(p *Problem, c *spCache) {
	m, nStr := len(p.Rows), p.NumVars
	s.c = c
	s.m, s.nStr = m, nStr
	s.nArt = 0
	nTot := nStr + m
	s.nTot = nTot
	s.sizeFor(m, nTot)
	s.artRow = s.artRow[:0]
	s.artSign = s.artSign[:0]

	inf := math.Inf(1)
	for j := 0; j < nStr; j++ {
		csj := c.colScale[j]
		s.lo[j] = p.Lo[j] / csj
		s.hi[j] = p.Hi[j] / csj
		s.cost[j] = p.Cost[j] * csj
	}
	for i := 0; i < m; i++ {
		j := nStr + i
		s.lo[j] = 0
		if c.eqRow[i] {
			s.hi[j] = 0
		} else {
			s.hi[j] = inf
		}
		s.cost[j] = 0
	}
	s.noteCostCols()
	s.cap = 50*(m+nTot) + 1000
	s.objLimit = math.Inf(1)
}

// initWarm prepares a warm solve directly in the inherited basis. It
// reports false when b.Basic names a column twice (the one check Basis.valid
// leaves to it).
func (s *spSolver) initWarm(p *Problem, c *spCache, b *Basis) bool {
	s.initDual(p, c)
	// Statuses from the basis; a nonbasic-at-upper column with an infinite
	// upper bound under the new problem drops to its lower bound (same rule
	// as the dense warm build).
	for j := 0; j < s.nTot; j++ {
		s.slotOf[j] = -1
		switch b.Stat[j] {
		case BasisBasic:
			s.stat[j] = basic
			s.xval[j] = 0 // recomputeXB fills it
		case BasisAtUpper:
			if math.IsInf(s.hi[j], 1) {
				s.stat[j] = atLower
				s.xval[j] = s.lo[j]
			} else {
				s.stat[j] = atUpper
				s.xval[j] = s.hi[j]
			}
		default:
			s.stat[j] = atLower
			s.xval[j] = s.lo[j]
		}
	}
	for k, q := range b.Basic {
		if s.slotOf[q] >= 0 {
			return false
		}
		s.basic[k] = q
		s.slotOf[q] = int32(k)
	}
	return true
}

// initSlack prepares a cold solve from the dual simplex in the slack basis.
// Its duals are zero, so a structural's reduced cost is its cost, and each
// structural rests at the bound that sign makes dual feasible: the upper
// one for a negative cost when it is finite, the lower one otherwise. A
// negative cost with no upper bound leaves the basis dual infeasible, which
// dualFeasible reports.
func (s *spSolver) initSlack(p *Problem, c *spCache) {
	s.initDual(p, c)
	for j := 0; j < s.nStr; j++ {
		s.slotOf[j] = -1
		if s.cost[j] < 0 && !math.IsInf(s.hi[j], 1) {
			s.stat[j], s.xval[j] = atUpper, s.hi[j]
		} else {
			s.stat[j], s.xval[j] = atLower, s.lo[j]
		}
	}
	for i := 0; i < s.m; i++ {
		s.setBasic(i, s.nStr+i, 0) // recomputeXB fills it
	}
}

// setPhase2Cost installs the (scaled) real objective.
func (s *spSolver) setPhase2Cost(p *Problem) {
	for j := 0; j < s.nStr; j++ {
		s.cost[j] = p.Cost[j] * s.c.colScale[j]
	}
	for j := s.nStr; j < s.nTot; j++ {
		s.cost[j] = 0
	}
	s.noteCostCols()
}

// objective is Σ cost·xval over every column, in scaled space.
func (s *spSolver) objective() float64 {
	return dot(s.cost, s.xval)
}

func (s *spSolver) phaseObjective() float64 {
	var sum float64
	for j := s.nStr + s.m; j < s.nTot; j++ {
		sum += s.xval[j]
	}
	return sum
}

// pinArtificials fixes every artificial at zero so phase 2 cannot move it;
// basic artificials at value zero stay as harmless degenerate members.
func (s *spSolver) pinArtificials() {
	for j := s.nStr + s.m; j < s.nTot; j++ {
		s.lo[j], s.hi[j] = 0, 0
		if s.stat[j] != basic {
			s.xval[j] = 0
			s.stat[j] = atLower
		}
	}
}

// price selects an entering column and direction by Dantzig pricing over
// freshly BTRANned duals (the revised simplex reprices every iteration
// instead of carrying an updated reduced-cost row). Returns q = -1 at
// optimality; under Bland's rule it returns the first improving column. It
// looks only at the columns costRow returns, in ascending order: any other
// has d_j = 0 − 0 and cannot improve.
func (s *spSolver) price(bland bool) (int, float64) {
	best := costTol
	q := -1
	dir := 1.0
	for _, j32 := range s.costRow() {
		j := int(j32)
		if s.stat[j] == basic || s.hi[j]-s.lo[j] < feasTol {
			continue // basic or fixed
		}
		dj := s.cost[j] - s.arow[j]
		var improve, dr float64
		if s.stat[j] == atLower {
			improve = -dj // want d<0
			dr = 1
		} else {
			improve = dj // want d>0
			dr = -1
		}
		if improve > best {
			if bland {
				return j, dr
			}
			best = improve
			q, dir = j, dr
		}
	}
	return q, dir
}

// stopped reports whether the caller's stop flag is set, reading it only on
// every stopPollIters-th iteration.
func (s *spSolver) stopped() bool {
	return s.iters&(stopPollIters-1) == 0 && s.stop != nil && s.stop.Load()
}

// primal iterates the bounded primal simplex to optimality for the current
// phase objective, mirroring the dense run(): Dantzig pricing with a Bland
// fallback after a long degenerate streak.
func (s *spSolver) primal() Status {
	degenerate := 0
	for {
		if s.iters >= s.cap || s.stopped() {
			return IterLimit
		}
		bland := degenerate > 2*(s.m+10)
		q, dir := s.price(bland)
		if q < 0 {
			return Optimal
		}
		s.iters++
		if bland {
			s.blandPivots++
		}
		step, st := s.step(q, dir)
		if s.fail || st == Unbounded {
			return st
		}
		if step < feasTol {
			degenerate++
			s.degenPivots++
		} else {
			degenerate = 0
		}
	}
}

// step runs the Harris two-pass ratio test for entering column q moving in
// direction dir, then flips q to its opposite bound or pivots, updating the
// basis factorization (eta push or refactorization).
//
// Pass 1 finds the largest step under bounds relaxed by harrisDelta; pass 2
// picks, among the rows whose exact ratio fits under that relaxed step, the
// one with the largest pivot magnitude. Degenerate vertices usually offer
// several near-zero ratios, and the classic test's smallest-ratio rule is
// forced to take whichever pivot that row happens to have; paying up to
// harrisDelta of bound violation buys the numerically best pivot instead.
//
// Both passes, the update of the basics and the eta walk alpha's support,
// in ascending slot order: a slot outside it has alpha_i = 0, which no pass
// acts on.
func (s *spSolver) step(q int, dir float64) (float64, Status) {
	sup := s.ftranColumn(q)
	own := s.hi[q] - s.lo[q] // may be +Inf

	// Pass 1: relaxed limits.
	theta := own
	for _, i := range sup {
		a := dir * s.alpha[i] // xB_i decreases at rate a
		b := s.basic[i]
		var lim float64
		if a > pivTol {
			lim = (s.xval[b] - s.lo[b] + harrisDelta) / a
		} else if a < -pivTol {
			if math.IsInf(s.hi[b], 1) {
				continue
			}
			lim = (s.hi[b] - s.xval[b] + harrisDelta) / (-a)
		} else {
			continue
		}
		if lim < theta {
			theta = lim
		}
	}
	if math.IsInf(theta, 1) {
		return 0, Unbounded
	}
	if theta < 0 {
		theta = 0
	}

	// Pass 2: biggest pivot whose exact ratio fits under theta. The row
	// that defined theta always qualifies (its exact ratio is theta minus
	// its share of the relaxation), so leave is found whenever theta < own.
	leave := -1
	leaveAtUpper := false
	pivAbs := 0.0
	step := own
	if theta < own {
		for _, i := range sup {
			a := dir * s.alpha[i]
			b := s.basic[i]
			var lim float64
			var up bool
			if a > pivTol {
				lim = (s.xval[b] - s.lo[b]) / a
			} else if a < -pivTol {
				if math.IsInf(s.hi[b], 1) {
					continue
				}
				lim = (s.hi[b] - s.xval[b]) / (-a)
				up = true
			} else {
				continue
			}
			if lim < 0 {
				lim = 0
			}
			if lim <= theta {
				if ab := math.Abs(s.alpha[i]); ab > pivAbs {
					leave, pivAbs, step, leaveAtUpper = int(i), ab, lim, up
				}
			}
		}
	}

	// Move the basics and the entering variable.
	if step > 0 {
		for _, i := range sup {
			a := dir * s.alpha[i]
			if a != 0 {
				s.xval[s.basic[i]] -= step * a
			}
		}
		s.xval[q] += dir * step
	}

	if leave < 0 {
		// Bound flip: q travels to its opposite bound; basis unchanged.
		if dir > 0 {
			s.stat[q] = atUpper
			s.xval[q] = s.hi[q]
		} else {
			s.stat[q] = atLower
			s.xval[q] = s.lo[q]
		}
		return step, Optimal
	}

	// Pivot: q becomes basic in slot leave; the old basic leaves at the
	// bound it hit.
	out := int(s.basic[leave])
	if leaveAtUpper {
		s.stat[out] = atUpper
		s.xval[out] = s.hi[out]
	} else {
		s.stat[out] = atLower
		s.xval[out] = s.lo[out]
	}
	s.slotOf[out] = -1
	s.basic[leave] = int32(q)
	s.slotOf[q] = int32(leave)
	s.stat[q] = basic

	if s.fac.needRefactor(pivAbs) {
		if !s.refactor() {
			s.fail = true
			return step, IterLimit
		}
	} else {
		s.fac.pushEta(s.alpha, sup, leave)
	}
	return step, Optimal
}

// recomputeD refreshes the full reduced-cost vector from a BTRAN of the
// basic costs (dual path bookkeeping; the primal path reprices inline). It
// runs on fresh factors only — a warm start's or refactorDual's — so it
// keeps the result, with the costs it came from, for startD.
func (s *spSolver) recomputeD() {
	s.costRow()
	for j := 0; j < s.nTot; j++ {
		if s.stat[j] == basic {
			s.d[j] = 0
		} else {
			s.d[j] = s.cost[j] - s.arow[j]
		}
	}
	s.dKeep = append(s.dKeep[:0], s.d...)
	s.dCost = append(s.dCost[:0], s.cost...)
	s.dKept = true
}

// startD gives a warm start its reduced costs, after startFactors: the
// ones kept from these factors when the scaled costs they came from are
// unchanged (they depend on nothing else: the basis is the factors', and a
// nonbasic column's reduced cost ignores its bound), else recomputed. Costs
// are never NaN, and a cost zero that changed sign can flip only the sign of
// a zero reduced cost, which no comparison or value downstream depends on.
func (s *spSolver) startD() {
	if s.dKept && slices.Equal(s.dCost, s.cost) {
		copy(s.d, s.dKeep)
		return
	}
	s.recomputeD()
}

// dualFeasible reports whether s.d is consistent with every nonbasic
// column's bound status (the dual-simplex precondition); fixed columns are
// exempt. Mirrors the dense check.
func (s *spSolver) dualFeasible() bool {
	for j := 0; j < s.nTot; j++ {
		if s.hi[j]-s.lo[j] < feasTol {
			continue
		}
		switch s.stat[j] {
		case atLower:
			if s.d[j] < -dualFeasTol {
				return false
			}
		case atUpper:
			if s.d[j] > dualFeasTol {
				return false
			}
		}
	}
	return true
}

// dual runs the bounded-variable dual simplex: drive the most-violating
// basic variable to the bound it violates, entering by the dual ratio test
// (minimum |d_j/a_rj| over sign-eligible columns, ties toward the larger
// pivot — the same rule as the dense referee). The pivot row comes from a
// BTRAN of e_r; the reduced costs update incrementally from it.
//
// With an objective limit set (s.objLimit finite) the loop also carries the
// objective of the current basis, Δ = d_q·dx per pivot. Every basis here is
// dual-feasible, so that value bounds the optimum from below, and once it
// passes the limit — confirmed by a from-scratch sum, since the carried one
// drifts — the solve stops: the caller asked only whether the optimum can
// stay under the limit.
//
// A dual-degenerate pivot (|d_q| < costTol) leaves the objective where it
// is, and the ratio test's tie-breaking can cycle through such pivots up to
// the iteration cap. After primal()'s streak length of them in a row the
// start is given up, counted as lp.dual_stalls: stalled makes runDual give
// way, a warm start to a cold solve and a cold one to the two-phase primal.
func (s *spSolver) dual() Status {
	limited := !math.IsInf(s.objLimit, 1)
	if limited {
		s.dobj = s.objective()
	}
	s.rebuildInfeas()
	stalled := 0
	for {
		if limited && s.dobj > s.objLimit {
			if s.dobj = s.objective(); s.dobj > s.objLimit {
				return ObjLimit
			}
		}
		if s.iters >= s.cap || s.stopped() {
			return IterLimit
		}

		r, below := s.leavingRow()
		if r < 0 {
			return Optimal
		}
		out := int(s.basic[r])

		// Pivot row: arow_j = (B⁻ᵀe_r)·A_j, for every column (basic columns
		// included — arow_out ≈ 1 feeds the incremental d update below). The
		// ratio test and that update walk its support, ascending: a column
		// outside it has arow_j = 0, which neither acts on.
		s.cbuf[r] = 1
		s.cslots[0] = int32(r)
		cols := s.yTimesA(s.fac.btran(s.cbuf, s.cslots[:1], s.y), nil)

		q := -1
		best := math.Inf(1)
		bestAbs := 0.0
		for _, j32 := range cols {
			j := int(j32)
			a := s.arow[j]
			if s.stat[j] == basic || s.hi[j]-s.lo[j] < feasTol {
				continue
			}
			var ok bool
			if below {
				ok = (s.stat[j] == atLower && a < -pivTol) || (s.stat[j] == atUpper && a > pivTol)
			} else {
				ok = (s.stat[j] == atLower && a > pivTol) || (s.stat[j] == atUpper && a < -pivTol)
			}
			if !ok {
				continue
			}
			abs := math.Abs(a)
			ratio := math.Abs(s.d[j]) / abs
			if ratio < best-pivTol || (ratio < best+pivTol && abs > bestAbs) {
				best, q, bestAbs = ratio, j, abs
			}
		}
		if q < 0 {
			return Infeasible
		}

		// FTRAN the entering column; its slot-r entry is the pivot. If the
		// eta chain has drifted far enough that FTRAN and BTRAN disagree on
		// the pivot, rebuild and retry the iteration from fresh factors —
		// which costs one unit of the iteration budget, and is no use when
		// the factors already are fresh: the retry would pick the same (r, q)
		// and disagree again, for ever. Then the basis is too ill-conditioned
		// to price from and the cold path takes over.
		sup := s.ftranColumn(q)
		piv := s.alpha[r]
		if math.Abs(piv) < pivTol {
			if s.fac.nEtas() == 0 || !s.refactorDual() {
				s.fail = true
				return IterLimit
			}
			s.cap--
			continue
		}

		if math.Abs(s.d[q]) >= costTol {
			stalled = 0
		} else if stalled++; stalled > 2*(s.m+10) {
			cDualStalls.Inc()
			s.fail, s.stalled = true, true
			return IterLimit
		}

		s.iters++
		s.dualIters++

		// Pivot: the leaving variable lands exactly on the violated bound;
		// the entering variable moves off its bound by dx.
		beta := s.lo[out]
		if !below {
			beta = s.hi[out]
		}
		dx := (s.xval[out] - beta) / piv
		s.dobj += s.d[q] * dx
		for _, i := range sup {
			if int(i) == r {
				continue
			}
			if a := s.alpha[i]; a != 0 {
				s.xval[s.basic[i]] -= a * dx
			}
		}
		s.xval[q] += dx
		s.xval[out] = beta
		if below {
			s.stat[out] = atLower
		} else {
			s.stat[out] = atUpper
		}
		s.slotOf[out] = -1
		s.basic[r] = int32(q)
		s.slotOf[q] = int32(r)
		s.stat[q] = basic
		if math.Abs(dx) < feasTol {
			s.degenPivots++
		}

		// Incremental dual update d'_j = d_j − (d_q/arow_q)·arow_j. The
		// uniform pass also lands d_out = −d_q/arow_q because arow_out ≈ 1
		// and every other basic column has arow ≈ 0.
		f := s.d[q] / s.arow[q]
		if f != 0 {
			for _, j := range cols {
				if a := s.arow[j]; a != 0 {
					s.d[j] -= f * a
				}
			}
		}
		s.d[q] = 0

		if s.fac.needRefactor(math.Abs(piv)) {
			if !s.refactorDual() {
				s.fail = true
				return IterLimit
			}
		} else {
			s.fac.pushEta(s.alpha, sup, r)
			s.retestInfeas(sup, r)
		}
	}
}

// refactorDual is refactor for the dual phase: fresh factors and basic
// values, then everything the loop carries incrementally — the reduced
// costs, the objective and the infeasible set — recomputed from them.
func (s *spSolver) refactorDual() bool {
	if !s.refactor() {
		return false
	}
	s.recomputeD()
	s.dobj = s.objective()
	s.rebuildInfeas()
	return true
}

// violates reports whether slot i's basic lies more than feasTol outside
// its bounds: whether the dual may choose slot i to leave.
func (s *spSolver) violates(i int) bool {
	b := s.basic[i]
	return s.lo[b]-s.xval[b] > feasTol || s.xval[b]-s.hi[b] > feasTol
}

// violations counts the slots whose basic violates a bound.
func (s *spSolver) violations() int {
	n := 0
	for i := 0; i < s.m; i++ {
		if s.violates(i) {
			n++
		}
	}
	return n
}

// rebuildInfeas refills the infeasible set by a scan over every slot.
func (s *spSolver) rebuildInfeas() {
	clear(s.infeas)
	for i := 0; i < s.m; i++ {
		if s.violates(i) {
			s.infeas.set(int32(i))
		}
	}
}

// retestInfeas keeps the infeasible set after a pivot on slot r that
// pushed an eta (a refactorization rebuilds it instead): the basics that
// moved are those of alpha's support, and slot r holds a new one.
func (s *spSolver) retestInfeas(sup []int32, r int) {
	for _, i := range sup {
		if int(i) != r && s.alpha[i] != 0 && s.violates(int(i)) {
			s.infeas.set(i)
		}
	}
	if s.violates(r) {
		s.infeas.set(int32(r))
	}
}

// leavingRow picks the dual's leaving slot: the basic variable with the
// largest bound violation above feasTol, the first in slot order among
// equals; below reports that it violates its lower bound. It walks the
// infeasible set in ascending order with the tests a scan over every slot
// would apply (refLeavingRow, lu_ref_test.go) — a slot outside the set
// violates by no more than feasTol, which passes neither test — and drops
// the members it finds feasible. r is -1 when there is none.
//
// The chosen slot leaves the set too: its basic is about to leave the basis
// at the bound it violates. Every way out of the dual loop between here and
// the pivot either ends the phase or refactorizes, which rebuilds the set,
// and the pivot has retestInfeas judge the column that takes slot r.
func (s *spSolver) leavingRow() (r int, below bool) {
	r = -1
	viol := feasTol
	for w, word := range s.infeas {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			b := s.basic[i]
			lv, uv := s.lo[b]-s.xval[b], s.xval[b]-s.hi[b]
			if lv > viol {
				r, viol, below = i, lv, true
			}
			if uv > viol {
				r, viol, below = i, uv, false
			}
			if !(lv > feasTol) && !(uv > feasTol) {
				s.infeas.unset(int32(i))
			}
		}
	}
	if r >= 0 {
		s.infeas.unset(int32(r))
	}
	return r, below
}

// structX extracts structural values back into original units (undo the
// column scaling) and clamps to the original bounds, shedding both
// round-off and any residual Harris shift. It writes into x's storage when
// that holds nStr values.
func (s *spSolver) structX(p *Problem, x []float64) []float64 {
	if cap(x) < s.nStr {
		x = make([]float64, s.nStr)
	}
	x = x[:s.nStr]
	for j := 0; j < s.nStr; j++ {
		v := s.xval[j] * s.c.colScale[j]
		if v < p.Lo[j] {
			v = p.Lo[j]
		}
		if v > p.Hi[j] {
			v = p.Hi[j]
		}
		x[j] = v
	}
	return x
}

// exportBasis mirrors the dense exportBasis: nil when an artificial is
// still basic, otherwise the statuses over structural+slack columns,
// written into a recycled Basis when the cache holds one.
func (s *spSolver) exportBasis() *Basis {
	n := s.nStr + s.m
	for k := 0; k < s.m; k++ {
		if int(s.basic[k]) >= n {
			return nil
		}
	}
	b := s.c.takeBasis()
	b.Basic = append(b.Basic[:0], s.basic[:s.m]...)
	b.Stat = resize(&b.Stat, n)
	for j := 0; j < n; j++ {
		switch s.stat[j] {
		case basic:
			b.Stat[j] = BasisBasic
		case atUpper:
			b.Stat[j] = BasisAtUpper
		default:
			b.Stat[j] = BasisAtLower
		}
	}
	return b
}

// finish assembles the Solution for the current state, into a recycled one
// when the cache holds one.
func (s *spSolver) finish(p *Problem, st Status, phase1Iters int, warm bool) *Solution {
	sol := s.c.takeSolution()
	*sol = Solution{
		Status:           st,
		X:                s.structX(p, sol.X),
		Iters:            s.iters,
		Phase1Iters:      phase1Iters,
		DegeneratePivots: s.degenPivots,
		BlandPivots:      s.blandPivots,
		WarmStarted:      warm,
		DualIters:        s.dualIters,
	}
	switch st {
	case Optimal:
		sol.Objective = dot(p.Cost, sol.X)
		sol.Basis = s.exportBasis()
	case ObjLimit:
		sol.Objective = s.dobj
	}
	return sol
}

// solveSparse runs the two-phase revised simplex on p, whose lowering is
// c (Problem.prepare). ok = false reports a numerical catastrophe — a basis
// that would not factorize — which Solve turns into status NumericalFailure.
func solveSparse(p *Problem, c *spCache, opt *Options) (*Solution, bool) {
	s := &c.s
	s.initCold(p, c)
	if opt != nil && opt.MaxIters > 0 {
		s.cap = opt.MaxIters
	}
	if opt != nil {
		s.stop = opt.Stop
	}
	if !s.factorize(luPivotFloor) {
		return nil, false // cannot happen for a slack/artificial basis; belt and braces
	}

	// Phase 1: minimize the sum of artificial variables.
	phase1Iters := 0
	if s.nArt > 0 {
		st := s.primal()
		if s.fail {
			return nil, false
		}
		phase1Iters = s.iters
		if st == IterLimit {
			return s.finish(p, IterLimit, phase1Iters, false), true
		}
		if s.phaseObjective() > 1e-6 {
			return s.finish(p, Infeasible, phase1Iters, false), true
		}
		s.pinArtificials()
	}

	// Phase 2: minimize the real objective.
	s.setPhase2Cost(p)
	st := s.primal()
	if s.fail {
		return nil, false
	}
	return s.finish(p, st, phase1Iters, false), true
}

// dualStart is how a start from the dual simplex ended: it finished the
// solve, or the reason it gave way to another path.
type dualStart int8

const (
	dualStarted     dualStart = iota
	notDualFeasible           // the starting basis's reduced costs have a wrong sign
	tooInfeasible             // too many of the slack basis's rows start out of bounds
	dualStalled               // a dual-degenerate streak (lp.dual_stalls)
	basisSingular             // the basis would not factorize, at the start or mid-flight
)

// solveFromSparse re-optimizes p, whose lowering is c, from an inherited
// basis on the sparse core. ok = false requests the cold fallback: the basis
// names a column twice, or the dual start gave way.
func solveFromSparse(p *Problem, c *spCache, b *Basis, opt *Options) (*Solution, bool) {
	s := &c.s
	if !s.initWarm(p, c, b) {
		return nil, false
	}
	if opt != nil && opt.UseObjLimit {
		s.objLimit = opt.ObjLimit
	}
	if s.startDual(opt) != dualStarted {
		return nil, false
	}
	sol, why := s.runDual(p, true)
	return sol, why == dualStarted
}

// solveDualCold is a cold solve of p, whose lowering is c, from the dual
// simplex in the slack basis: no phase 1 and no artificials, since the
// dual drives each infeasible slack out of the basis itself. It ignores
// Options.ObjLimit, as every cold solve does.
//
// It gives way when more than maxViolated of the slack basis's rows start
// out of bounds. The dual needs at least one pivot per such row, while the
// two-phase primal takes 0.7–5 per row in all on the LPs measured, so
// Solve passes half the rows: past that the dual has little room to win.
// On the generated LPs of bench_test.go, with 70–87% of their rows
// violated, it took 1.2 to 61 pivots per row; the benchmark models' large
// LPs start with 28–35% violated (DESIGN.md §2.13).
func solveDualCold(p *Problem, c *spCache, opt *Options, maxViolated int) (*Solution, dualStart) {
	s := &c.s
	s.initSlack(p, c)
	if why := s.startDual(opt); why != dualStarted {
		return nil, why
	}
	if s.violations() > maxViolated {
		return nil, tooInfeasible
	}
	return s.runDual(p, false)
}

// startDual readies a start from the dual simplex in the basis initWarm or
// initSlack installed: the caller's iteration cap and stop flag, and the
// basis's factors, basic values and reduced costs. It reports why the start
// must give way instead, if it must: the basis would not factorize at
// warmPivTol, or is not dual feasible beyond dualFeasTol.
func (s *spSolver) startDual(opt *Options) dualStart {
	if opt != nil && opt.MaxIters > 0 {
		s.cap = opt.MaxIters
	}
	if opt != nil {
		s.stop = opt.Stop
	}
	if !s.startFactors() {
		return basisSingular
	}
	s.recomputeXB()
	s.startD()
	if !s.dualFeasible() {
		return notDualFeasible
	}
	return dualStarted
}

// runDual runs a start that startDual readied: the dual phase, then the
// primal phase, which normally confirms optimality in zero iterations and
// only pivots to clean up tolerance-level drift. It returns the solution,
// or why the start gave way: it stalled or collapsed numerically.
func (s *spSolver) runDual(p *Problem, warm bool) (*Solution, dualStart) {
	st := s.dual()
	if st == Optimal {
		st = s.primal()
	}
	if s.stalled {
		return nil, dualStalled
	}
	if s.fail {
		return nil, basisSingular
	}
	sol := s.finish(p, st, 0, warm)
	sol.DualCold = !warm
	return sol, dualStarted
}
