package lp

// Sparse LU machinery for the revised simplex basis (see sparse.go for the
// solver that drives it).
//
// The basis matrix B (one column per basic variable, in slot order) is held
// as PBQ = LU from the last refactorization — a left-looking Doolittle
// factorization with partial pivoting (P) over a static triangular column
// order (Q, see spSolver.orderSteps) — plus a product-form eta file, one
// eta per basis change since. FTRAN solves Bx = b and BTRAN solves Bᵀy = c
// against that representation; both run in O(nnz(L)+nnz(U)+nnz(etas)).
//
// Indexing convention, because three index spaces meet here: constraint
// rows are "original rows" (0..m-1), basis positions are "slots" (0..m-1),
// and elimination order is "steps" (0..m-1). prow maps step → original row
// and slot maps step → slot; L entries address original rows; U entries
// address earlier steps; eta entries address slots. FTRAN takes an
// original-row-indexed vector and returns a slot-indexed one; BTRAN takes
// slot-indexed and returns original-row-indexed. Mixing these up is the
// classic revised-simplex bug, so every method below states which space
// each argument lives in.

import "math"

// Factor-update policy knobs. The eta file is cheap per pivot but its error
// compounds multiplicatively, so both the chain length and an accumulated
// growth proxy trigger a fresh factorization (see spSolver.refactor).
const (
	maxEta       = 40    // refactorize after this many eta updates
	etaPivFloor  = 1e-7  // eta pivot below this → refactorize instead of update
	growthTol    = 1e8   // accumulated eta growth proxy beyond this → refactorize
	luDropTol    = 1e-13 // magnitudes below this are treated as exact zeros
	luPivotFloor = 1e-10 // partial-pivoting floor for mid-solve refactorization
)

// luFactor is the LU-plus-eta representation of the current basis.
type luFactor struct {
	m int

	// LU of the basis at the last (re)factorization. L is unit lower
	// triangular in step order: step t's multipliers live in
	// lrow/lval[lptr[t]:lptr[t+1]], addressing original rows. U is upper
	// triangular, stored by column: step k's above-diagonal entries live in
	// urow/uval[uptr[k]:uptr[k+1]], addressing earlier steps, with the
	// diagonal split into diag[k].
	prow []int32 // step → original row chosen as pivot at that step
	slot []int32 // step → basis slot whose column that step factored
	lptr []int32
	lrow []int32
	lval []float64
	uptr []int32
	urow []int32
	uval []float64
	diag []float64

	// Row-wise companions for BTRAN, built by finish once all m columns are
	// factored: U by row (step t's entries right of the diagonal live in
	// utcol/utval[utptr[t]:utptr[t+1]], addressing later steps in ascending
	// order) and the pattern of L by original row (ltstep[ltptr[r]:
	// ltptr[r+1]] lists the steps whose L column holds row r). lneed is the
	// Lᵀ pass's pending-step marks, all false between solves.
	utptr  []int32
	utcol  []int32
	utval  []float64
	ltptr  []int32
	ltstep []int32
	lneed  []bool

	// Product-form eta file: eta e (in push order) replaces basis slot
	// epiv[e] with the FTRANned entering column alpha; its off-pivot
	// entries live in eslot/eval[eptr[e]:eptr[e+1]] (slot-indexed) with the
	// pivot value split into epval[e]. growth is the running product of
	// max(1, max|alpha_i| / |alpha_r|) — a cheap proxy for how much error
	// the chain can amplify.
	eptr   []int32
	eslot  []int32
	eval   []float64
	epiv   []int32
	epval  []float64
	growth float64

	basisNnz int // nonzeros of B at the last factorization (fill gauge)

	// Factorization scratch: w is a dense working column over original
	// rows, valid where wmark equals the current generation stamp; touch
	// lists the rows marked this generation. pstep is the inverse of prow
	// (original row → step, -1 while unpivoted). reach is a binary min-heap
	// of the earlier steps the column being factored must be eliminated
	// against (see factorColumn). bucket is the counting sort's histogram
	// (spSolver.orderSteps). Between factorizations btran borrows w as its
	// step-indexed Uᵀ vector; the stamps keep factorColumn from reading it.
	// unitSteps is how many leading steps spSolver.factorize's unit-column
	// fast path took (their rows skip the heap, see spSolver.loadColumn), and
	// reachPops counts the heap pops of one factorization, for the tests.
	unitSteps int32
	reachPops int
	pstep     []int32
	w         []float64
	wmark     []int32
	wgen      int32
	touch     []int32
	reach     []int32
	bucket    []int32
}

// reset prepares the factor for a fresh factorization of an m×m basis,
// growing (never shrinking) its storage and emptying the eta file.
func (f *luFactor) reset(m int) {
	f.m = m
	if cap(f.prow) < m {
		f.prow = make([]int32, m)
		f.slot = make([]int32, m)
		f.pstep = make([]int32, m)
		f.diag = make([]float64, m)
		f.w = make([]float64, m)
		f.wmark = make([]int32, m)
		f.lneed = make([]bool, m)
	}
	if cap(f.lptr) < m+1 {
		f.lptr = make([]int32, m+1)
		f.uptr = make([]int32, m+1)
		f.bucket = make([]int32, m+1)
	}
	f.prow = f.prow[:m]
	f.slot = f.slot[:m]
	f.pstep = f.pstep[:m]
	f.diag = f.diag[:m]
	f.w = f.w[:m]
	f.wmark = f.wmark[:m]
	f.lneed = f.lneed[:m]
	f.lptr = f.lptr[:m+1]
	f.uptr = f.uptr[:m+1]
	f.bucket = f.bucket[:m+1]
	for i := 0; i < m; i++ {
		f.pstep[i] = -1
	}
	f.lrow = f.lrow[:0]
	f.lval = f.lval[:0]
	f.urow = f.urow[:0]
	f.uval = f.uval[:0]
	f.lptr[0] = 0
	f.uptr[0] = 0
	f.clearEtas()
	f.basisNnz = 0
	f.unitSteps, f.reachPops = 0, 0
	// Generation stamps avoid an O(m) clear per column; guard the (absurdly
	// remote) int32 wraparound by resetting the stamps outright.
	if f.wgen > math.MaxInt32-int32(2*m+4) {
		for i := range f.wmark {
			f.wmark[i] = 0
		}
		f.wgen = 0
	}
}

func (f *luFactor) clearEtas() {
	f.eptr = f.eptr[:0]
	f.eslot = f.eslot[:0]
	f.eval = f.eval[:0]
	f.epiv = f.epiv[:0]
	f.epval = f.epval[:0]
	f.growth = 1
}

func (f *luFactor) nEtas() int { return len(f.epiv) }

// fillPermille reports LU fill-in as nnz(L+U) per 1000 nonzeros of the
// factored basis — 1000 means no fill at all.
func (f *luFactor) fillPermille() int64 {
	if f.basisNnz == 0 {
		return 0
	}
	nnz := len(f.lval) + len(f.uval) + f.m // + diagonal
	return int64(nnz) * 1000 / int64(f.basisNnz)
}

// setW scatters value v into working row r, stamping it live. A row stamped
// for the first time that an earlier step already pivoted on joins the
// elimination reach of the column being factored.
func (f *luFactor) setW(r int32, v float64) {
	if f.wmark[r] != f.wgen {
		f.wmark[r] = f.wgen
		f.touch = append(f.touch, r)
		f.w[r] = v
		if t := f.pstep[r]; t >= 0 {
			f.pushReach(t)
		}
		return
	}
	f.w[r] += v
}

// pushReach adds step t to the binary min-heap of pending elimination steps.
func (f *luFactor) pushReach(t int32) {
	h := append(f.reach, t)
	i := len(h) - 1
	for p := (i - 1) / 2; i > 0 && h[p] > t; p = (i - 1) / 2 {
		h[i], i = h[p], p
	}
	h[i] = t
	f.reach = h
}

// popReach removes and returns the smallest pending elimination step.
func (f *luFactor) popReach() int32 {
	h := f.reach
	top, n := h[0], len(h)-1
	t := h[n] // sifted down from the root over the n entries that remain
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if t <= h[c] {
			break
		}
		h[i], i = h[c], c
	}
	h[i] = t
	f.reach = h[:n]
	return top
}

// factorColumn runs one left-looking elimination step: the caller has
// scattered the basis column of slot[k] into w (via setW after
// beginColumn); this eliminates it against the earlier steps it reaches,
// selects a partial pivot among unpivoted rows, and appends the resulting L
// and U entries. It reports false when no pivot of magnitude > minPiv
// exists (numerically singular).
//
// Only steps whose pivot row is live in w can contribute, so instead of
// scanning 0..k-1 the steps are popped from the reach heap setW maintains.
// L column t addresses rows that were unpivoted at step t, so fill from
// step t only ever stamps rows pivoted at later steps: every push is above
// the step just popped, and popping ascending visits exactly the steps a
// full scan would, in the same order.
func (f *luFactor) factorColumn(k int, minPiv float64) bool {
	for len(f.reach) > 0 {
		t := f.popReach()
		f.reachPops++
		pf := f.w[f.prow[t]]
		if math.Abs(pf) <= luDropTol {
			continue
		}
		// u_{t,k} = pf; subtract pf · L-column t from w.
		f.urow = append(f.urow, t)
		f.uval = append(f.uval, pf)
		for e := f.lptr[t]; e < f.lptr[t+1]; e++ {
			f.setW(f.lrow[e], -f.lval[e]*pf)
		}
	}
	f.uptr[k+1] = int32(len(f.uval))

	// Partial pivot: the largest remaining magnitude among unpivoted rows.
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

	// L multipliers for the remaining rows.
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

// beginColumn starts scattering a new column into the working vector.
func (f *luFactor) beginColumn() {
	f.wgen++
	f.touch = f.touch[:0]
	f.reach = f.reach[:0]
}

// finish completes a factorization after the last factorColumn: it builds
// the row-wise copies of U and of L's pattern that btran runs on.
func (f *luFactor) finish() {
	f.utptr, f.utcol, f.utval = transposeCS(f.m, f.uptr, f.urow, f.uval, f.utptr, f.utcol, f.utval)
	f.ltptr, f.ltstep, _ = transposeCS(f.m, f.lptr, f.lrow, nil, f.ltptr, f.ltstep, nil)
}

// transposeCS transposes a compressed sparse matrix: the input has
// len(ptr)-1 lines, line l holding entries idx/val[ptr[l]:ptr[l+1]] that
// address 0..n-1; line i of the result lists, in ascending l, every l with
// an entry at i. The result is written over tptr/tidx/tval, reallocating
// only when they are too small; a nil val transposes the pattern alone.
func transposeCS(n int, ptr, idx []int32, val []float64, tptr, tidx []int32, tval []float64) ([]int32, []int32, []float64) {
	nnz := int(ptr[len(ptr)-1])
	if cap(tptr) < n+1 {
		tptr = make([]int32, n+1)
	}
	if cap(tidx) < nnz {
		tidx = make([]int32, nnz+nnz/4)
	}
	if val != nil {
		if cap(tval) < nnz {
			tval = make([]float64, nnz+nnz/4)
		}
		tval = tval[:nnz]
	}
	tptr, tidx = tptr[:n+1], tidx[:nnz]
	clear(tptr)
	for _, i := range idx[:nnz] {
		tptr[i+1]++
	}
	for i := 0; i < n; i++ {
		tptr[i+1] += tptr[i]
	}
	// Fill with tptr[i] as line i's cursor, which leaves every pointer one
	// line ahead; shift them back afterwards.
	for l := 0; l+1 < len(ptr); l++ {
		for e := ptr[l]; e < ptr[l+1]; e++ {
			d := tptr[idx[e]]
			tptr[idx[e]]++
			tidx[d] = int32(l)
			if val != nil {
				tval[d] = val[e]
			}
		}
	}
	copy(tptr[1:], tptr[:n])
	tptr[0] = 0
	return tptr, tidx, tval
}

// ftran solves B·out = x. x is original-row-indexed and is consumed as
// scratch; out is slot-indexed. Both must have length m.
func (f *luFactor) ftran(x, out []float64) {
	m := f.m
	// Forward elimination by L, in step order, in place on x.
	for t := 0; t < m; t++ {
		pf := x[f.prow[t]]
		if pf == 0 {
			continue
		}
		for e := f.lptr[t]; e < f.lptr[t+1]; e++ {
			x[f.lrow[e]] -= f.lval[e] * pf
		}
	}
	// Back substitution by U, column-oriented; step k's component is the
	// value of the slot whose column it factored.
	for k := m - 1; k >= 0; k-- {
		xk := x[f.prow[k]]
		if xk != 0 {
			xk /= f.diag[k]
			for e := f.uptr[k]; e < f.uptr[k+1]; e++ {
				x[f.prow[f.urow[e]]] -= f.uval[e] * xk
			}
		}
		out[f.slot[k]] = xk
	}
	// Eta file, oldest first: each eta maps slot r's value through its
	// pivot and folds the off-pivot entries into the other slots.
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

// btran solves Bᵀ·y = c. c is slot-indexed and is consumed as scratch; y is
// original-row-indexed. Both must have length m.
func (f *luFactor) btran(c, y []float64) {
	m := f.m
	// Eta file transposed, newest first.
	for e := len(f.epiv) - 1; e >= 0; e-- {
		r := f.epiv[e]
		sum := 0.0
		for t := f.eptr[e]; t < f.eptr[e+1]; t++ {
			sum += f.eval[t] * c[f.eslot[t]]
		}
		c[r] = (c[r] - sum) / f.epval[e]
	}
	// U's entries address steps, so gather c from slot into step order.
	cs := f.w
	for t, k := range f.slot {
		cs[t] = c[k]
	}
	// Uᵀ forward substitution in step order, row-wise: once cs[t] is final
	// it is subtracted from the later steps of U's row t, so every component
	// receives its terms in ascending t — the order a dot product down U's
	// column would use — and a zero cs[t] costs nothing. The finished value
	// lands in original-row space on the way out.
	for t := 0; t < m; t++ {
		v := cs[t]
		if v != 0 {
			v /= f.diag[t]
			for e := f.utptr[t]; e < f.utptr[t+1]; e++ {
				cs[f.utcol[e]] -= f.utval[e] * v
			}
		}
		y[f.prow[t]] = v
	}
	// Lᵀ backward substitution. Component t is y_t − Σ l·y over L column t
	// in storage order; a scatter would reorder those terms, so the dot
	// product stays and is merely skipped when every y it would read is
	// zero: a step is marked only once a nonzero lands on a row its column
	// holds. Every mark is consumed further down this loop.
	for t := m - 1; t >= 0; t-- {
		r := f.prow[t]
		if f.lneed[t] {
			f.lneed[t] = false
			sum := y[r]
			for e := f.lptr[t]; e < f.lptr[t+1]; e++ {
				sum -= f.lval[e] * y[f.lrow[e]]
			}
			y[r] = sum
		}
		if y[r] != 0 {
			for e := f.ltptr[r]; e < f.ltptr[r+1]; e++ {
				f.lneed[f.ltstep[e]] = true
			}
		}
	}
}

// pushEta appends a product-form eta replacing basis slot r with the
// FTRANned entering column alpha (slot-indexed, length m), and folds its
// off-pivot/pivot magnitude ratio into the growth proxy. The caller has
// already checked |alpha[r]| against etaPivFloor.
func (f *luFactor) pushEta(alpha []float64, r int) {
	pv := alpha[r]
	maxab := 0.0
	for i, v := range alpha {
		if i == r {
			continue
		}
		if a := math.Abs(v); a > luDropTol {
			f.eslot = append(f.eslot, int32(i))
			f.eval = append(f.eval, v)
			if a > maxab {
				maxab = a
			}
		}
	}
	if len(f.eptr) == 0 {
		f.eptr = append(f.eptr, 0)
	}
	f.eptr = append(f.eptr, int32(len(f.eval)))
	f.epiv = append(f.epiv, int32(r))
	f.epval = append(f.epval, pv)
	if g := maxab / math.Abs(pv); g > 1 {
		f.growth *= g
	}
}

// needRefactor reports whether the eta chain should be rebuilt into a fresh
// LU before (pivotAbs is the would-be eta pivot magnitude).
func (f *luFactor) needRefactor(pivotAbs float64) bool {
	return len(f.epiv) >= maxEta || pivotAbs < etaPivFloor || f.growth > growthTol
}
