package lp

// The dense-tableau referee. This was the original solver core; the sparse
// revised simplex (sparse.go, lu.go) replaced it, and it lives on here, on
// the test side only, as the ground truth the sparse core is held to: the
// equivalence tests call solveDense / solveFromDense directly, and no binary
// links it. Its pivot rules —
// Dantzig pricing with a Bland fallback, the bounded-variable ratio test,
// the dual ratio test on the warm path — define the behavior the sparse
// core reproduces, so changes here change what the referee checks.

import "math"

// tableau is the dense working state of the simplex.
type tableau struct {
	m, n  int         // constraint rows; total columns (struct+slack+artificial)
	nStr  int         // structural variables
	rows  [][]float64 // m rows × n cols: B⁻¹·A
	d     []float64   // reduced costs, length n
	cost  []float64   // current phase objective, length n
	lo    []float64
	hi    []float64
	stat  []vstat
	xval  []float64 // current value of every variable
	bvar  []int     // basic variable per row
	brow  []int     // row of a basic variable, -1 otherwise
	iters int
	cap   int // iteration cap

	degenPivots int // cumulative near-zero-step pivots (both phases)
	blandPivots int // cumulative pivots priced under Bland's rule
	dualIters   int // dual-simplex pivots (warm-start path only)
}

// telemetry copies the tableau's pivot accounting into a solution.
func (t *tableau) telemetry(sol *Solution, phase1Iters int) *Solution {
	sol.Phase1Iters = phase1Iters
	sol.DegeneratePivots = t.degenPivots
	sol.BlandPivots = t.blandPivots
	return sol
}

// solveDense runs the two-phase bounded simplex on p (already validated).
func solveDense(p *Problem, opt *Options) *Solution {
	t, nArt := build(p)
	if opt != nil && opt.maxIters > 0 {
		t.cap = opt.maxIters
	}

	// Phase 1: minimize the sum of artificial variables.
	phase1Iters := 0
	if nArt > 0 {
		st := t.run()
		phase1Iters = t.iters
		if st == IterLimit {
			return t.telemetry(&Solution{Status: IterLimit, X: t.structX(p), Iters: t.iters}, phase1Iters)
		}
		if t.phaseObjective() > 1e-6 {
			return t.telemetry(&Solution{Status: Infeasible, X: t.structX(p), Iters: t.iters}, phase1Iters)
		}
		t.pinArtificials(p)
	}

	// Phase 2: minimize the real objective.
	t.setCost(p)
	st := t.run()
	sol := t.telemetry(&Solution{Status: st, X: t.structX(p), Iters: t.iters}, phase1Iters)
	if st == Optimal {
		sol.Objective = dot(p.Cost, sol.X)
		sol.Basis = t.exportBasis()
	}
	return sol
}

// solveFromDense re-optimizes p from an inherited basis on the dense core.
// ok = false requests the cold fallback (singular or dual-infeasible basis);
// the caller handles counters and recording.
func solveFromDense(p *Problem, b *Basis, opt *Options) (*Solution, bool) {
	t, ok := buildWarm(p, b)
	if !ok {
		return nil, false
	}
	if opt != nil && opt.maxIters > 0 {
		t.cap = opt.maxIters
	}
	if !t.dualFeasible() {
		return nil, false
	}

	st := t.dualSimplex()
	if st == Optimal {
		// The dual phase left a primal- and dual-feasible point; the primal
		// phase normally confirms optimality in zero iterations and only
		// pivots to clean up tolerance-level drift.
		st = t.run()
	}
	sol := t.telemetry(&Solution{Status: st, X: t.structX(p), Iters: t.iters}, 0)
	sol.WarmStarted = true
	sol.DualIters = t.dualIters
	if st == Optimal {
		sol.Objective = dot(p.Cost, sol.X)
		sol.Basis = t.exportBasis()
	}
	return sol, true
}

// build assembles the initial tableau: structural variables at their lower
// bounds, slack per row, artificials where the slack alone cannot supply a
// feasible basic value. GE rows are negated into LE form first.
func build(p *Problem) (*tableau, int) {
	m := len(p.Rows)
	nStr := p.NumVars

	// Residual of each row at the initial point (all structurals at Lo).
	resid := make([]float64, m)
	sign := make([]float64, m) // +1 keep, -1 negated (GE)
	for i, r := range p.Rows {
		s := 1.0
		if r.Rel == GE {
			s = -1
		}
		sign[i] = s
		acc := s * r.RHS
		for k, j := range r.Idx {
			acc -= s * r.Coef[k] * p.Lo[j]
		}
		resid[i] = acc
	}

	// Decide artificials.
	needArt := make([]bool, m)
	nArt := 0
	for i, r := range p.Rows {
		switch {
		case r.Rel == EQ && math.Abs(resid[i]) > feasTol:
			needArt[i] = true
		case r.Rel != EQ && resid[i] < -feasTol:
			needArt[i] = true
		}
		if needArt[i] {
			nArt++
		}
	}

	n := nStr + m + nArt
	t := &tableau{
		m: m, n: n, nStr: nStr,
		rows: make([][]float64, m),
		d:    make([]float64, n),
		cost: make([]float64, n),
		lo:   make([]float64, n),
		hi:   make([]float64, n),
		stat: make([]vstat, n),
		xval: make([]float64, n),
		bvar: make([]int, m),
		brow: make([]int, n),
	}
	t.cap = 50*(m+n) + 1000
	for j := range t.brow {
		t.brow[j] = -1
	}

	// Structural variables: nonbasic at lower bound.
	for j := 0; j < nStr; j++ {
		t.lo[j], t.hi[j] = p.Lo[j], p.Hi[j]
		t.stat[j] = atLower
		t.xval[j] = p.Lo[j]
	}
	// Slack variables: [0,+Inf) for inequality rows, fixed 0 for EQ.
	for i := 0; i < m; i++ {
		j := nStr + i
		if p.Rows[i].Rel == EQ {
			t.hi[j] = 0
		} else {
			t.hi[j] = math.Inf(1)
		}
		t.stat[j] = atLower
	}

	// Fill rows: sign·a·x + slack (+ artificial) = sign·rhs.
	art := nStr + m
	for i, r := range p.Rows {
		row := make([]float64, n)
		for k, j := range r.Idx {
			row[j] += sign[i] * r.Coef[k]
		}
		row[nStr+i] = 1
		t.rows[i] = row

		if needArt[i] {
			// The artificial must form an identity column in the initial
			// basis; when the residual is negative, negate the whole row so
			// the artificial's coefficient is +1 and its value |resid| ≥ 0.
			if resid[i] < 0 {
				for j := range row {
					row[j] = -row[j]
				}
			}
			j := art
			art++
			row[j] = 1
			t.hi[j] = math.Inf(1)
			t.cost[j] = 1 // phase-1 objective
			t.setBasic(i, j, math.Abs(resid[i]))
		} else {
			t.setBasic(i, nStr+i, resid[i])
		}
	}

	// Phase-1 reduced costs: d = cost − cost_B·rows.
	copy(t.d, t.cost)
	for i := 0; i < m; i++ {
		cb := t.cost[t.bvar[i]]
		if cb == 0 {
			continue
		}
		row := t.rows[i]
		for j := 0; j < n; j++ {
			t.d[j] -= cb * row[j]
		}
	}
	return t, nArt
}

func (t *tableau) setBasic(row, j int, val float64) {
	t.bvar[row] = j
	t.brow[j] = row
	t.stat[j] = basic
	t.xval[j] = val
}

func (t *tableau) phaseObjective() float64 {
	var s float64
	for j := t.nStr + t.m; j < t.n; j++ {
		s += t.xval[j]
	}
	return s
}

// pinArtificials fixes every artificial variable to zero so that phase 2
// cannot move it. Basic artificials at value zero are harmless degenerate
// basis members.
func (t *tableau) pinArtificials(p *Problem) {
	for j := t.nStr + t.m; j < t.n; j++ {
		t.lo[j], t.hi[j] = 0, 0
		if t.stat[j] != basic {
			t.xval[j] = 0
		}
	}
}

// setCost installs the phase-2 objective and recomputes reduced costs under
// the current basis.
func (t *tableau) setCost(p *Problem) {
	for j := range t.cost {
		t.cost[j] = 0
	}
	copy(t.cost, p.Cost)
	copy(t.d, t.cost)
	for i := 0; i < t.m; i++ {
		cb := t.cost[t.bvar[i]]
		if cb == 0 {
			continue
		}
		row := t.rows[i]
		for j := 0; j < t.n; j++ {
			t.d[j] -= cb * row[j]
		}
	}
}

// run iterates the bounded simplex to optimality for the current cost row.
func (t *tableau) run() Status {
	degenerate := 0
	for {
		if t.iters >= t.cap {
			return IterLimit
		}
		bland := degenerate > 2*(t.m+10)
		q, dir := t.price(bland)
		if q < 0 {
			return Optimal
		}
		t.iters++
		if bland {
			t.blandPivots++
		}
		step, st := t.step(q, dir)
		if st == Unbounded {
			return Unbounded
		}
		if step < feasTol {
			degenerate++
			t.degenPivots++
		} else {
			degenerate = 0
		}
	}
}

// price selects an entering variable and its direction: +1 to increase from
// the lower bound, -1 to decrease from the upper bound. Returns q = -1 when
// the current point is optimal.
func (t *tableau) price(bland bool) (q int, dir float64) {
	best := costTol
	q = -1
	for j := 0; j < t.n; j++ {
		if t.stat[j] == basic || t.hi[j]-t.lo[j] < feasTol {
			continue // basic or fixed
		}
		var improve float64
		var d float64
		if t.stat[j] == atLower {
			improve = -t.d[j] // want d<0
			d = 1
		} else {
			improve = t.d[j] // want d>0
			d = -1
		}
		if improve > best {
			if bland {
				return j, d
			}
			best = improve
			q, dir = j, d
		}
	}
	return q, dir
}

// step performs the bounded-variable ratio test for entering variable q
// moving in direction dir, then either flips q to its opposite bound or
// pivots. It returns the step length taken.
func (t *tableau) step(q int, dir float64) (float64, Status) {
	// Own-bound limit.
	tMax := t.hi[q] - t.lo[q] // may be +Inf
	leave := -1               // pivot row; -1 means bound flip
	leaveAtUpper := false
	pivAbs := 0.0

	for i := 0; i < t.m; i++ {
		a := dir * t.rows[i][q] // xB_i decreases at rate a
		b := t.bvar[i]
		var lim float64
		var hitsUpper bool
		switch {
		case a > pivTol: // basic decreases toward its lower bound
			lim = (t.xval[b] - t.lo[b]) / a
		case a < -pivTol: // basic increases toward its upper bound
			if math.IsInf(t.hi[b], 1) {
				continue
			}
			lim = (t.hi[b] - t.xval[b]) / (-a)
			hitsUpper = true
		default:
			continue
		}
		if lim < 0 {
			lim = 0
		}
		// Prefer strictly smaller limits; break ties toward bigger pivots
		// for numerical stability.
		if lim < tMax-pivTol || (lim < tMax+pivTol && math.Abs(t.rows[i][q]) > pivAbs) {
			tMax = lim
			leave = i
			leaveAtUpper = hitsUpper
			pivAbs = math.Abs(t.rows[i][q])
		}
	}

	if math.IsInf(tMax, 1) {
		return 0, Unbounded
	}

	// Update basic values and the entering variable's value.
	if tMax > 0 {
		for i := 0; i < t.m; i++ {
			a := dir * t.rows[i][q]
			if a != 0 {
				t.xval[t.bvar[i]] -= tMax * a
			}
		}
		t.xval[q] += dir * tMax
	}

	if leave < 0 {
		// Bound flip: q travels to its opposite bound; basis unchanged.
		if dir > 0 {
			t.stat[q] = atUpper
			t.xval[q] = t.hi[q]
		} else {
			t.stat[q] = atLower
			t.xval[q] = t.lo[q]
		}
		return tMax, Optimal
	}

	// Pivot: q becomes basic in row `leave`; the old basic leaves at the
	// bound it hit.
	out := t.bvar[leave]
	if leaveAtUpper {
		t.stat[out] = atUpper
		t.xval[out] = t.hi[out]
	} else {
		t.stat[out] = atLower
		t.xval[out] = t.lo[out]
	}
	t.brow[out] = -1
	t.bvar[leave] = q
	t.brow[q] = leave
	t.stat[q] = basic

	t.eliminate(leave, q)
	return tMax, Optimal
}

// eliminate performs the Gauss-Jordan pivot on (r, q) over all tableau rows
// and the reduced-cost row.
func (t *tableau) eliminate(r, q int) {
	prow := t.rows[r]
	inv := 1 / prow[q]
	if inv != 1 {
		for j := range prow {
			prow[j] *= inv
		}
	}
	prow[q] = 1 // exact
	for i := 0; i < t.m; i++ {
		if i == r {
			continue
		}
		row := t.rows[i]
		f := row[q]
		if f == 0 {
			continue
		}
		for j := range row {
			row[j] -= f * prow[j]
		}
		row[q] = 0 // exact
	}
	f := t.d[q]
	if f != 0 {
		for j := range t.d {
			t.d[j] -= f * prow[j]
		}
		t.d[q] = 0
	}
}

// structX extracts structural variable values, clamped to bounds to shed
// round-off.
func (t *tableau) structX(p *Problem) []float64 {
	x := make([]float64, t.nStr)
	for j := 0; j < t.nStr; j++ {
		v := t.xval[j]
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

// exportBasis converts the tableau's final state into a Basis over the
// structural+slack columns. It returns nil when an artificial variable is
// still basic (a degenerate phase-1 leftover): such a basis cannot be
// expressed without the artificial column and is not worth repairing.
func (t *tableau) exportBasis() *Basis {
	n := t.nStr + t.m
	for i := 0; i < t.m; i++ {
		if t.bvar[i] >= n {
			return nil
		}
	}
	b := &Basis{Basic: make([]int32, t.m), Stat: make([]BasisStatus, n)}
	for i, q := range t.bvar {
		b.Basic[i] = int32(q)
	}
	for j := 0; j < n; j++ {
		switch t.stat[j] {
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

// buildWarm assembles a tableau for p directly in the given basis: no
// artificial columns, the real objective from the start. It reports ok =
// false when the basis is singular (beyond warmPivTol) under Gauss-Jordan
// refactorization.
func buildWarm(p *Problem, bs *Basis) (*tableau, bool) {
	m := len(p.Rows)
	nStr := p.NumVars
	n := nStr + m
	t := &tableau{
		m: m, n: n, nStr: nStr,
		rows: make([][]float64, m),
		d:    make([]float64, n),
		cost: make([]float64, n),
		lo:   make([]float64, n),
		hi:   make([]float64, n),
		stat: make([]vstat, n),
		xval: make([]float64, n),
		bvar: make([]int, m),
		brow: make([]int, n),
	}
	t.cap = 50*(m+n) + 1000
	for j := range t.brow {
		t.brow[j] = -1
	}

	// Bounds: structural from the problem, slack [0,+Inf) or fixed 0 for EQ.
	for j := 0; j < nStr; j++ {
		t.lo[j], t.hi[j] = p.Lo[j], p.Hi[j]
	}
	for i := 0; i < m; i++ {
		if p.Rows[i].Rel != EQ {
			t.hi[nStr+i] = math.Inf(1)
		}
	}

	// Statuses from the basis. A nonbasic-at-upper column whose upper bound
	// is infinite under the new problem (cannot happen when bounds only
	// tighten, as in branch and bound, but legal for arbitrary callers)
	// drops to its lower bound.
	for j := 0; j < n; j++ {
		switch bs.Stat[j] {
		case BasisBasic:
			t.stat[j] = basic
		case BasisAtUpper:
			if math.IsInf(t.hi[j], 1) {
				t.stat[j] = atLower
				t.xval[j] = t.lo[j]
			} else {
				t.stat[j] = atUpper
				t.xval[j] = t.hi[j]
			}
		default:
			t.stat[j] = atLower
			t.xval[j] = t.lo[j]
		}
	}

	// Rows in the canonical build form (GE negated into LE, slack +1), with
	// an explicit right-hand side carried through the refactorization.
	rhs := make([]float64, m)
	for i, r := range p.Rows {
		s := 1.0
		if r.Rel == GE {
			s = -1
		}
		row := make([]float64, n)
		for k, j := range r.Idx {
			row[j] += s * r.Coef[k]
		}
		row[nStr+i] = 1
		t.rows[i] = row
		rhs[i] = s * r.RHS
	}

	// Gauss-Jordan refactorization onto the basic columns: each basic column
	// is reduced to a unit vector, pairing it with the still-unassigned row
	// holding its largest pivot. A pivot below warmPivTol means the basis is
	// (numerically) singular.
	assigned := make([]bool, m)
	for _, q32 := range bs.Basic {
		q := int(q32)
		if t.brow[q] >= 0 {
			return nil, false // named twice (Basis.valid leaves this check here)
		}
		r, piv := -1, warmPivTol
		for i := 0; i < m; i++ {
			if assigned[i] {
				continue
			}
			if a := math.Abs(t.rows[i][q]); a > piv {
				r, piv = i, a
			}
		}
		if r < 0 {
			return nil, false
		}
		prow := t.rows[r]
		inv := 1 / prow[q]
		if inv != 1 {
			for j := range prow {
				prow[j] *= inv
			}
			rhs[r] *= inv
		}
		prow[q] = 1 // exact
		for i := 0; i < m; i++ {
			if i == r {
				continue
			}
			row := t.rows[i]
			f := row[q]
			if f == 0 {
				continue
			}
			for j := range row {
				row[j] -= f * prow[j]
			}
			row[q] = 0 // exact
			rhs[i] -= f * rhs[r]
		}
		assigned[r] = true
		t.bvar[r] = q
		t.brow[q] = r
	}

	// Basic values: xB_r = rhs_r − Σ_{nonbasic j} a_rj·x_j.
	for r := 0; r < m; r++ {
		v := rhs[r]
		row := t.rows[r]
		for j := 0; j < n; j++ {
			if t.stat[j] != basic && t.xval[j] != 0 {
				v -= row[j] * t.xval[j]
			}
		}
		t.xval[t.bvar[r]] = v
	}

	// Reduced costs under the real objective and the inherited basis.
	copy(t.cost, p.Cost)
	copy(t.d, t.cost)
	for i := 0; i < m; i++ {
		cb := t.cost[t.bvar[i]]
		if cb == 0 {
			continue
		}
		row := t.rows[i]
		for j := 0; j < n; j++ {
			t.d[j] -= cb * row[j]
		}
	}
	return t, true
}

// dualFeasible reports whether the current reduced costs are consistent
// with every nonbasic column's bound status (the precondition of the dual
// simplex). Fixed columns are exempt: their reduced-cost sign is free.
func (t *tableau) dualFeasible() bool {
	for j := 0; j < t.n; j++ {
		if t.hi[j]-t.lo[j] < feasTol {
			continue
		}
		switch t.stat[j] {
		case atLower:
			if t.d[j] < -dualFeasTol {
				return false
			}
		case atUpper:
			if t.d[j] > dualFeasTol {
				return false
			}
		}
	}
	return true
}

// dualSimplex restores primal feasibility while preserving dual
// feasibility: repeatedly drive the most-violating basic variable to the
// bound it violates, choosing the entering column by the bounded-variable
// dual ratio test (minimum |d_j/a_rj| over sign-eligible columns, ties
// toward the larger pivot). Returns Optimal once every basic variable is
// within its bounds, Infeasible when no eligible entering column exists
// (the dual is unbounded, so the primal is infeasible — the common fate of
// a branch-and-bound child), or IterLimit at the iteration cap.
func (t *tableau) dualSimplex() Status {
	for {
		if t.iters >= t.cap {
			return IterLimit
		}

		// Leaving row: the basic variable with the largest bound violation.
		r := -1
		viol := feasTol
		below := false
		for i := 0; i < t.m; i++ {
			b := t.bvar[i]
			if v := t.lo[b] - t.xval[b]; v > viol {
				r, viol, below = i, v, true
			}
			if v := t.xval[b] - t.hi[b]; v > viol {
				r, viol, below = i, v, false
			}
		}
		if r < 0 {
			return Optimal
		}
		out := t.bvar[r]
		row := t.rows[r]

		// Entering column: dual ratio test. When the leaving variable sits
		// below its lower bound, row r's value must increase, so a column at
		// its lower bound enters with a negative row coefficient and a
		// column at its upper bound with a positive one; mirrored otherwise.
		q := -1
		best := math.Inf(1)
		bestAbs := 0.0
		for j := 0; j < t.n; j++ {
			if t.stat[j] == basic || t.hi[j]-t.lo[j] < feasTol {
				continue
			}
			a := row[j]
			var ok bool
			if below {
				ok = (t.stat[j] == atLower && a < -pivTol) || (t.stat[j] == atUpper && a > pivTol)
			} else {
				ok = (t.stat[j] == atLower && a > pivTol) || (t.stat[j] == atUpper && a < -pivTol)
			}
			if !ok {
				continue
			}
			abs := math.Abs(a)
			ratio := math.Abs(t.d[j]) / abs
			if ratio < best-pivTol || (ratio < best+pivTol && abs > bestAbs) {
				best, q, bestAbs = ratio, j, abs
			}
		}
		if q < 0 {
			return Infeasible
		}

		t.iters++
		t.dualIters++

		// Pivot: the leaving variable lands exactly on the bound it
		// violated; the entering variable moves off its bound by dx.
		beta := t.lo[out]
		if !below {
			beta = t.hi[out]
		}
		dx := (t.xval[out] - beta) / row[q]
		for i := 0; i < t.m; i++ {
			if i == r {
				continue
			}
			if a := t.rows[i][q]; a != 0 {
				t.xval[t.bvar[i]] -= a * dx
			}
		}
		t.xval[q] += dx
		t.xval[out] = beta
		if below {
			t.stat[out] = atLower
		} else {
			t.stat[out] = atUpper
		}
		t.brow[out] = -1
		t.bvar[r] = q
		t.brow[q] = r
		t.stat[q] = basic
		if math.Abs(dx) < feasTol {
			t.degenPivots++
		}
		t.eliminate(r, q)
	}
}
