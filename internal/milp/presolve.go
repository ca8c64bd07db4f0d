package milp

import (
	"math"

	"raha/internal/modelcheck"
)

// This file is the solver's reduction layer: a root presolve that shrinks
// the model before the tree search starts, the postsolve mapping that puts
// solutions back into the caller's variable space, and the per-node domain
// propagation engine branch and bound runs after every branch. All three
// share one primitive — activity-based bound tightening over a row
// (tightenFromRow) — built on the same interval arithmetic the modelcheck
// diagnostic pass uses (modelcheck.Activity / TermBounds).
const (
	// presolveFeasTol matches package lp's feasibility tolerance: presolve
	// declares a row infeasible only when the LP would agree.
	presolveFeasTol = 1e-7

	// presolveBoundEps is the outward safety margin applied to every derived
	// continuous bound, so floating-point error in the activity sums can
	// never cut the true optimum.
	presolveBoundEps = 1e-9

	// presolveImproveTol is the minimum relative improvement worth recording:
	// below it a derived bound is noise and applying it would only churn the
	// fixpoint loop.
	presolveImproveTol = 1e-7

	// presolveFixTol: a variable whose box has collapsed to this width is
	// substituted out as a constant.
	presolveFixTol = 1e-9

	// maxPresolveRounds caps the root fixpoint loop; propagation gains decay
	// geometrically, so a small cap keeps presolve linear in model size.
	maxPresolveRounds = 10

	// maxRowVisits bounds how often one row re-enters a single per-node
	// propagation pass (each visit costs O(row terms)).
	maxRowVisits = 2
)

func finite(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }

// rowActivity accumulates the activity interval of a row's terms under the
// bound vectors lo/hi.
func rowActivity(terms []Term, lo, hi []float64) modelcheck.Activity {
	var act modelcheck.Activity
	for _, t := range terms {
		act.Add(t.C, lo[t.V], hi[t.V])
	}
	return act
}

// applyUpper installs the derived upper bound b on v (rounded for integer
// variables, relaxed outward for continuous ones) when it is a meaningful
// improvement. It reports false when the variable's box becomes empty.
func applyUpper(v Var, b float64, lo, hi []float64, isInt []bool, intTol float64, onTighten func(Var)) bool {
	if math.IsNaN(b) || math.IsInf(b, 0) {
		return true // no information
	}
	if isInt[v] {
		b = math.Floor(b + intTol)
	} else {
		b += presolveBoundEps * (1 + math.Abs(b))
	}
	if b >= hi[v]-presolveImproveTol*(1+math.Abs(b)) {
		return true // not a meaningful improvement
	}
	hi[v] = b
	if lo[v] > b+presolveFeasTol*(1+math.Abs(b)) {
		return false // empty box: the subproblem is infeasible
	}
	if lo[v] > b {
		hi[v] = lo[v] // collapse sub-tolerance inversions to a consistent box
	}
	if onTighten != nil {
		onTighten(v)
	}
	return true
}

// applyLower is applyUpper for the lower side.
func applyLower(v Var, b float64, lo, hi []float64, isInt []bool, intTol float64, onTighten func(Var)) bool {
	if math.IsNaN(b) || math.IsInf(b, 0) {
		return true
	}
	if isInt[v] {
		b = math.Ceil(b - intTol)
	} else {
		b -= presolveBoundEps * (1 + math.Abs(b))
	}
	if b <= lo[v]+presolveImproveTol*(1+math.Abs(b)) {
		return true
	}
	lo[v] = b
	if b > hi[v]+presolveFeasTol*(1+math.Abs(b)) {
		return false
	}
	if b > hi[v] {
		lo[v] = hi[v]
	}
	if onTighten != nil {
		onTighten(v)
	}
	return true
}

// tightenFromRow propagates one row through the bound box: for every
// variable of the row it derives the implied bound from the row's residual
// activity (the activity of the other terms) and installs it when it
// improves. onTighten (may be nil) is called for every improved variable.
// It reports false when the row proves the box infeasible.
//
// The residuals are computed against the activity of the box at entry; a
// bound tightened mid-row makes later residuals conservative, never invalid
// (the fixpoint loop and the propagation queue recover the slack).
func tightenFromRow(terms []Term, rel Rel, rhs float64, lo, hi []float64, isInt []bool, intTol float64, onTighten func(Var)) bool {
	if !finite(rhs) {
		return true // leave non-finite rows to modelcheck / the LP
	}
	act := rowActivity(terms, lo, hi)
	if act.NaN {
		return true
	}
	feas := presolveFeasTol * (1 + math.Abs(rhs))
	if rel == LE || rel == EQ {
		if act.InfLo == 0 && act.SumLo > rhs+feas {
			return false // even the minimum activity violates Σ ≤ rhs
		}
		for _, t := range terms {
			if t.C == 0 {
				continue
			}
			tl, _ := modelcheck.TermBounds(t.C, lo[t.V], hi[t.V])
			res, ok := act.ResidualLo(tl)
			if !ok {
				continue
			}
			b := (rhs - res) / t.C
			if t.C > 0 {
				if !applyUpper(t.V, b, lo, hi, isInt, intTol, onTighten) {
					return false
				}
			} else if !applyLower(t.V, b, lo, hi, isInt, intTol, onTighten) {
				return false
			}
		}
	}
	if rel == GE || rel == EQ {
		if rel == EQ {
			// The LE pass may have tightened bounds; residuals subtract a
			// term's *current* contribution, so the activity they are taken
			// against must be current too — a stale one would overstate the
			// residual (and, e.g., lose half of an EQ singleton).
			act = rowActivity(terms, lo, hi)
			if act.NaN {
				return true
			}
		}
		if act.InfHi == 0 && act.SumHi < rhs-feas {
			return false
		}
		for _, t := range terms {
			if t.C == 0 {
				continue
			}
			_, th := modelcheck.TermBounds(t.C, lo[t.V], hi[t.V])
			res, ok := act.ResidualHi(th)
			if !ok {
				continue
			}
			b := (rhs - res) / t.C
			if t.C > 0 {
				if !applyLower(t.V, b, lo, hi, isInt, intTol, onTighten) {
					return false
				}
			} else if !applyUpper(t.V, b, lo, hi, isInt, intTol, onTighten) {
				return false
			}
		}
	}
	return true
}

// zeroRowViolated reports whether the empty row "0 rel rhs" is violated —
// the feasibility test for rows whose every term was eliminated.
func zeroRowViolated(rel Rel, rhs float64) bool {
	feas := presolveFeasTol * (1 + math.Abs(rhs))
	switch rel {
	case LE:
		return rhs < -feas
	case GE:
		return rhs > feas
	}
	return math.Abs(rhs) > feas
}

// prow is one presolver-owned row. Term storage is copied from the source
// model, so coefficient tightening never mutates the caller's expressions
// (Model.ConstraintAt documents shared storage).
type prow struct {
	terms []Term
	rel   Rel
	rhs   float64
	name  string
	dead  bool
}

// postsolve maps between the original variable space and the reduced one.
type postsolve struct {
	n     int       // original variable count
	keep  []Var     // reduced index -> original variable
	fixed []float64 // per original variable: its substituted value (kept vars overwritten by restore)
}

// restore expands a reduced-space solution vector to the original variable
// space, re-inserting the substituted constants.
func (p *postsolve) restore(x []float64) []float64 {
	if x == nil {
		return nil
	}
	out := make([]float64, p.n)
	copy(out, p.fixed)
	for j, v := range p.keep {
		out[v] = x[j]
	}
	return out
}

// project maps an original-space point (a warm-start hint) onto the reduced
// space by dropping the substituted variables.
func (p *postsolve) project(h []float64) []float64 {
	out := make([]float64, len(p.keep))
	for j, v := range p.keep {
		out[j] = h[v]
	}
	return out
}

// presolveResult carries the reduced model, the postsolve mapping, and the
// reduction accounting back to SolveContext.
type presolveResult struct {
	model      *Model
	post       *postsolve
	infeasible bool

	fixedVars       int64
	removedRows     int64
	tightenedBounds int64
	tightenedCoefs  int64
}

// presolve builds a reduced copy of m: iterated activity-based bound
// propagation (with integer rounding), singleton-row elimination into
// bounds, redundant-row removal, big-M coefficient tightening on binary
// terms, and substitution of fixed variables. The input model is never
// mutated. On infeasible models the result has infeasible set and no model.
func presolve(m *Model, intTol float64) *presolveResult {
	n := m.NumVars()
	res := &presolveResult{}
	lo := append([]float64(nil), m.lo...)
	hi := append([]float64(nil), m.hi...)
	isInt := make([]bool, n)
	for v, t := range m.vtype {
		isInt[v] = t != Continuous
	}

	rows := make([]prow, 0, len(m.cons))
	for i := range m.cons {
		c := &m.cons[i]
		//raha:lint-allow hot-alloc each row's term snapshot is retained in the presolve working set; runs once per solve
		terms := make([]Term, 0, len(c.expr.Terms))
		for _, t := range c.expr.Terms {
			if t.C != 0 {
				terms = append(terms, t)
			}
		}
		rows = append(rows, prow{terms: terms, rel: c.rel, rhs: c.rhs, name: c.name})
	}

	// Integer bound rounding: the feasible integers of [lo, hi] are
	// [ceil(lo), floor(hi)] (the modelcheck int-bounds diagnostic, applied).
	for v := 0; v < n; v++ {
		if !isInt[v] {
			continue
		}
		if r := math.Ceil(lo[v] - intTol); r > lo[v] {
			lo[v] = r
			res.tightenedBounds++
		}
		if !math.IsInf(hi[v], 1) {
			if r := math.Floor(hi[v] + intTol); r < hi[v] {
				hi[v] = r
				res.tightenedBounds++
			}
		}
		if lo[v] > hi[v] {
			res.infeasible = true
			return res
		}
	}

	count := func(Var) { res.tightenedBounds++ }

	// fixpoint runs bound propagation over the live rows until no bound
	// moves (or the round cap): row infeasibility/redundancy tests, then
	// singleton elimination, then general activity tightening.
	fixpoint := func() {
		for round := 0; round < maxPresolveRounds; round++ {
			changed := false
			for ri := range rows {
				r := &rows[ri]
				if r.dead || !finite(r.rhs) {
					continue
				}
				if len(r.terms) == 0 {
					if zeroRowViolated(r.rel, r.rhs) {
						res.infeasible = true
						return
					}
					r.dead = true
					res.removedRows++
					changed = true
					continue
				}
				act := rowActivity(r.terms, lo, hi)
				if act.NaN {
					continue
				}
				feas := presolveFeasTol * (1 + math.Abs(r.rhs))
				switch r.rel {
				case LE:
					if act.InfLo == 0 && act.SumLo > r.rhs+feas {
						res.infeasible = true
						return
					}
					if act.InfHi == 0 && act.SumHi <= r.rhs {
						// Redundant: satisfied by every point of the box.
						// Strict (no tolerance) so removal never relaxes.
						r.dead = true
						res.removedRows++
						changed = true
						continue
					}
				case GE:
					if act.InfHi == 0 && act.SumHi < r.rhs-feas {
						res.infeasible = true
						return
					}
					if act.InfLo == 0 && act.SumLo >= r.rhs {
						r.dead = true
						res.removedRows++
						changed = true
						continue
					}
				case EQ:
					if act.InfLo == 0 && act.SumLo > r.rhs+feas ||
						act.InfHi == 0 && act.SumHi < r.rhs-feas {
						res.infeasible = true
						return
					}
					if act.InfLo == 0 && act.InfHi == 0 &&
						act.SumLo >= r.rhs && act.SumHi <= r.rhs {
						r.dead = true
						res.removedRows++
						changed = true
						continue
					}
				}

				before := res.tightenedBounds
				if !tightenFromRow(r.terms, r.rel, r.rhs, lo, hi, isInt, intTol, count) {
					res.infeasible = true
					return
				}
				if res.tightenedBounds > before {
					changed = true
				}
				if len(r.terms) == 1 {
					// Singleton: the derived bound carries everything the
					// row says; drop the row.
					r.dead = true
					res.removedRows++
					changed = true
				}
			}
			if !changed {
				return
			}
		}
	}

	fixpoint()
	if res.infeasible {
		return res
	}

	// Big-M coefficient tightening on binary terms of inequality rows — the
	// indicator rows IndicatorGE emits are the target. For a binary z with
	// coefficient c in "rest + c·z ≤ b": the arm where z deactivates the row
	// only needs enough slack to cover the rest-activity, so an oversized c
	// (or an oversized b on the z=0 arm) shrinks to exactly that slack. The
	// LP relaxation tightens; the integer points are untouched.
	if tightenCoefficients(rows, lo, hi, isInt, res) {
		fixpoint() // tightened coefficients can unlock more bound propagation
		if res.infeasible {
			return res
		}
	}

	// Fix variables whose box collapsed, then build the reduced model with
	// the fixed variables substituted out.
	fixed := make([]float64, n)
	idx := make([]Var, n)
	kept := 0
	for v := 0; v < n; v++ {
		if hi[v]-lo[v] <= presolveFixTol*(1+math.Abs(lo[v])) {
			val := (lo[v] + hi[v]) / 2
			if isInt[v] {
				val = math.Round(val)
			}
			fixed[v] = val
			idx[v] = -1
			continue
		}
		idx[v] = 1 // kept; renumbered below
		kept++
	}
	if kept == 0 && n > 0 {
		// Never reduce to an empty model: keep one (pinned) variable so the
		// search below has an LP to solve and a root node to process.
		idx[0] = 1
		kept++
	}
	res.fixedVars = int64(n - kept)

	red := &Model{sense: m.sense}
	keep := make([]Var, 0, kept)
	for v := 0; v < n; v++ {
		if idx[v] < 0 {
			continue
		}
		idx[v] = Var(len(red.lo))
		keep = append(keep, Var(v))
		red.names = append(red.names, m.names[v])
		red.lo = append(red.lo, lo[v])
		red.hi = append(red.hi, hi[v])
		red.vtype = append(red.vtype, m.vtype[v])
	}

	obj := Expr{Const: m.obj.Const}
	for _, t := range m.obj.Terms {
		if t.C == 0 {
			continue
		}
		if idx[t.V] < 0 {
			obj.Const += t.C * fixed[t.V]
		} else {
			obj.Terms = append(obj.Terms, Term{V: idx[t.V], C: t.C})
		}
	}
	red.obj = obj

	for ri := range rows {
		r := &rows[ri]
		if r.dead {
			continue
		}
		//raha:lint-allow hot-alloc each reduced row's terms are retained by the rebuilt model; runs once per solve
		terms := make([]Term, 0, len(r.terms))
		rhs := r.rhs
		for _, t := range r.terms {
			if idx[t.V] < 0 {
				rhs -= t.C * fixed[t.V]
			} else {
				terms = append(terms, Term{V: idx[t.V], C: t.C})
			}
		}
		if len(terms) == 0 {
			if zeroRowViolated(r.rel, rhs) {
				res.infeasible = true
				return res
			}
			res.removedRows++
			continue
		}
		red.cons = append(red.cons, constraint{expr: Expr{Terms: terms}, rel: r.rel, rhs: rhs, name: r.name})
	}

	res.model = red
	res.post = &postsolve{n: n, keep: keep, fixed: fixed}
	return res
}

// tightenCoefficients is the big-M pass: one sweep over the live inequality
// rows shrinking oversized binary coefficients (and, on the z=0 arm, the
// right-hand side) to the rest-activity slack they actually need. Reports
// whether anything changed.
func tightenCoefficients(rows []prow, lo, hi []float64, isInt []bool, res *presolveResult) bool {
	changedAny := false
	for ri := range rows {
		r := &rows[ri]
		if r.dead || r.rel == EQ || !finite(r.rhs) {
			continue
		}
		act := rowActivity(r.terms, lo, hi)
		if act.NaN {
			continue
		}
		for ti := range r.terms {
			t := &r.terms[ti]
			v := t.V
			if t.C == 0 || !isInt[v] || lo[v] != 0 || hi[v] != 1 {
				continue // binaries with their full {0,1} box only
			}
			tl, th := modelcheck.TermBounds(t.C, lo[v], hi[v])
			if r.rel == LE {
				restHi, ok := act.ResidualHi(th)
				if !ok {
					continue
				}
				if t.C < 0 {
					// z=1 deactivates "rest ≤ b − c": shrink |c| to the slack.
					nc := r.rhs - restHi
					nc -= presolveBoundEps * (1 + math.Abs(nc))
					if nc < 0 && nc > t.C {
						act.SumLo += nc - t.C // tl was c·1 = c
						t.C = nc
						res.tightenedCoefs++
						changedAny = true
					}
				} else {
					// z=0 arm "rest ≤ b" is slack: pull b (and c with it, so
					// the z=1 arm is unchanged) down to the rest-activity.
					nb := restHi + presolveBoundEps*(1+math.Abs(restHi))
					if nb < r.rhs {
						nc := t.C - (r.rhs - nb)
						if nc > 0 {
							act.SumHi += nc - t.C // th was c·1 = c
							t.C = nc
							r.rhs = nb
							res.tightenedCoefs++
							changedAny = true
						}
					}
				}
			} else { // GE
				restLo, ok := act.ResidualLo(tl)
				if !ok {
					continue
				}
				if t.C > 0 {
					// z=1 deactivates "rest ≥ b − c": shrink c to the slack.
					nc := r.rhs - restLo
					nc += presolveBoundEps * (1 + math.Abs(nc))
					if nc > 0 && nc < t.C {
						act.SumHi += nc - t.C // th was c·1 = c
						t.C = nc
						res.tightenedCoefs++
						changedAny = true
					}
				} else {
					// z=0 arm "rest ≥ b" is slack: pull b (and c) up to it.
					nb := restLo - presolveBoundEps*(1+math.Abs(restLo))
					if nb > r.rhs {
						nc := t.C + (nb - r.rhs)
						if nc < 0 {
							act.SumLo += nc - t.C // tl was c·1 = c
							t.C = nc
							r.rhs = nb
							res.tightenedCoefs++
							changedAny = true
						}
					}
				}
			}
		}
	}
	return changedAny
}

// rowsIndex builds the variable → row-indices adjacency of the (search)
// model: the rows that can react when one variable's bound tightens.
func rowsIndex(m *Model) [][]int32 {
	idx := make([][]int32, m.NumVars())
	for i := range m.cons {
		for _, t := range m.cons[i].expr.Terms {
			if t.C != 0 {
				idx[t.V] = append(idx[t.V], int32(i))
			}
		}
	}
	return idx
}

// nodeProp is one worker's domain-propagation scratch: a row work queue
// with membership and visit caps, all reset between nodes via the touched
// list (O(rows touched), not O(rows)).
type nodeProp struct {
	queue   []int32
	queued  []bool
	visits  []int8
	touched []int32
}

func newNodeProp(rows int) *nodeProp {
	return &nodeProp{queued: make([]bool, rows), visits: make([]int8, rows)}
}

// propagate pushes a branched bound change on bvar through the row network,
// tightening lo/hi in place: the child inherits not just the branching
// bound but everything that bound implies. Returns false when a row proves
// the child's box empty — the child is pruned without an LP solve.
func (s *search) propagate(wid int, bvar Var, lo, hi []float64) bool {
	np := s.props[wid]
	np.queue = np.queue[:0]
	np.touched = np.touched[:0]
	push := func(v Var) {
		for _, ri := range s.rowsOf[v] {
			if !np.queued[ri] && np.visits[ri] < maxRowVisits {
				np.queued[ri] = true
				np.visits[ri]++
				np.queue = append(np.queue, ri)
				np.touched = append(np.touched, ri)
			}
		}
	}
	push(bvar)
	ok := true
	for qi := 0; qi < len(np.queue); qi++ {
		ri := np.queue[qi]
		np.queued[ri] = false
		c := &s.m.cons[ri]
		if !tightenFromRow(c.expr.Terms, c.rel, c.rhs, lo, hi, s.isInt, s.p.IntTol, push) {
			ok = false
			break
		}
	}
	for _, ri := range np.touched {
		np.queued[ri] = false
		np.visits[ri] = 0
	}
	np.queue = np.queue[:0]
	return ok
}
