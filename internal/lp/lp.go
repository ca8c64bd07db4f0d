package lp

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"raha/internal/obs"
)

// Rel is the relation of a linear constraint row.
type Rel int8

// Constraint relations.
const (
	LE Rel = iota // a·x ≤ b
	GE            // a·x ≥ b
	EQ            // a·x = b
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return "?"
}

// Row is one sparse constraint row a·x Rel RHS.
type Row struct {
	Idx  []int     // variable indices
	Coef []float64 // coefficients, parallel to Idx
	Rel  Rel
	RHS  float64
}

// Problem is an LP in the form
//
//	minimize c·x  subject to  rows, Lo ≤ x ≤ Hi.
//
// Lower bounds must be finite; upper bounds may be +Inf.
//
// A Problem caches its sparse lowering (the scaled CSC matrix and the
// solver workspace, see sparse.go) across solves: branch and bound re-solves
// the same rows under different bounds thousands of times per search, and
// the cache is what makes those re-solves allocation-free (Release hands it
// on once the Problem's solves are done, workspace.go). The cache keys on
// the row and variable counts, so appending rows or growing the variable set
// rebuilds it — but mutating an existing row's coefficients in place between
// solves does not, and is therefore not supported: it would also escape the
// row check, which runs where the lowering is built. A Problem must not be
// solved from multiple goroutines concurrently (the MILP layer keeps one
// Problem per worker for exactly this reason).
type Problem struct {
	NumVars int
	Cost    []float64
	Rows    []Row
	Lo, Hi  []float64

	sp *spCache // lazily built sparse lowering + reusable solver workspace
}

// NewProblem returns a problem with n variables, zero objective, and default
// bounds [0, +Inf).
func NewProblem(n int) *Problem {
	p := &Problem{
		NumVars: n,
		Cost:    make([]float64, n),
		Lo:      make([]float64, n),
		Hi:      make([]float64, n),
	}
	for i := range p.Hi {
		p.Hi[i] = math.Inf(1)
	}
	return p
}

// AddRow appends the constraint Σ coef[i]·x[idx[i]] rel rhs.
func (p *Problem) AddRow(idx []int, coef []float64, rel Rel, rhs float64) {
	if len(idx) != len(coef) {
		panic("lp: AddRow index/coefficient length mismatch")
	}
	p.Rows = append(p.Rows, Row{Idx: idx, Coef: coef, Rel: rel, RHS: rhs})
}

// Status reports the outcome of a solve.
type Status int8

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
	// ObjLimit: a warm solve stopped because its dual objective — a lower
	// bound on the optimum — passed Options.ObjLimit. Solution.Objective is
	// the bound reached; the optimum itself was not computed.
	ObjLimit
	// NumericalFailure: a cold solve's factorization collapsed and no answer
	// can be trusted. The Solution carries the status alone; the problem is
	// unsolved (branch and bound abandons the node, its bound kept open).
	NumericalFailure
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	case ObjLimit:
		return "objective-limit"
	case NumericalFailure:
		return "numerical-failure"
	}
	return "unknown"
}

// Solution holds the result of a solve.
type Solution struct {
	Status    Status
	Objective float64   // c·x at the returned point (Optimal), or the lower bound reached (ObjLimit)
	X         []float64 // structural variable values
	Iters     int       // simplex iterations used across both phases

	// Basis is the final simplex basis when the solve ended Optimal, in a
	// form SolveFrom can re-optimize from after a bound change. It is nil
	// on non-optimal outcomes and in the rare degenerate case where an
	// artificial variable remains basic.
	Basis *Basis

	// Solve telemetry (see internal/obs; the same figures feed the
	// process-wide lp.* counters).
	Phase1Iters      int  // iterations spent finding a feasible basis
	DegeneratePivots int  // pivots whose ratio-test step was below tolerance
	BlandPivots      int  // pivots taken under Bland's anti-cycling rule
	WarmStarted      bool // SolveFrom reused the given basis (no phase 1 ran)
	DualCold         bool // a cold solve started from the dual simplex (no phase 1 ran)
	DualIters        int  // dual-simplex iterations (warm path or dual cold start)
}

// Options tunes the solver.
type Options struct {
	// MaxIters caps total simplex iterations; 0 means automatic
	// (50·(rows+cols) + 1000).
	MaxIters int

	// ObjLimit, when UseObjLimit is set, lets SolveFrom's dual simplex stop
	// with status ObjLimit as soon as its objective exceeds the limit: every
	// basis it visits is dual-feasible, so by weak duality its objective is
	// a lower bound on the optimum, and a caller that only wants to know
	// whether the optimum can beat ObjLimit (branch and bound, with its
	// incumbent) needs no more. A cold solve has no such bound to watch and
	// ignores it.
	ObjLimit    float64
	UseObjLimit bool

	// Stop, when non-nil, is polled every stopPollIters iterations of
	// either simplex; once it reads true the solve ends IterLimit. It lets
	// a caller with a deadline (branch and bound's halt flag) interrupt an
	// LP in flight without the solver reading a clock.
	Stop *atomic.Bool
}

// stopPollIters is how often, in iterations, a solve reads Options.Stop: a
// power of two, so the poll is a mask test on the iteration count.
const stopPollIters = 32

// Numerical tolerances. These are deliberately package-level constants: the
// MILP layer above depends on the same notions of "zero".
const (
	pivTol  = 1e-9 // minimum |pivot element|
	feasTol = 1e-7 // bound/feasibility tolerance
	costTol = 1e-7 // reduced-cost optimality tolerance
)

// ErrBadBounds is returned when a lower bound is -Inf or exceeds the upper
// bound beyond tolerance.
var ErrBadBounds = errors.New("lp: invalid variable bounds")

// Process-wide solver counters (obs.Default, exported through expvar as
// raha.lp.*). Resolved once so the per-solve cost is a handful of atomic
// adds — noise next to even a single simplex pivot.
var (
	cSolves    = obs.Default.Counter("lp.solves")
	cIters     = obs.Default.Counter("lp.iterations")
	cPhase1    = obs.Default.Counter("lp.phase1_iterations")
	cDegen     = obs.Default.Counter("lp.degenerate_pivots")
	cBland     = obs.Default.Counter("lp.bland_pivots")
	cInfeas    = obs.Default.Counter("lp.infeasible")
	cUnbounded = obs.Default.Counter("lp.unbounded")
	cIterLimit = obs.Default.Counter("lp.iteration_limit")
	cObjLimit  = obs.Default.Counter("lp.objlimit_stops")
	cNumFail   = obs.Default.Counter("lp.numerical_failures")
	cDualIters = obs.Default.Counter("lp.dual_iterations")
)

// record folds one solve's telemetry into the process-wide counters and
// returns sol for tail-call convenience.
func record(sol *Solution) *Solution {
	cSolves.Inc()
	cIters.Add(int64(sol.Iters))
	cPhase1.Add(int64(sol.Phase1Iters))
	cDegen.Add(int64(sol.DegeneratePivots))
	cBland.Add(int64(sol.BlandPivots))
	cDualIters.Add(int64(sol.DualIters))
	switch sol.Status {
	case Infeasible:
		cInfeas.Inc()
	case Unbounded:
		cUnbounded.Inc()
	case IterLimit:
		cIterLimit.Inc()
	case ObjLimit:
		cObjLimit.Inc()
	case NumericalFailure:
		cNumFail.Inc()
	}
	return sol
}

// variable status within the simplex.
type vstat int8

const (
	atLower vstat = iota
	atUpper
	basic
)

// Solve minimizes p with the sparse revised simplex (sparse.go). A problem
// of at least coldDualRows rows starts from the dual simplex on the slack
// basis (Solution.DualCold); a smaller one runs the two-phase primal, and
// so does one whose slack basis is not dual feasible or leaves more than
// half its rows out of bounds, or whose dual start stalls or goes
// singular. A numerical collapse of the factorization is status
// NumericalFailure, counted as lp.numerical_failures — not an error, and
// there is no second solver.
func Solve(p *Problem, opt *Options) (*Solution, error) {
	c, err := p.prepare()
	if err != nil {
		return nil, err
	}
	return solveCold(p, c, opt), nil
}

// coldDualRows is the row count from which a cold solve starts from the
// dual simplex. Below it the two-phase primal runs. Measured on the
// benchmark's models after presolve (DESIGN.md §2.13): every cold LP of the
// Uninett, B4 and fleet workloads has fewer than 500 rows, and there the
// dual start grows the search trees; AfricaWAN's root LP has about 2,600
// and Cogentco's 950–1,750, and there it takes a fraction of the primal's
// pivots.
const coldDualRows = 600

// dualColdAll starts every cold solve from the dual, whatever its size and
// however many of its rows the slack basis leaves out of bounds. It is the
// tests' switch: internal/milp's -colddual=all pass sets it, so the dual
// start is checked on the random MILP corpus too. Nothing else does.
var dualColdAll bool

// solveCold is Solve on a prepared problem.
func solveCold(p *Problem, c *spCache, opt *Options) *Solution {
	if m := len(p.Rows); m >= coldDualRows || dualColdAll {
		maxViolated := m / 2
		if dualColdAll {
			maxViolated = m
		}
		sol, why := solveDualCold(p, c, opt, maxViolated)
		if why == dualStarted {
			cDualCold.Inc()
			return record(sol)
		}
		cDualColdFallbacks.Inc()
		cDualColdWhy[why].Inc()
	}
	sol, ok := solveSparse(p, c, opt)
	if !ok {
		sol = &Solution{Status: NumericalFailure}
	}
	return record(sol)
}

// prepare checks what may change between solves — the lengths of the cost
// and bound vectors, the bounds, NaN costs — and returns the sparse
// lowering, whose build checks the rows (buildCache): they may not change in
// place, so a cached lowering stands for rows already checked.
func (p *Problem) prepare() (*spCache, error) {
	if len(p.Cost) != p.NumVars || len(p.Lo) != p.NumVars || len(p.Hi) != p.NumVars {
		return nil, fmt.Errorf("lp: cost/bounds length must equal NumVars=%d", p.NumVars)
	}
	for j := 0; j < p.NumVars; j++ {
		if math.IsInf(p.Lo[j], -1) || math.IsNaN(p.Lo[j]) || math.IsNaN(p.Hi[j]) {
			return nil, fmt.Errorf("%w: variable %d lower bound must be finite", ErrBadBounds, j)
		}
		if p.Lo[j] > p.Hi[j]+feasTol {
			return nil, fmt.Errorf("%w: variable %d has Lo %g > Hi %g", ErrBadBounds, j, p.Lo[j], p.Hi[j])
		}
		if math.IsNaN(p.Cost[j]) {
			return nil, fmt.Errorf("lp: variable %d has a NaN cost", j)
		}
	}
	return p.cache()
}

func dot(c, x []float64) float64 {
	var s float64
	for i, ci := range c {
		s += ci * x[i]
	}
	return s
}
