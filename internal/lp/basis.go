package lp

import "raha/internal/obs"

// BasisStatus is the bound status of one column in a simplex basis: resting
// at its lower bound, resting at its upper bound, or basic.
type BasisStatus int8

// Column statuses of a Basis.
const (
	BasisAtLower BasisStatus = iota
	BasisAtUpper
	BasisBasic
)

// Basis is the final simplex basis of a solve in an exportable form:
// the basic column per constraint row plus the bound status of every
// column. Columns are the problem's structural variables (0..NumVars-1)
// followed by one slack per row (NumVars..NumVars+rows-1); artificial
// variables never appear (a solve whose optimal basis still contains an
// artificial exports no basis).
//
// A Basis is position-based, not value-based: it remains meaningful for any
// problem with the same rows and objective but different variable bounds,
// which is exactly how branch and bound re-solves a child node — see
// SolveFrom.
type Basis struct {
	Basic []int         // basic column per row, length = number of rows
	Stat  []BasisStatus // status per column, length = NumVars + rows
}

// valid reports whether the basis is structurally consistent for a problem
// with m rows and n = NumVars+m columns: correct lengths, exactly m basic
// columns, and every entry of Basic one of them. That Basic names no column
// twice is checked where the solver inverts it into its column → slot map
// (initWarm), which needs no scratch: SolveFrom runs once per
// branch-and-bound node and must not allocate to validate.
func (b *Basis) valid(m, n int) bool {
	if b == nil || len(b.Basic) != m || len(b.Stat) != n {
		return false
	}
	nBasic := 0
	for _, s := range b.Stat {
		if s == BasisBasic {
			nBasic++
		}
	}
	if nBasic != m {
		return false
	}
	for _, q := range b.Basic {
		if q < 0 || q >= n || b.Stat[q] != BasisBasic {
			return false
		}
	}
	return true
}

// warmPivTol is the minimum acceptable pivot magnitude while factorizing
// an inherited basis. It is deliberately coarser than pivTol: a basis this
// close to singular is numerically untrustworthy and the cold two-phase
// path is the safe answer.
const warmPivTol = 1e-7

// dualFeasTol is the reduced-cost tolerance for accepting an inherited
// basis as dual-feasible. Looser than costTol: refactorization drift on a
// genuinely dual-feasible parent basis must not force a cold fallback.
const dualFeasTol = 1e-6

// Warm-path counters (obs.Default, exported through expvar as raha.lp.*).
var (
	cWarm       = obs.Default.Counter("lp.warm_solves")
	cDualIters  = obs.Default.Counter("lp.dual_iterations")
	cDualStalls = obs.Default.Counter("lp.dual_stalls") // warm solves given up to a dual-degenerate streak
)

// SolveFrom re-optimizes p starting from a basis exported by a previous
// solve of a problem with the same rows and objective (typically the parent
// node of a branch-and-bound search, which differs only in one variable's
// bounds). The basis is refactorized (LU, partial pivoting); if the inherited
// point is primal-infeasible under the new bounds — the normal case after a
// branching bound change — a bounded-variable dual simplex phase restores
// feasibility before the primal phase finishes the solve.
//
// Phase 1 never runs on the warm path, so Solution.Phase1Iters is 0 and
// Solution.WarmStarted is true. When the basis is unusable — nil, built for
// a different problem shape, singular under the new bounds, or no longer
// dual-feasible — or the warm solve collapses numerically, SolveFrom falls
// back to the cold two-phase Solve and WarmStarted is false.
func SolveFrom(p *Problem, b *Basis, opt *Options) (*Solution, error) {
	if err := validate(p); err != nil {
		return nil, err
	}
	if m := len(p.Rows); b.valid(m, p.NumVars+m) {
		if sol, ok := solveFromSparse(p, b, opt); ok {
			cWarm.Inc()
			cDualIters.Add(int64(sol.DualIters))
			return record(sol), nil
		}
	}
	return Solve(p, opt)
}
