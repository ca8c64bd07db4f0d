// Package lp implements a self-contained linear-programming solver: a
// revised simplex method with bounded variables over a sparse constraint
// matrix held both column-wise (CSC) and row-wise (CSR).
//
// It is the foundation of the repository's optimization stack and stands in
// for the LP core of the commercial solver (Gurobi) that the Raha paper
// uses. Variable bounds are handled natively by the simplex (nonbasic
// variables may rest at either bound), so branch-and-bound in package milp
// can tighten bounds without growing the constraint matrix.
//
// The solver (sparse.go) maintains an LU factorization of the basis
// with partial pivoting plus a product-form eta file that absorbs basis
// changes between refactorizations; refactorization triggers on eta-chain
// length, a small eta pivot, or accumulated growth (lu.go). The basis is
// eliminated in a static triangular order — unit (slack) columns first,
// then structural columns by nonzero count — which keeps L nearly empty on
// the mostly-slack bases branch and bound produces. Factorization,
// FTRAN/BTRAN and the pivot row all cost what they touch rather than the
// basis dimension, while doing exactly the arithmetic of their
// straightforward versions (kept as references in lu_ref_test.go). Ratio
// tests use a Harris-style two-pass scheme that trades bounded
// infeasibility within the feasibility tolerance for larger, more stable
// pivots, and problems are equilibrated at load with power-of-two
// geometric-mean row/column scaling that is undone exactly on extraction.
// Per-Problem workspaces (Problem.sp) amortize all of this to near-zero
// allocation per re-solve under branch and bound. DESIGN.md §2.13 is the
// full writeup.
//
// The original dense-tableau two-phase solver is the referee on the test
// side (dense_ref_test.go): the equivalence tests call it directly on every
// corpus instance, and no binary links it. A cold solve whose factorization
// collapses numerically ends with status NumericalFailure, counted as
// lp.numerical_failures — there is no second solver to fall back to.
//
// Optimal solutions carry their final simplex basis (Solution.Basis), and
// SolveFrom re-solves a problem from such a basis: it refactorizes the
// basis and runs bounded-variable dual simplex instead of the two-phase
// method, which is how branch-and-bound warm-starts child nodes after a
// single bound change. When a basis cannot be reused — wrong shape,
// singular after the bound change, or dual-infeasible — SolveFrom falls
// back to a cold Solve; the fallback rules and tolerances are in
// DESIGN.md §2.8.
//
// The solver minimizes; callers that maximize negate their objective.
package lp
