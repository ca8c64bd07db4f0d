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
// basis dimension: each solve carries the support of its vector as a
// bitset, walks it in the order the straightforward loop scanned, and
// returns the support of its result, so pricing, both ratio tests and the
// eta update walk only the nonzeros too — while doing exactly the
// arithmetic of the straightforward versions (kept as references in
// lu_ref_test.go), so every pivot is theirs. Ratio tests use a Harris-style two-pass scheme that trades bounded
// infeasibility within the feasibility tolerance for larger, more stable
// pivots, and problems are equilibrated at load with power-of-two
// geometric-mean row/column scaling that is undone exactly on extraction.
// Per-Problem workspaces (Problem.sp) amortize all of this to near-zero
// allocation per re-solve under branch and bound; Problem.Release hands a
// workspace on to the next Problem lowered, and Problem.Recycle a Solution's
// storage to the next solve. DESIGN.md §2.13 is the full writeup.
//
// The original dense-tableau two-phase solver is the referee on the test
// side (dense_ref_test.go): the equivalence tests call it directly on every
// corpus instance, and no binary links it. A cold solve whose factorization
// collapses numerically ends with status NumericalFailure, counted as
// lp.numerical_failures — there is no second solver to fall back to.
//
// A cold Solve takes one of two starts, chosen by size alone. A problem of
// at least coldDualRows rows (600) starts from the bounded dual simplex on
// the slack basis, each structural resting at the bound its cost sign makes
// dual feasible: no artificials and no phase 1. A smaller one runs the
// two-phase primal (artificials where a slack cannot carry its row, phase 1
// on their sum, then phase 2). The dual start gives way to the two-phase
// primal when the slack basis is not dual feasible (a negative cost with no
// upper bound) or leaves more than half its rows out of bounds, or when it
// stalls or its basis goes singular; lp.dual_cold_starts and
// lp.dual_cold_fallbacks.* count both outcomes.
//
// Optimal solutions carry their final simplex basis (Solution.Basis), and
// SolveFrom re-solves a problem from such a basis: it refactorizes the
// basis and runs the same dual start from it, which is how branch and bound
// warm-starts child nodes after a single bound change. When the basis is,
// slot for slot, the one the Problem's workspace factorized last, the warm
// start reuses those factors (and their reduced costs, when the costs are
// unchanged) instead: they are the bits a refactorization would produce, so
// the pivots are the same. When a basis cannot be reused — wrong shape,
// singular after the bound change, or dual-infeasible — or the warm dual
// stalls, SolveFrom falls back to a cold Solve; the fallback rules and
// tolerances are in DESIGN.md §2.8.
//
// The solver minimizes; callers that maximize negate their objective.
package lp
