// Package metaopt implements Raha's core: a MetaOpt-style bilevel analyzer
// that finds the failure scenario and demand matrix maximizing the gap
// between a network's design point (the healthy network) and the network
// under failure (§4.1, §5).
//
// # How the bilevel problem becomes a single MILP
//
// MetaOpt solves max_I [H(I) − H'(I)] where the adversary controls the
// input I (demands and failures), H is the healthy network's optimum and H'
// the failed network's optimum. Two observations make this a single-level
// MILP (DESIGN.md §2.1):
//
//  1. The healthy inner problem maximizes the same direction as the outer
//     problem, so its variables fold directly into the outer model.
//
//  2. The failed inner problem is an LP whose value the outer problem wants
//     small. By LP duality, H'(I) = min over dual-feasible y of dual(y; I),
//     so introducing the dual variables as outer variables and letting the
//     outer maximization minimize the dual objective yields exactly H'(I)
//     at the optimum — no explicit strong-duality constraint is needed.
//
// The dual objective contains products of outer variables with dual
// variables. All are linearized exactly:
//
//   - capacity × dual: c_e = Σ_l c_le(1−u_le) with binary u_le, so c_e·β_e
//     expands into binary×continuous McCormick products;
//   - demand × dual: demands are quantized into a binary expansion
//     (MetaOpt's demand pinning), again binary×continuous;
//   - path-gate × dual: the Eq. 5 fail-over indicator is binary, and the
//     gate capacity is the constant demand upper bound (equivalent to the
//     paper's d_k·I(...) form for gating purposes).
//
// For the total-flow objective the failed network's duals can be restricted
// to [0,1] without loss of optimality: every dual constraint has the form
// α + Σβ + γ ≥ 1 with all coefficients 1, so clamping any component to 1
// keeps the constraint satisfied wherever that component appears, and the
// clamped solution's (nonnegative-weighted) objective can only move toward
// the primal optimum, which weak duality bounds from below.
//
// None of this depends on the objective (Appendix A applies it unchanged),
// so one builder runs it for all three (build, in rewrite.go), and each
// objective supplies only a formulation: its TE LP, its healthy fold, its
// failed dual and the sign of its degradation (totalflow.go, mlu.go,
// maxmin.go).
package metaopt
