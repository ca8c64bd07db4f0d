// Package modelcheck is a static diagnostic pass over MILP models — the
// stand-in for the presolve guardrails a commercial solver (Gurobi) gives
// the paper's implementation for free. It catches the modeling bugs that
// otherwise fail late, silently, or numerically in the stdlib solver:
// dangling variables, contradictory bounds, trivially infeasible rows,
// pathological coefficient ranges (bad Big-M magnitudes), duplicate rows,
// and NaN/Inf coefficients.
//
// No binary runs the pass: it is a test oracle. internal/metaopt's tests
// adapt every model shape the rewrite builds into a Model here and require
// it to come out without error- or warning-severity diagnostics. It takes
// no options: its tolerances are package tol's, its one threshold is a
// constant. The pass operates on a neutral model representation, importing
// only package tol, so that package milp can depend on it too: presolve's
// interval arithmetic is Activity and TermBounds. Every function is pure: no I/O, no globals,
// deterministic output order (variable checks first, then per-constraint
// checks in row order, then model-wide checks).
//
// The diagnostic catalogue — ids, severities, and what each means — is
// documented in DESIGN.md §2.7.
package modelcheck
