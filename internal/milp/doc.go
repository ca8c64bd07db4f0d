// Package milp provides a mixed-integer linear programming layer on top of
// package lp: a modeling API (variables, linear expressions, constraints),
// exact linearization helpers for the constructs Raha needs (binary ×
// continuous products, integer indicator constraints), and a
// branch-and-bound solver with incumbents, node and time limits, and a
// relative MIP-gap stop — the stand-in for the Gurobi backend the paper
// uses, including its timeout-with-incumbent behaviour.
//
// The search is one worker loop over per-worker local queues, as wide as
// Params.Workers says (the only thing this package knows about width
// besides AutoWidth's root-LP shrink; dividing a budget between concurrent
// solves is the caller's conc.Split) — a best-bound heap when the pool is
// one worker, work-stealing deques otherwise (scheduler.go) — with a
// lock-free incumbent and a min-reduced dual bound. Branching is
// pseudocost branching trusted from each variable's first observation per
// direction (pseudocost.go); a solve that has claimed as many nodes as its
// searched model has integer variables restarts once from the root with
// the table it has learned, keeping its incumbent and proved bound
// (scheduler.go's restart). Each node below the
// root warm-starts its LP relaxation from the parent's simplex basis via
// lp.SolveFrom, stopping early once its dual bound passes the incumbent;
// under AutoWidth the root itself warm-starts from the width probe's basis. The LP core underneath is package lp's
// sparse revised simplex, the only one: branch and bound sees only
// Solve/SolveFrom and Solution.Basis, and abandons a node whose LP ends
// IterLimit or NumericalFailure with its bound kept open — including the
// node whose LP a halt interrupted (lp.Options.Stop). Each worker counts
// its own work into a plain Stats, and Result.Stats is their sum; a Stats
// field's tags name its solve_end key and process counter. Wall clocks are
// read only on an observed solve (a Tracer or OnProgress). DESIGN.md §2.14
// covers the scheduler, §2.8 the warm starts, §2.6 the counters.
package milp
