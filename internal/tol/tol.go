// Package tol declares the numerical tolerances that more than one layer
// must agree on, so that package lp's simplex, package milp's presolve and
// branching, and the model-check catalogue in internal/metaopt's tests share
// one notion of "feasible" and "integral". It imports nothing.
package tol

const (
	// Feas is the primal feasibility tolerance: package lp accepts a bound
	// or row violated by at most Feas (relative to 1 + |rhs| in milp's
	// presolve and knapsack), presolve declares a row infeasible only when
	// the LP would agree, and the model check's trivially-infeasible and
	// trivially-redundant tests mean the same.
	Feas = 1e-7

	// Int is the integrality tolerance: milp's branching, auto width and
	// presolve treat a value within Int of an integer as integral, and
	// the model check's int-bounds test does too.
	Int = 1e-6
)
