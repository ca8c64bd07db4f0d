// Package fixture is the raha-lint test corpus for the two single-file
// rules, float-cmp and hot-loop-time: each has deliberate violations and
// legal near-misses (the other rules have a fixture package each). Lines
// that must be flagged carry a trailing marker comment naming the rule (the
// word "want", a colon, the rule); the linter's tests compare its findings
// against these markers, so the file must compile but is never imported.
package fixture

import "time"

// --- float-cmp ---------------------------------------------------------------

func floatCmp(a, b float64, xs []float64) bool {
	if a == b { // want:float-cmp
		return true
	}
	if a != xs[0] { // want:float-cmp
		return false
	}
	if a == 0 { // legal: constant sentinel comparison
		return false
	}
	const tol = 1e-9
	if a != tol { // legal: one side is a compile-time constant
		return false
	}
	d := a - b
	if d != d { // want:float-cmp
		return true // NaN check spelled manually; use math.IsNaN
	}
	//raha:lint-allow float-cmp exact bit-pattern comparison is the point here
	return a == b
}

func intCmp(a, b int) bool { return a == b } // legal: not floats

// --- hot-loop-time is exercised in hotloop.go (it only fires inside the
// solver packages, which the test harness simulates by overriding the
// package path) -----------------------------------------------------------

func notSolverLoop() time.Duration {
	var total time.Duration
	for i := 0; i < 3; i++ {
		total += time.Second // legal: constant, and not a solver package anyway
	}
	return total
}
