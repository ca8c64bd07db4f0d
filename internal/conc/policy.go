package conc

// Split divides a budget of workers (< 1 selects runtime.GOMAXPROCS(0))
// over units independent solves, returning how many of them to run at once
// and the worker count each gets. Independent solves scale embarrassingly
// while workers inside one solve fight over one search tree, so the
// fan-out is filled first and only the leftover goes inside a solve:
//
//	units ≥ workers  →  workers × 1         (enough solves to fill the budget)
//	units ≤ 1        →  1 × workers         (one big solve gets all of it)
//	in between       →  units × workers/units
//
// Both returns are ≥ 1, fanout never exceeds max(units, 1), and
// fanout·perSolve never exceeds the budget.
func Split(workers, units int) (fanout, perSolve int) {
	w := Workers(workers)
	if units < 1 {
		units = 1
	}
	if units >= w {
		return w, 1
	}
	return units, w / units
}
