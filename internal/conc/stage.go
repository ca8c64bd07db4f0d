package conc

import (
	"context"

	"raha/internal/obs"
)

// Stage runs one stage of units independent jobs under a budget of workers
// (< 1 selects runtime.GOMAXPROCS(0)): Split divides the budget, tr (when
// non-nil) receives the split as a layer/"parallelism" event (units,
// fanout, solver_workers), and fn(ctx, i, perSolve) runs for every i in
// [0, units), fanout at a time, through ForEach — perSolve is the budget
// each job hands to the solve below it. Returns ForEach's first error.
// Every fan-out over independent solves (a fleet sweep's topologies, a
// clustered analysis's waves, an experiment's grid) is one call of this.
func Stage(ctx context.Context, tr obs.Tracer, layer string, units, workers int, fn func(ctx context.Context, i, perSolve int) error) error {
	fanout, perSolve := Split(workers, units)
	if tr != nil {
		tr.Emit(layer, "parallelism", obs.F{
			"units":          units,
			"fanout":         fanout,
			"solver_workers": perSolve,
		})
	}
	return ForEach(ctx, units, fanout, func(ctx context.Context, i int) error {
		return fn(ctx, i, perSolve)
	})
}
