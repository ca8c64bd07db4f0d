package batch

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// oneCellB4 is one cell of the default grid — k=2, p=1e-4, the peak demand
// model — on the built-in B4, swept serially with no tracer.
func oneCellB4() Config {
	g := DefaultGrid()
	return Config{
		Sources: Builtins()[:1],
		Grid: Grid{
			MaxFailures: g.MaxFailures[1:],
			Thresholds:  g.Thresholds[:1],
			Demands:     g.Demands[:1],
		},
		Tolerance:     0.5,
		BudgetPerTopo: time.Minute,
		Workers:       1,
	}
}

// Per-cell allocation budget: what one default-grid cell on B4 costs the
// garbage collector, end to end — pair ranking, tunnels, both phases' model
// builds, presolves and searches, the verification re-simulation. Measured
// at 2,031 allocations and 231 KB per cell (2,561 and 260 KB while every
// model variable and row carried a name; 5,897 and 625 KB before the tunnel
// workspace, the compact pair ranking and the LP/MILP scratch that outlives
// a solve). The allocation count is exact from run to run (one worker, the
// free lists warm) and the bytes move by well under 1%; the budgets leave
// 15% for Go releases.
const (
	cellAllocBudget = 2336
	cellByteBudget  = 260 << 10
)

func TestCellAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds its own allocations; ci.sh runs this test without it")
	}
	cfg := oneCellB4()
	run := func() {
		rep, err := Run(context.Background(), cfg)
		if err != nil || rep.CellsOK != 1 {
			t.Fatalf("sweep: %v, %d cells ok", err, rep.CellsOK)
		}
	}
	run() // warm: the free lists now hold a cell's workspaces
	allocs := testing.AllocsPerRun(5, run)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 5
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("one default-grid B4 cell: %.0f allocations, %d bytes", allocs, bytes)
	if allocs > cellAllocBudget {
		t.Errorf("one default-grid B4 cell: %.0f allocations, budget %d", allocs, cellAllocBudget)
	}
	if bytes > cellByteBudget {
		t.Errorf("one default-grid B4 cell: %d bytes, budget %d", bytes, cellByteBudget)
	}
}
