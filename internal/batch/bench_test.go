package batch

import (
	"context"
	"testing"
	"time"
)

// BenchmarkFleetSweep sweeps the committed fixture corpus plus the built-in
// fleet with a 2×1×2 grid and reports the sweep's breadth throughput —
// cells/min and topos/min — next to the solver's nodes/sec (the gated
// measurement is the bench/ module's fleet_sweep workload). The corpus includes two poisoned files, so the
// benchmark also keeps the partial-failure path on the measured profile.
func BenchmarkFleetSweep(b *testing.B) {
	zoo, err := ZooDir("../topology/testdata")
	if err != nil {
		b.Fatal(err)
	}
	sources := append(Builtins(), zoo...)
	grid := Grid{
		MaxFailures: []int{0, 1},
		Thresholds:  []float64{1e-4},
		Demands:     []DemandModel{namedDemandModels["peak"], namedDemandModels["elastic"]},
	}
	var rep *Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err = Run(context.Background(), Config{
			Sources:       sources,
			Grid:          grid,
			Tolerance:     0.5,
			BudgetPerTopo: 30 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.CellsOK == 0 {
			b.Fatal("sweep produced no successful cells")
		}
	}
	b.ReportMetric(rep.CellsPerMin, "cells/min")
	b.ReportMetric(rep.ToposPerMin, "topos/min")
	b.ReportMetric(float64(rep.TopoFailed)+float64(rep.CellsFailed), "failures")
	// The ranked fragility head rides along, so two runs show when a
	// topology's worst cell moves, not just how fast the sweep ran.
	for i, fe := range rep.Ranking {
		if i == 3 {
			break
		}
		b.Logf("fragility #%d: %s %.3f×cap (%s)", i+1, fe.Name, fe.Normalized, fe.Cell)
	}
}
