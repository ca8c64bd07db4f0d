package te

import (
	"math"
	"testing"

	"raha/internal/paths"
	"raha/internal/topology"
)

// line builds A-B-C with capacities 10, 5.
func line() (*topology.Topology, []topology.Node) {
	t := topology.New()
	a := t.AddNode("A")
	b := t.AddNode("B")
	c := t.AddNode("C")
	t.MustAddLAG(a, b, []topology.Link{{Capacity: 10}})
	t.MustAddLAG(b, c, []topology.Link{{Capacity: 5}})
	return t, []topology.Node{a, b, c}
}

func diamond() (*topology.Topology, []topology.Node) {
	t := topology.New()
	a := t.AddNode("A")
	b := t.AddNode("B")
	c := t.AddNode("C")
	d := t.AddNode("D")
	l := func(cp float64) []topology.Link { return []topology.Link{{Capacity: cp}} }
	t.MustAddLAG(a, b, l(10))
	t.MustAddLAG(a, c, l(10))
	t.MustAddLAG(b, d, l(10))
	t.MustAddLAG(c, d, l(10))
	return t, []topology.Node{a, b, c, d}
}

func TestMaxTotalFlowBottleneck(t *testing.T) {
	top, n := line()
	dps, err := paths.Compute(top, [][2]topology.Node{{n[0], n[2]}}, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MaxTotalFlow(top, dps, []float64{100}, FullCapacities(top), HealthyActive(dps))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || math.Abs(res.Objective-5) > 1e-6 {
		t.Fatalf("objective = %g, want 5 (bottleneck)", res.Objective)
	}
}

func TestMaxTotalFlowTwoPaths(t *testing.T) {
	top, n := diamond()
	dps, err := paths.Compute(top, [][2]topology.Node{{n[0], n[3]}}, 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MaxTotalFlow(top, dps, []float64{100}, FullCapacities(top), HealthyActive(dps))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Objective-20) > 1e-6 {
		t.Fatalf("objective = %g, want 20 (two disjoint 10-paths)", res.Objective)
	}
	if math.Abs(res.PerDemand[0]-20) > 1e-6 {
		t.Fatalf("per-demand = %v", res.PerDemand)
	}
}

func TestMaxTotalFlowRespectsDemand(t *testing.T) {
	top, n := diamond()
	dps, _ := paths.Compute(top, [][2]topology.Node{{n[0], n[3]}}, 2, 0, nil)
	res, err := MaxTotalFlow(top, dps, []float64{7}, FullCapacities(top), HealthyActive(dps))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Objective-7) > 1e-6 {
		t.Fatalf("objective = %g, want 7 (demand-capped)", res.Objective)
	}
}

func TestMaxTotalFlowInactiveBackups(t *testing.T) {
	top, n := diamond()
	dps, _ := paths.Compute(top, [][2]topology.Node{{n[0], n[3]}}, 1, 1, nil)
	// Healthy: only the single primary path is usable.
	res, err := MaxTotalFlow(top, dps, []float64{100}, FullCapacities(top), HealthyActive(dps))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Objective-10) > 1e-6 {
		t.Fatalf("objective = %g, want 10 (backup locked)", res.Objective)
	}
	// Activate everything: 20.
	all := HealthyActive(dps)
	for j := range all[0] {
		all[0][j] = true
	}
	res2, _ := MaxTotalFlow(top, dps, []float64{100}, FullCapacities(top), all)
	if math.Abs(res2.Objective-20) > 1e-6 {
		t.Fatalf("objective = %g, want 20", res2.Objective)
	}
}

func TestMaxTotalFlowSharedCapacity(t *testing.T) {
	// Two demands sharing the B-C bottleneck.
	top, n := line()
	pairs := [][2]topology.Node{{n[0], n[2]}, {n[1], n[2]}}
	dps, _ := paths.Compute(top, pairs, 1, 0, nil)
	res, err := MaxTotalFlow(top, dps, []float64{10, 10}, FullCapacities(top), HealthyActive(dps))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Objective-5) > 1e-6 {
		t.Fatalf("objective = %g, want 5 (shared bottleneck)", res.Objective)
	}
}

func TestMaxTotalFlowInputErrors(t *testing.T) {
	top, n := line()
	dps, _ := paths.Compute(top, [][2]topology.Node{{n[0], n[2]}}, 1, 0, nil)
	if _, err := MaxTotalFlow(top, dps, []float64{1, 2}, FullCapacities(top), HealthyActive(dps)); err == nil {
		t.Fatal("volume count mismatch must error")
	}
	if _, err := MaxTotalFlow(top, dps, []float64{1}, []float64{1}, HealthyActive(dps)); err == nil {
		t.Fatal("capacity count mismatch must error")
	}
	if _, err := MaxTotalFlow(top, dps, []float64{1}, FullCapacities(top), [][]bool{{true, true}}); err == nil {
		t.Fatal("active shape mismatch must error")
	}
	if _, err := MaxTotalFlow(top, dps, []float64{1}, FullCapacities(top), nil); err == nil {
		t.Fatal("nil active must error")
	}
}

func TestMinMLU(t *testing.T) {
	top, n := diamond()
	dps, _ := paths.Compute(top, [][2]topology.Node{{n[0], n[3]}}, 2, 0, nil)
	res, err := MinMLU(top, dps, []float64{10}, FullCapacities(top), HealthyActive(dps))
	if err != nil {
		t.Fatal(err)
	}
	// 10 units split across two 2-hop paths of capacity 10: U = 0.5.
	if !res.Feasible || math.Abs(res.Objective-0.5) > 1e-6 {
		t.Fatalf("MLU = %g, want 0.5", res.Objective)
	}
}

func TestMinMLUInfeasibleWhenDisconnected(t *testing.T) {
	top, n := diamond()
	dps, _ := paths.Compute(top, [][2]topology.Node{{n[0], n[3]}}, 2, 0, nil)
	caps := FullCapacities(top)
	caps[0], caps[1] = 0, 0 // both A-exits dead ⇒ demand cannot route
	res, err := MinMLU(top, dps, []float64{10}, caps, HealthyActive(dps))
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatal("must be infeasible with both paths cut")
	}
}

func TestMinMLUZeroCapacityLAGBlocksFlow(t *testing.T) {
	top, n := diamond()
	dps, _ := paths.Compute(top, [][2]topology.Node{{n[0], n[3]}}, 2, 0, nil)
	caps := FullCapacities(top)
	caps[0] = 0 // kill A-B: all 10 units go via A-C-D, U = 1.
	res, err := MinMLU(top, dps, []float64{10}, caps, HealthyActive(dps))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || math.Abs(res.Objective-1) > 1e-6 {
		t.Fatalf("MLU = %g, want 1", res.Objective)
	}
}

func TestMaxMinBinnedFairness(t *testing.T) {
	// Two demands share a 10-unit bottleneck; max-min should split ~5/5
	// even though total-flow would be indifferent.
	top := topology.New()
	a := top.AddNode("A")
	b := top.AddNode("B")
	c := top.AddNode("C")
	d := top.AddNode("D")
	l := func(cp float64) []topology.Link { return []topology.Link{{Capacity: cp}} }
	top.MustAddLAG(a, c, l(100))
	top.MustAddLAG(b, c, l(100))
	top.MustAddLAG(c, d, l(10))
	dps, err := paths.Compute(top, [][2]topology.Node{{a, d}, {b, d}}, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MaxMinBinned(top, dps, []float64{100, 100}, FullCapacities(top), HealthyActive(dps), BinnerConfig{Base: 1, Ratio: 2, Bins: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("infeasible")
	}
	// Geometric binning is fair up to the granularity of the marginal bin:
	// every demand must clear the shared bins below the bottleneck share
	// (a pure total-flow objective could legally return 10/0 here).
	if res.PerDemand[0] < 3 || res.PerDemand[1] < 3 {
		t.Fatalf("binned max-min starves a demand: %v", res.PerDemand)
	}
	if math.Abs(res.PerDemand[0]+res.PerDemand[1]-10) > 1e-6 {
		t.Fatalf("bottleneck must saturate: %v", res.PerDemand)
	}
}
