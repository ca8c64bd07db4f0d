// Package te implements the traffic-engineering optimizations Raha analyzes:
// the paper's production objective (maximize total demand met, Eq. 2 — the
// SWAN/B4 family), minimize-MLU (Appendix A), and a single-shot max-min
// fairness approximation via geometric binning (Appendix A). Appendix C's
// edge-form multi-commodity flow lives in internal/augment's new-LAG MILP.
//
// Every solver takes explicit per-LAG capacities and per-path availability
// flags, so the same formulations serve the healthy network (full
// capacities, primary paths only) and any failure scenario (reduced
// capacities, fail-over-activated backups).
package te

import (
	"fmt"
	"math"

	"raha/internal/lp"
	"raha/internal/paths"
	"raha/internal/topology"
)

// Result is the outcome of a TE solve.
type Result struct {
	Feasible  bool
	Objective float64     // total flow, MLU value, or binned utility
	PerDemand []float64   // flow routed per demand
	PathFlows [][]float64 // flow per demand per path (0 for inactive paths)
}

// HealthyActive returns the paper's design-point availability: primary
// paths usable, backups locked (they activate only on failure).
func HealthyActive(dps []paths.DemandPaths) [][]bool {
	act := make([][]bool, len(dps))
	for k, dp := range dps {
		act[k] = make([]bool, len(dp.Paths))
		for j := 0; j < dp.Primary; j++ {
			act[k][j] = true
		}
	}
	return act
}

// FullCapacities returns each LAG's nominal capacity.
func FullCapacities(t *topology.Topology) []float64 {
	caps := make([]float64, t.NumLAGs())
	for i := range caps {
		caps[i] = t.LAG(i).Capacity()
	}
	return caps
}

// flowVars enumerates one LP variable per active path and returns the
// mapping plus, per LAG, the variables that traverse it.
func flowVars(t *topology.Topology, dps []paths.DemandPaths, active [][]bool) (varOf [][]int, byLAG [][]int, n int) {
	varOf = make([][]int, len(dps))
	byLAG = make([][]int, t.NumLAGs())
	for k, dp := range dps {
		varOf[k] = make([]int, len(dp.Paths))
		for j := range dp.Paths {
			if !active[k][j] {
				varOf[k][j] = -1
				continue
			}
			varOf[k][j] = n
			for _, e := range dp.Paths[j].LAGs {
				byLAG[e] = append(byLAG[e], n)
			}
			n++
		}
	}
	return varOf, byLAG, n
}

func extract(dps []paths.DemandPaths, varOf [][]int, x []float64) (per []float64, flows [][]float64) {
	per = make([]float64, len(dps))
	flows = make([][]float64, len(dps))
	for k, dp := range dps {
		flows[k] = make([]float64, len(dp.Paths))
		for j := range dp.Paths {
			if v := varOf[k][j]; v >= 0 {
				flows[k][j] = x[v]
				per[k] += x[v]
			}
		}
	}
	return per, flows
}

func checkInputs(t *topology.Topology, dps []paths.DemandPaths, volumes, caps []float64, active [][]bool) error {
	if len(volumes) != len(dps) {
		return fmt.Errorf("te: %d volumes for %d demands", len(volumes), len(dps))
	}
	if len(caps) != t.NumLAGs() {
		return fmt.Errorf("te: %d capacities for %d LAGs", len(caps), t.NumLAGs())
	}
	if len(active) != len(dps) {
		return fmt.Errorf("te: %d active rows for %d demands", len(active), len(dps))
	}
	for k, dp := range dps {
		if len(active[k]) != len(dp.Paths) {
			return fmt.Errorf("te: demand %d has %d active flags for %d paths", k, len(active[k]), len(dp.Paths))
		}
	}
	return nil
}

// MaxTotalFlow solves Eq. 2: maximize Σ_k f_k subject to demand and LAG
// capacity constraints, over the active paths only.
func MaxTotalFlow(t *topology.Topology, dps []paths.DemandPaths, volumes, caps []float64, active [][]bool) (*Result, error) {
	return MaxTotalFlowWithPathCaps(t, dps, volumes, caps, active, nil)
}

// MaxTotalFlowWithPathCaps is MaxTotalFlow with an optional per-path upper
// bound (same shape as active). It implements the §5.1 naive fail-over
// reaction, where each path may carry at most what its corresponding
// primary carried in the healthy network.
func MaxTotalFlowWithPathCaps(t *topology.Topology, dps []paths.DemandPaths, volumes, caps []float64, active [][]bool, pathCaps [][]float64) (*Result, error) {
	if err := checkInputs(t, dps, volumes, caps, active); err != nil {
		return nil, err
	}
	if pathCaps != nil && len(pathCaps) != len(dps) {
		return nil, fmt.Errorf("te: %d path-cap rows for %d demands", len(pathCaps), len(dps))
	}
	varOf, byLAG, n := flowVars(t, dps, active)
	p := lp.NewProblem(n)
	for i := 0; i < n; i++ {
		p.Cost[i] = -1 // maximize total flow
	}
	if pathCaps != nil {
		for k := range dps {
			for j := range dps[k].Paths {
				if v := varOf[k][j]; v >= 0 && pathCaps[k][j] < p.Hi[v] {
					p.Hi[v] = pathCaps[k][j]
				}
			}
		}
	}
	for k := range dps {
		var idx []int
		for j := range dps[k].Paths {
			if v := varOf[k][j]; v >= 0 {
				idx = append(idx, v)
			}
		}
		if len(idx) == 0 {
			continue
		}
		p.AddRow(idx, ones(len(idx)), lp.LE, volumes[k])
	}
	for e, vars := range byLAG {
		if len(vars) == 0 {
			continue
		}
		p.AddRow(vars, ones(len(vars)), lp.LE, caps[e])
	}
	sol, err := lp.Solve(p, nil)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return &Result{}, nil
	}
	per, flows := extract(dps, varOf, sol.X)
	return &Result{Feasible: true, Objective: -sol.Objective, PerDemand: per, PathFlows: flows}, nil
}

// MinMLU solves the Appendix A objective: minimize the maximum link
// utilization U subject to routing every demand in full. A failed LAG
// (capacity 0) admits no flow; the problem is infeasible when a demand is
// disconnected — the reason the paper pairs MLU with connectivity-enforced
// constraints.
func MinMLU(t *topology.Topology, dps []paths.DemandPaths, volumes, caps []float64, active [][]bool) (*Result, error) {
	if err := checkInputs(t, dps, volumes, caps, active); err != nil {
		return nil, err
	}
	varOf, byLAG, n := flowVars(t, dps, active)
	uVar := n // the MLU variable
	p := lp.NewProblem(n + 1)
	p.Cost[uVar] = 1
	p.Hi[uVar] = 1e9
	for k := range dps {
		var idx []int
		for j := range dps[k].Paths {
			if v := varOf[k][j]; v >= 0 {
				idx = append(idx, v)
			}
		}
		if len(idx) == 0 {
			if volumes[k] > 0 {
				return &Result{}, nil // no usable path but demand must route
			}
			continue
		}
		p.AddRow(idx, ones(len(idx)), lp.EQ, volumes[k])
	}
	for e, vars := range byLAG {
		if len(vars) == 0 {
			continue
		}
		// Σ flows − U·cap ≤ 0
		idx := append(append([]int(nil), vars...), uVar)
		coef := ones(len(vars))
		coef = append(coef, -caps[e])
		p.AddRow(idx, coef, lp.LE, 0)
	}
	sol, err := lp.Solve(p, nil)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return &Result{}, nil
	}
	per, flows := extract(dps, varOf, sol.X[:n])
	return &Result{Feasible: true, Objective: sol.X[uVar], PerDemand: per, PathFlows: flows}, nil
}

// BinnerConfig parameterizes the geometric-binning max-min approximation.
type BinnerConfig struct {
	Bins  int     // number of utility bins; 0 defaults to 6
	Base  float64 // width of the first bin; 0 defaults to max volume / 2^(Bins-1)
	Ratio float64 // geometric growth of bin widths; 0 defaults to 2
}

// MaxMinBinned approximates single-shot max-min fairness with Soroush-style
// geometric binning (Appendix A): demand k's flow is split across bins of
// geometrically growing width, early bins earn geometrically higher weight,
// and the LP maximizes total weighted utility. Early units of every demand
// dominate later units of any demand, approximating a max-min allocation in
// one shot.
func MaxMinBinned(t *topology.Topology, dps []paths.DemandPaths, volumes, caps []float64, active [][]bool, cfg BinnerConfig) (*Result, error) {
	if err := checkInputs(t, dps, volumes, caps, active); err != nil {
		return nil, err
	}
	if cfg.Bins <= 0 {
		cfg.Bins = 6
	}
	if cfg.Ratio <= 1 {
		cfg.Ratio = 2
	}
	if cfg.Base <= 0 {
		maxV := 0.0
		for _, v := range volumes {
			maxV = math.Max(maxV, v)
		}
		if maxV == 0 {
			maxV = 1
		}
		cfg.Base = maxV / math.Pow(cfg.Ratio, float64(cfg.Bins-1))
	}

	varOf, byLAG, n := flowVars(t, dps, active)
	// Bin variables per demand.
	binVar := make([][]int, len(dps))
	tot := n
	for k := range dps {
		binVar[k] = make([]int, cfg.Bins)
		for b := 0; b < cfg.Bins; b++ {
			binVar[k][b] = tot
			tot++
		}
	}
	p := lp.NewProblem(tot)
	width := cfg.Base
	weight := 1.0
	for b := 0; b < cfg.Bins; b++ {
		for k := range dps {
			p.Hi[binVar[k][b]] = width
			p.Cost[binVar[k][b]] = -weight // maximize
		}
		width *= cfg.Ratio
		weight /= cfg.Ratio
	}
	for k := range dps {
		var idx []int
		for j := range dps[k].Paths {
			if v := varOf[k][j]; v >= 0 {
				idx = append(idx, v)
			}
		}
		// Σ bins = Σ path flows (f_k expressed both ways).
		row := append([]int(nil), idx...)
		coef := ones(len(idx))
		for b := 0; b < cfg.Bins; b++ {
			row = append(row, binVar[k][b])
			coef = append(coef, -1)
		}
		if len(row) > 0 {
			p.AddRow(row, coef, lp.EQ, 0)
		}
		if len(idx) > 0 {
			p.AddRow(idx, ones(len(idx)), lp.LE, volumes[k])
		}
	}
	for e, vars := range byLAG {
		if len(vars) == 0 {
			continue
		}
		p.AddRow(vars, ones(len(vars)), lp.LE, caps[e])
	}
	sol, err := lp.Solve(p, nil)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return &Result{}, nil
	}
	per, flows := extract(dps, varOf, sol.X[:n])
	return &Result{Feasible: true, Objective: -sol.Objective, PerDemand: per, PathFlows: flows}, nil
}

func ones(n int) []float64 {
	c := make([]float64, n)
	for i := range c {
		c[i] = 1
	}
	return c
}
