package te

import (
	"fmt"
	"math"

	"raha/internal/lp"
	"raha/internal/paths"
	"raha/internal/topology"
)

// The TE solvers as they were before the workspace (te.go): one slice per
// demand and per LAG, and an index and a coefficient slice per row, on
// every call. They are the referee TestWorkspaceMatchesReference holds the
// workspace solvers to, bit for bit.

// flowVars enumerates one LP variable per active path and returns the
// mapping plus, per LAG, the variables that traverse it.
func refFlowVars(t *topology.Topology, dps []paths.DemandPaths, active [][]bool) (varOf [][]int, byLAG [][]int, n int) {
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

func refExtract(dps []paths.DemandPaths, varOf [][]int, x []float64) (per []float64, flows [][]float64) {
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

func refMaxTotalFlowWithPathCaps(t *topology.Topology, dps []paths.DemandPaths, volumes, caps []float64, active [][]bool, pathCaps [][]float64) (*Result, error) {
	if err := checkInputs(t, dps, volumes, caps, active); err != nil {
		return nil, err
	}
	if pathCaps != nil && len(pathCaps) != len(dps) {
		return nil, fmt.Errorf("te: %d path-cap rows for %d demands", len(pathCaps), len(dps))
	}
	varOf, byLAG, n := refFlowVars(t, dps, active)
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
	p.Release() // the solve is the problem's only one; sol owns its X
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return &Result{}, nil
	}
	per, flows := refExtract(dps, varOf, sol.X)
	return &Result{Feasible: true, Objective: -sol.Objective, PerDemand: per, PathFlows: flows}, nil
}

func refMinMLU(t *topology.Topology, dps []paths.DemandPaths, volumes, caps []float64, active [][]bool) (*Result, error) {
	if err := checkInputs(t, dps, volumes, caps, active); err != nil {
		return nil, err
	}
	varOf, byLAG, n := refFlowVars(t, dps, active)
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
	p.Release() // the solve is the problem's only one; sol owns its X
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return &Result{}, nil
	}
	per, flows := refExtract(dps, varOf, sol.X[:n])
	return &Result{Feasible: true, Objective: sol.X[uVar], PerDemand: per, PathFlows: flows}, nil
}

func refMaxMinBinned(t *topology.Topology, dps []paths.DemandPaths, volumes, caps []float64, active [][]bool, cfg BinnerConfig) (*Result, error) {
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

	varOf, byLAG, n := refFlowVars(t, dps, active)
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
	p.Release() // the solve is the problem's only one; sol owns its X
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return &Result{}, nil
	}
	per, flows := refExtract(dps, varOf, sol.X[:n])
	return &Result{Feasible: true, Objective: -sol.Objective, PerDemand: per, PathFlows: flows}, nil
}

func ones(n int) []float64 {
	c := make([]float64, n)
	for i := range c {
		c[i] = 1
	}
	return c
}
