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

	"raha/internal/conc"
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

// workspace is one TE solve's scratch: the LP variable of each path, the
// variables crossing each LAG, the LP itself and its rows' index and
// coefficient storage. A solve takes one from a free list and puts it back
// once the LP is released, so a sweep's thousands of verification solves
// stop allocating it: only the Result is new.
type workspace struct {
	prob lp.Problem

	// varOf[pathOff[k]+j] is path j of demand k's LP variable, −1 when the
	// path is inactive; lagVar[lagOff[e]:lagOff[e+1]] are the variables
	// crossing LAG e, in variable order. fill is the cursor that places them.
	pathOff, varOf       []int
	lagOff, lagVar, fill []int

	// Every row's indices and coefficients, back to back, each row capped at
	// its own end.
	idx  []int
	coef []float64
}

// maxFreeWorkspaces bounds the workspaces the free list keeps: one per
// concurrent solve.
const maxFreeWorkspaces = 8

var freeWorkspaces = conc.FreeList[*workspace]{Max: maxFreeWorkspaces}

func takeWorkspace() *workspace {
	if ws, ok := freeWorkspaces.Get(); ok {
		return ws
	}
	return &workspace{}
}

// resize returns buf resized to n, reallocating only when it is too short;
// the contents are whatever the storage held.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// flowVars enumerates one LP variable per active path, and per LAG the
// variables that traverse it, and returns the variable count.
func (ws *workspace) flowVars(t *topology.Topology, dps []paths.DemandPaths, active [][]bool) int {
	nl := t.NumLAGs()
	ws.pathOff = append(ws.pathOff[:0], 0)
	ws.varOf = ws.varOf[:0]
	ws.lagOff = resize(ws.lagOff, nl+1)
	clear(ws.lagOff)
	n := 0
	for k, dp := range dps {
		for j, p := range dp.Paths {
			if !active[k][j] {
				ws.varOf = append(ws.varOf, -1)
				continue
			}
			ws.varOf = append(ws.varOf, n)
			for _, e := range p.LAGs {
				ws.lagOff[e+1]++
			}
			n++
		}
		ws.pathOff = append(ws.pathOff, len(ws.varOf))
	}
	for e := 0; e < nl; e++ {
		ws.lagOff[e+1] += ws.lagOff[e]
	}
	ws.lagVar = resize(ws.lagVar, ws.lagOff[nl])
	ws.fill = append(ws.fill[:0], ws.lagOff[:nl]...)
	for k, dp := range dps {
		for j, p := range dp.Paths {
			if v := ws.varOf[ws.pathOff[k]+j]; v >= 0 {
				for _, e := range p.LAGs {
					ws.lagVar[ws.fill[e]] = v
					ws.fill[e]++
				}
			}
		}
	}
	ws.idx, ws.coef = ws.idx[:0], ws.coef[:0]
	return n
}

// pathVars returns demand k's LP variable per path, −1 when inactive.
func (ws *workspace) pathVars(k int) []int { return ws.varOf[ws.pathOff[k]:ws.pathOff[k+1]] }

// lagVars returns the variables crossing LAG e.
func (ws *workspace) lagVars(e int) []int { return ws.lagVar[ws.lagOff[e]:ws.lagOff[e+1]] }

// problem resets the workspace's LP to n variables, zero objective and
// bounds [0, +Inf), as lp.NewProblem builds one.
func (ws *workspace) problem(n int) *lp.Problem {
	p := &ws.prob
	p.NumVars = n
	p.Cost = resize(p.Cost, n)
	p.Lo = resize(p.Lo, n)
	p.Hi = resize(p.Hi, n)
	clear(p.Cost)
	clear(p.Lo)
	for i := range p.Hi {
		p.Hi[i] = math.Inf(1)
	}
	p.Rows = p.Rows[:0]
	return p
}

// ones appends vars to the row under construction, each with coefficient
// 1, skipping the −1 of an inactive path.
func (ws *workspace) ones(vars []int) {
	for _, v := range vars {
		if v >= 0 {
			ws.idx = append(ws.idx, v)
			ws.coef = append(ws.coef, 1)
		}
	}
}

// addRow adds the terms appended since start as one row of p.
func (ws *workspace) addRow(p *lp.Problem, start int, rel lp.Rel, rhs float64) {
	end := len(ws.idx)
	p.AddRow(ws.idx[start:end:end], ws.coef[start:end:end], rel, rhs)
}

// solve solves the workspace's LP and releases its lowering; sol owns its
// X. No re-solve warm-starts from its basis, so the basis goes back with
// the lowering, and the next solve lowered there exports into its storage.
func (ws *workspace) solve() (*lp.Solution, error) {
	p := &ws.prob
	sol, err := lp.Solve(p, nil)
	if sol != nil && sol.Basis != nil {
		p.RecycleBasis(sol.Basis)
		sol.Basis = nil
	}
	p.Release() // the solve is the problem's only one
	return sol, err
}

// release hands the workspace back for the next solve, once nothing reads
// it any more. A solve that panicked never calls it: its LP may still hold a
// half-updated lowering.
func (ws *workspace) release() {
	clear(ws.prob.Rows)
	ws.prob.Rows = ws.prob.Rows[:0]
	freeWorkspaces.Put(ws)
}

// extract reads the flow per demand and per path out of x. The paths'
// flows share one allocation, each demand's capped at its own end.
func (ws *workspace) extract(dps []paths.DemandPaths, x []float64) (per []float64, flows [][]float64) {
	per = make([]float64, len(dps))
	flows = make([][]float64, len(dps))
	all := make([]float64, len(ws.varOf))
	for k := range dps {
		lo, hi := ws.pathOff[k], ws.pathOff[k+1]
		flows[k] = all[lo:hi:hi]
		for j, v := range ws.varOf[lo:hi] {
			if v >= 0 {
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
	ws := takeWorkspace()
	res, err := ws.maxTotalFlow(t, dps, volumes, caps, active, pathCaps)
	ws.release()
	return res, err
}

func (ws *workspace) maxTotalFlow(t *topology.Topology, dps []paths.DemandPaths, volumes, caps []float64, active [][]bool, pathCaps [][]float64) (*Result, error) {
	n := ws.flowVars(t, dps, active)
	p := ws.problem(n)
	for i := 0; i < n; i++ {
		p.Cost[i] = -1 // maximize total flow
	}
	if pathCaps != nil {
		for k := range dps {
			for j, v := range ws.pathVars(k) {
				if v >= 0 && pathCaps[k][j] < p.Hi[v] {
					p.Hi[v] = pathCaps[k][j]
				}
			}
		}
	}
	for k := range dps {
		start := len(ws.idx)
		ws.ones(ws.pathVars(k))
		if len(ws.idx) > start {
			ws.addRow(p, start, lp.LE, volumes[k])
		}
	}
	for e := range caps {
		start := len(ws.idx)
		ws.ones(ws.lagVars(e))
		if len(ws.idx) > start {
			ws.addRow(p, start, lp.LE, caps[e])
		}
	}
	sol, err := ws.solve()
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return &Result{}, nil
	}
	per, flows := ws.extract(dps, sol.X)
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
	ws := takeWorkspace()
	res, err := ws.minMLU(t, dps, volumes, caps, active)
	ws.release()
	return res, err
}

func (ws *workspace) minMLU(t *topology.Topology, dps []paths.DemandPaths, volumes, caps []float64, active [][]bool) (*Result, error) {
	n := ws.flowVars(t, dps, active)
	uVar := n // the MLU variable
	p := ws.problem(n + 1)
	p.Cost[uVar] = 1
	p.Hi[uVar] = 1e9
	for k := range dps {
		start := len(ws.idx)
		ws.ones(ws.pathVars(k))
		if len(ws.idx) == start {
			if volumes[k] > 0 {
				return &Result{}, nil // no usable path but demand must route
			}
			continue
		}
		ws.addRow(p, start, lp.EQ, volumes[k])
	}
	for e := range caps {
		start := len(ws.idx)
		ws.ones(ws.lagVars(e))
		if len(ws.idx) == start {
			continue
		}
		// Σ flows − U·cap ≤ 0
		ws.idx = append(ws.idx, uVar)
		ws.coef = append(ws.coef, -caps[e])
		ws.addRow(p, start, lp.LE, 0)
	}
	sol, err := ws.solve()
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return &Result{}, nil
	}
	per, flows := ws.extract(dps, sol.X[:n])
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

	ws := takeWorkspace()
	res, err := ws.maxMinBinned(t, dps, volumes, caps, active, cfg)
	ws.release()
	return res, err
}

func (ws *workspace) maxMinBinned(t *topology.Topology, dps []paths.DemandPaths, volumes, caps []float64, active [][]bool, cfg BinnerConfig) (*Result, error) {
	n := ws.flowVars(t, dps, active)
	// Bin b of demand k is variable n + k·Bins + b.
	binVar := func(k, b int) int { return n + k*cfg.Bins + b }
	p := ws.problem(n + len(dps)*cfg.Bins)
	width := cfg.Base
	weight := 1.0
	for b := 0; b < cfg.Bins; b++ {
		for k := range dps {
			p.Hi[binVar(k, b)] = width
			p.Cost[binVar(k, b)] = -weight // maximize
		}
		width *= cfg.Ratio
		weight /= cfg.Ratio
	}
	for k := range dps {
		// Σ bins = Σ path flows (f_k expressed both ways).
		start := len(ws.idx)
		ws.ones(ws.pathVars(k))
		paths := len(ws.idx) - start
		for b := 0; b < cfg.Bins; b++ {
			ws.idx = append(ws.idx, binVar(k, b))
			ws.coef = append(ws.coef, -1)
		}
		if len(ws.idx) > start {
			ws.addRow(p, start, lp.EQ, 0)
		}
		if paths > 0 {
			start = len(ws.idx)
			ws.ones(ws.pathVars(k))
			ws.addRow(p, start, lp.LE, volumes[k])
		}
	}
	for e := range caps {
		start := len(ws.idx)
		ws.ones(ws.lagVars(e))
		if len(ws.idx) > start {
			ws.addRow(p, start, lp.LE, caps[e])
		}
	}
	sol, err := ws.solve()
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return &Result{}, nil
	}
	per, flows := ws.extract(dps, sol.X[:n])
	return &Result{Feasible: true, Objective: -sol.Objective, PerDemand: per, PathFlows: flows}, nil
}
