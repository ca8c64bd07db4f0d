package metaopt

import (
	"context"
	"fmt"
	"math"

	"raha/internal/failures"
	"raha/internal/milp"
	"raha/internal/obs"
	"raha/internal/te"
)

// analyzeTotalFlow builds and solves the single-level MILP for the
// total-demand-met objective (Eq. 2).
func analyzeTotalFlow(ctx context.Context, cfg *Config) (*Result, error) {
	m := milp.NewModel()
	enc := failures.Encode(m, cfg.Topo, cfg.Demands)
	if err := addScenarioConstraints(cfg, m, enc); err != nil {
		return nil, err
	}
	dv, err := newDemandVars(cfg, m)
	if err != nil {
		return nil, err
	}

	obj := milp.NewExpr()

	// Healthy network. With a fixed envelope the design point is a
	// constant the analyzer computes once by LP (§6's easy-scaling case);
	// otherwise its primal folds into the outer problem.
	var healthyFlows *te.Result
	if cfg.Mode == Gap {
		if cfg.Envelope.IsFixed() {
			h, err := te.MaxTotalFlow(cfg.Topo, cfg.Demands, cfg.Envelope.Lo, te.FullCapacities(cfg.Topo), te.HealthyActive(cfg.Demands))
			if err != nil {
				return nil, err
			}
			if !h.Feasible {
				return nil, fmt.Errorf("metaopt: healthy network LP infeasible")
			}
			healthyFlows = h
			obj.AddConst(h.Objective)
		} else {
			buildHealthyTotalFlow(cfg, m, dv, &obj)
		}
	} else if cfg.NaiveFailover {
		// FailedOnly + naive fail-over still needs the healthy flows as
		// gate constants.
		h, err := te.MaxTotalFlow(cfg.Topo, cfg.Demands, cfg.Envelope.Lo, te.FullCapacities(cfg.Topo), te.HealthyActive(cfg.Demands))
		if err != nil {
			return nil, err
		}
		healthyFlows = h
	}

	// Failed network: dual objective, minimized by the outer maximization.
	dualObj, err := buildFailedDualTotalFlow(cfg, m, enc, dv, healthyFlows)
	if err != nil {
		return nil, err
	}
	obj.AddExpr(-1, dualObj)
	m.SetObjective(obj, milp.Maximize)

	return solveModel(ctx, cfg, m, enc, dv)
}

// boundTotalFlow computes the lost-capacity bound of a Gap-mode total-flow
// analysis with a failure budget (failures.LostCapacityBound) and installs it
// as cfg.Solver.Bound, where the main solve and — through sub := *cfg — the
// hint solves find it: fixing the demands restricts the envelope, so the
// bound holds for them too. Two outcomes need no model at all and come back
// as a finished Result: a budget no scenario fits is Infeasible (the model
// has a superset of the knapsack's rows), and a bound ≤ 0 with the all-up
// scenario inside the budget is Optimal at degradation 0 — no failure the
// budget allows touches a LAG that carries primary load — reported at the top
// of the envelope through the ordinary verification LPs. (nil, nil) means
// the analysis goes on to analyzeTotalFlow.
func boundTotalFlow(ctx context.Context, cfg *Config) (*Result, error) {
	if cfg.Mode != Gap || cfg.ProbThreshold <= 0 && cfg.MaxFailures <= 0 {
		return nil, nil
	}
	bb, err := failures.LostCapacityBound(ctx, cfg.Topo, cfg.Demands, cfg.Envelope.Hi,
		cfg.ProbThreshold, cfg.assumeUnusedWorst(), cfg.MaxFailures)
	if err != nil {
		return nil, err
	}
	closed := bb.AllUp != nil && bb.Value <= 0 // AllUp is nil on an infeasible budget
	if tr := cfg.Solver.Tracer; tr != nil {
		f := obs.F{"links": bb.Links, "knapsack_nodes": bb.Nodes, "closed": closed}
		if bb.Infeasible {
			f["infeasible"] = true
		} else if !math.IsInf(bb.Value, 0) {
			f["bound"] = bb.Value
		}
		tr.Emit("metaopt", "budget_bound", f)
	}
	switch {
	case bb.Infeasible:
		return &Result{Status: milp.Infeasible, Bound: math.Inf(1), Gap: math.Inf(1)}, nil
	case math.IsInf(bb.Value, 0):
		return nil, nil
	case !closed:
		cfg.Solver.Bound = &bb.Value
		return nil, nil
	}
	res := &Result{
		Status:        milp.Optimal,
		Scenario:      bb.AllUp,
		Demands:       append([]float64(nil), cfg.Envelope.Hi...),
		Bound:         bb.Value,
		BudgetBound:   &bb.Value,
		ClosedByBound: true,
	}
	if err := verify(cfg, res); err != nil {
		return nil, err
	}
	res.ModelObjective = res.Degradation
	return res, nil
}

// buildHealthyTotalFlow folds the healthy network's primal into the outer
// problem: flow variables on primary paths, demand rows against the
// quantized demand expressions, capacity rows at full LAG capacity. The
// flows' sum joins the outer objective.
func buildHealthyTotalFlow(cfg *Config, m *milp.Model, dv *demandVars, obj *milp.Expr) {
	byLAG := make([][]milp.Var, cfg.Topo.NumLAGs())
	for k, dp := range cfg.Demands {
		hi := cfg.Envelope.Hi[k]
		row := milp.NewExpr()
		for j := 0; j < dp.Primary; j++ {
			f := m.ContinuousVar(0, hi, fmt.Sprintf("fo[%d][%d]", k, j))
			obj.Add(1, f)
			row.Add(1, f)
			for _, e := range dp.Paths[j].LAGs {
				byLAG[e] = append(byLAG[e], f)
			}
		}
		// Σ_j fo_kj ≤ d_k  ⇔  Σ_j fo_kj − (d_k − Lo_k) ≤ Lo_k.
		row.AddExpr(-1, dv.expr[k])
		m.Add(row, milp.LE, 0, fmt.Sprintf("healthy-demand[%d]", k))
	}
	for e, vars := range byLAG {
		if len(vars) == 0 {
			continue
		}
		row := milp.NewExpr()
		for _, f := range vars {
			row.Add(1, f)
		}
		m.Add(row, milp.LE, cfg.Topo.LAG(e).Capacity(), fmt.Sprintf("healthy-cap[%d]", e))
	}
}

// buildFailedDualTotalFlow adds the failed network's LP dual to the outer
// problem and returns its objective expression.
//
// Failed primal (per §5, with outer variables highlighted):
//
//	max Σ f_kj   s.t.  Σ_j f_kj ≤ d_k        [α_k]
//	                   Σ_{kj∋e} f_kj ≤ c_e   [β_e]   c_e = Σ_l c_le(1−u_le)
//	                   f_kj ≤ C_kj           [γ_kj]  C_kj = Hi_k·A_kj
//	                   (naive) f_kj ≤ n_kj   [δ_kj]  n_kj = healthy flow
//
// Dual: min Σ d_k α_k + Σ c_e β_e + Σ C_kj γ_kj (+ Σ n_kj δ_kj)
// s.t. α_k + Σ_{e∈p_kj} β_e + γ_kj (+ δ_kj) ≥ 1, all duals in [0,1]
// (restriction WLOG; see the package comment).
func buildFailedDualTotalFlow(cfg *Config, m *milp.Model, enc *failures.Encoding, dv *demandVars, healthy *te.Result) (milp.Expr, error) {
	dual := milp.NewExpr()

	alpha := make([]milp.Var, len(cfg.Demands))
	for k := range cfg.Demands {
		alpha[k] = m.ContinuousVar(0, 1, fmt.Sprintf("alpha[%d]", k))
		// d_k·α_k = Lo_k·α_k + unit·Σ 2^i·(b_ki·α_k).
		if lo := cfg.Envelope.Lo[k]; lo != 0 {
			dual.Add(lo, alpha[k])
		}
		if dv.bits[k] != nil {
			scale := dv.q.Unit[k]
			for i, b := range dv.bits[k] {
				w := m.Product(b, alpha[k], fmt.Sprintf("w[%d][%d]", k, i))
				dual.Add(scale, w)
				scale *= 2
			}
		}
	}

	beta := make([]milp.Var, cfg.Topo.NumLAGs())
	for e := 0; e < cfg.Topo.NumLAGs(); e++ {
		if !enc.Used[e] {
			continue // pruned: no flow, no capacity constraint, no dual
		}
		beta[e] = m.ContinuousVar(0, 1, fmt.Sprintf("beta[%d]", e))
		// c_e·β_e = Σ_l c_le·β_e − Σ_l c_le·(u_le·β_e).
		for l, ln := range cfg.Topo.LAG(e).Links {
			dual.Add(ln.Capacity, beta[e])
			v := m.Product(enc.LinkDown[e][l], beta[e], fmt.Sprintf("v[%d][%d]", e, l))
			dual.Add(-ln.Capacity, v)
		}
	}

	for k, dp := range cfg.Demands {
		hi := cfg.Envelope.Hi[k]
		for j := range dp.Paths {
			gamma := m.ContinuousVar(0, 1, fmt.Sprintf("gamma[%d][%d]", k, j))
			// Dual feasibility for f_kj.
			feas := milp.NewExpr(milp.T(1, alpha[k]), milp.T(1, gamma))
			for _, e := range dp.Paths[j].LAGs {
				feas.Add(1, beta[e])
			}
			if cfg.NaiveFailover {
				delta := m.ContinuousVar(0, 1, fmt.Sprintf("delta[%d][%d]", k, j))
				feas.Add(1, delta)
				bound := naiveGate(healthy, k, j, dp.Primary)
				if bound != 0 {
					dual.Add(bound, delta)
				}
			}
			m.Add(feas, milp.GE, 1, fmt.Sprintf("dualfeas[%d][%d]", k, j))

			// Gate term C_kj·γ_kj.
			if hi == 0 {
				continue
			}
			if enc.Active[k][j] == nil {
				dual.Add(hi, gamma) // primary: always active
			} else {
				g := m.Product(*enc.Active[k][j], gamma, fmt.Sprintf("g[%d][%d]", k, j))
				dual.Add(hi, g)
			}
		}
	}
	return dual, nil
}

// naiveGate returns the §5.1 naive fail-over bound for path j of demand k:
// primaries are capped at their own healthy flow; the r-th backup at the
// r-th primary's healthy flow (0 when there is no r-th primary).
func naiveGate(healthy *te.Result, k, j, primary int) float64 {
	if healthy == nil {
		return 0
	}
	if j < primary {
		return healthy.PathFlows[k][j]
	}
	r := j - primary
	if r < primary {
		return healthy.PathFlows[k][r]
	}
	return 0
}

// naiveFailoverFlow re-solves the failed network with the naive fail-over
// gates for verification.
func naiveFailoverFlow(cfg *Config, volumes, caps []float64, active [][]bool, healthy *te.Result) (*te.Result, error) {
	pathCaps := make([][]float64, len(cfg.Demands))
	for k, dp := range cfg.Demands {
		pathCaps[k] = make([]float64, len(dp.Paths))
		for j := range dp.Paths {
			pathCaps[k][j] = naiveGate(healthy, k, j, dp.Primary)
		}
	}
	return te.MaxTotalFlowWithPathCaps(cfg.Topo, cfg.Demands, volumes, caps, active, pathCaps)
}
