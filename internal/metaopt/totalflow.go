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

// totalFlow is the formulation of the total-demand-met objective (Eq. 2):
// degradation = healthy flow − failed flow. It is the only objective that
// models naive fail-over and the only one with a budget-only dual bound.
func totalFlow() formulation {
	return formulation{
		sign: 1,
		solve: func(cfg *Config, volumes, caps []float64, active [][]bool) (*te.Result, error) {
			return te.MaxTotalFlow(cfg.Topo, cfg.Demands, volumes, caps, active)
		},
		foldHealthy:   foldHealthyTotalFlow,
		failedDual:    failedDualTotalFlow,
		naiveFailover: naiveFailoverFlow,
		bound:         boundTotalFlow,
	}
}

// boundTotalFlow computes the lost-capacity bound of a Gap-mode total-flow
// analysis with a failure budget (failures.LostCapacityBound) and installs it
// as cfg.Solver.Bound, where the main solve and — through sub := *cfg — the
// hint solves find it: fixing the demands restricts the envelope, so the
// bound holds for them too. The budget it returns bounds their nodes the same
// way. Two outcomes need no model at all and come back as a finished Result:
// a budget no scenario fits is Infeasible (the model has a superset of the
// knapsack's rows), and a bound ≤ 0 with the all-up scenario inside the
// budget is Optimal at degradation 0 — no failure the budget allows touches a
// LAG that carries primary load — reported at the top of the envelope through
// the ordinary verification LPs. A nil Result means the analysis goes on to
// build the model.
func boundTotalFlow(ctx context.Context, cfg *Config, f formulation) (*Result, *failures.Budget, error) {
	if cfg.Mode != Gap || cfg.ProbThreshold <= 0 && cfg.MaxFailures <= 0 {
		return nil, nil, nil
	}
	b, err := failures.NewBudget(cfg.Topo, cfg.Demands, cfg.Envelope.Hi,
		cfg.ProbThreshold, cfg.assumeUnusedWorst(), cfg.MaxFailures)
	if err != nil {
		return nil, nil, err
	}
	bb, err := failures.LostCapacityBound(ctx, b)
	if err != nil {
		return nil, nil, err
	}
	closed := bb.AllUp != nil && bb.Value <= 0 // AllUp is nil on an infeasible budget
	if tr := cfg.Solver.Tracer; tr != nil {
		ev := obs.F{"links": bb.Links, "knapsack_nodes": bb.Nodes, "closed": closed}
		if bb.Infeasible {
			ev["infeasible"] = true
		} else if !math.IsInf(bb.Value, 0) {
			ev["bound"] = bb.Value
		}
		tr.Emit("metaopt", "budget_bound", ev)
	}
	switch {
	case bb.Infeasible:
		return &Result{Status: milp.Infeasible, Bound: math.Inf(1), Gap: math.Inf(1)}, nil, nil
	case math.IsInf(bb.Value, 0):
		return nil, b, nil
	case !closed:
		cfg.Solver.Bound = &bb.Value
		return nil, b, nil
	}
	res := &Result{
		Status:        milp.Optimal,
		Scenario:      bb.AllUp,
		Demands:       append([]float64(nil), cfg.Envelope.Hi...),
		Bound:         bb.Value,
		BudgetBound:   &bb.Value,
		ClosedByBound: true,
	}
	if err := verify(cfg, f, res); err != nil {
		return nil, nil, err
	}
	res.ModelObjective = res.Degradation
	return res, nil, nil
}

// foldHealthyTotalFlow folds the healthy network's primal into the outer
// problem: flow variables on primary paths, demand rows against the
// quantized demand expressions, capacity rows at full LAG capacity. The
// flows' sum joins the outer objective.
func foldHealthyTotalFlow(cfg *Config, m *milp.Model, dv *demandVars, obj *milp.Expr) {
	load := make([]milp.Expr, cfg.Topo.NumLAGs())
	for k := range cfg.Demands {
		row := primaryFlows(cfg, m, k, load)
		obj.AddExpr(1, row)
		// Σ_j fo_kj ≤ d_k  ⇔  Σ_j fo_kj − (d_k − Lo_k) ≤ Lo_k.
		row.AddExpr(-1, dv.expr[k])
		m.Add(row, milp.LE, 0, fmt.Sprintf("healthy-demand[%d]", k))
	}
	healthyCapacityRows(cfg, m, load)
}

// failedDualTotalFlow adds the failed network's LP dual to the outer
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
func failedDualTotalFlow(cfg *Config, m *milp.Model, enc *failures.Encoding, dv *demandVars, healthy *te.Result) milp.Expr {
	dual := milp.NewExpr()
	alpha := make([]milp.Var, len(cfg.Demands))
	for k := range cfg.Demands {
		alpha[k] = m.ContinuousVar(0, 1, fmt.Sprintf("alpha[%d]", k))
		demandTerm(cfg, m, dv, k, alpha[k], &dual)
	}
	beta := capacityTerm(cfg, m, enc, 1, &dual)
	for k, dp := range cfg.Demands {
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
				if bound := naiveGate(healthy, k, j, dp.Primary); bound != 0 {
					dual.Add(bound, delta)
				}
			}
			m.Add(feas, milp.GE, 1, fmt.Sprintf("dualfeas[%d][%d]", k, j))
			gateTerm(cfg, m, enc, k, j, gamma, 1, &dual)
		}
	}
	return dual
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
