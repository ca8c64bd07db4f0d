package metaopt

import (
	"fmt"

	"raha/internal/failures"
	"raha/internal/milp"
	"raha/internal/te"
)

// mlu is the formulation of the Appendix A minimize-MLU objective.
// Degradation = U_failed − U_healthy, hence sign −1.
//
// The roles mirror the total-flow case with signs flipped: the healthy
// network is a minimization aligned with the outer problem (outer wants
// U_healthy small), so its primal folds in directly; the failed network is
// a minimization the outer problem wants LARGE, so it is replaced by its LP
// dual — a maximization that folds into the outer objective:
//
//	failed primal: min U  s.t. Σ_j f_kj = d_k            [λ_k free]
//	                          Σ_{kj∋e} f_kj ≤ U·c_e      [β_e ≥ 0]
//	                          f_kj ≤ C_kj                [γ_kj ≥ 0]
//	failed dual:   max Σ_k d_k·λ_k − Σ C_kj·γ_kj
//	               s.t. λ_k ≤ Σ_{e∈p_kj} β_e + γ_kj   ∀(k,j)
//	                    Σ_e c_e·β_e ≤ 1
//
// Unlike the total-flow dual, these duals have no natural [0,1] box; they
// are clipped to the configurable MLUDualBound. Too small a bound
// underestimates the failed MLU (conservative for alerting). A demand cut
// off by the failures makes the failed primal infeasible, hence the CE
// requirement.
func mlu() formulation {
	return formulation{
		sign: -1,
		solve: func(cfg *Config, volumes, caps []float64, active [][]bool) (*te.Result, error) {
			return te.MinMLU(cfg.Topo, cfg.Demands, volumes, caps, active)
		},
		foldHealthy: foldHealthyMLU,
		failedDual:  failedDualMLU,
		requiresCE:  true,
	}
}

// foldHealthyMLU folds the healthy MLU primal into the outer problem:
// minimize U° over primary paths at full capacity, demands routed in full.
func foldHealthyMLU(cfg *Config, m *milp.Model, dv *demandVars, obj *milp.Expr) {
	u := m.ContinuousVar(0, 1e9, "U_healthy")
	obj.Add(-1, u)
	load := make([]milp.Expr, cfg.Topo.NumLAGs())
	for k := range cfg.Demands {
		row := primaryFlows(cfg, m, k, load)
		row.AddExpr(-1, dv.expr[k])
		m.Add(row, milp.EQ, 0, fmt.Sprintf("healthy-demand[%d]", k))
	}
	for e, l := range load {
		if len(l.Terms) == 0 {
			continue
		}
		row := milp.NewExpr(milp.T(-cfg.Topo.LAG(e).Capacity(), u))
		row.AddExpr(1, l)
		m.Add(row, milp.LE, 0, fmt.Sprintf("healthy-util[%d]", e))
	}
}

// failedDualMLU adds the failed network's MLU dual and returns its
// objective expression, which the outer problem maximizes (−sign = +1).
func failedDualMLU(cfg *Config, m *milp.Model, enc *failures.Encoding, dv *demandVars, _ *te.Result) milp.Expr {
	bound := cfg.mluDualBound()
	dual := milp.NewExpr()
	lambda := make([]milp.Var, len(cfg.Demands))
	for k := range cfg.Demands {
		lambda[k] = m.ContinuousVar(-bound, bound, fmt.Sprintf("lambda[%d]", k))
		demandTerm(cfg, m, dv, k, lambda[k], &dual)
	}
	// Σ_e c_e·β_e ≤ 1 over used LAGs only (pruned LAGs carry no flow and
	// need no utilization constraint).
	capRow := milp.NewExpr()
	beta := capacityTerm(cfg, m, enc, bound, &capRow)
	m.Add(capRow, milp.LE, 1, "dual-U")
	for k, dp := range cfg.Demands {
		for j := range dp.Paths {
			gamma := m.ContinuousVar(0, bound, fmt.Sprintf("gamma[%d][%d]", k, j))
			// λ_k − Σ β_e − γ_kj ≤ 0.
			feas := milp.NewExpr(milp.T(1, lambda[k]), milp.T(-1, gamma))
			for _, e := range dp.Paths[j].LAGs {
				feas.Add(-1, beta[e])
			}
			m.Add(feas, milp.LE, 0, fmt.Sprintf("dualfeas[%d][%d]", k, j))
			gateTerm(cfg, m, enc, k, j, gamma, -1, &dual)
		}
	}
	return dual
}
