package metaopt

import (
	"context"
	"fmt"

	"raha/internal/failures"
	"raha/internal/milp"
	"raha/internal/te"
)

// formulation is what one TE objective contributes to the bilevel rewrite
// (§4.1, §5, Appendix A). Everything else — the failure encoding, the §5.1
// rows, the demand bits, the hints, the solve and the verification — is
// shared by every objective. The outer objective is
// sign·(healthy − failed), maximized, with the failed value replaced by its
// LP dual.
type formulation struct {
	// sign orients the degradation: +1 when it is healthy − failed, −1 when
	// the TE minimizes and it is failed − healthy (MLU).
	sign float64
	// solve is the objective's TE LP: the healthy constant of a fixed
	// envelope, and both networks of the verification.
	solve func(cfg *Config, volumes, caps []float64, active [][]bool) (*te.Result, error)
	// foldHealthy folds the healthy primal into the outer problem and adds
	// sign·(its objective) to obj.
	foldHealthy func(cfg *Config, m *milp.Model, dv *demandVars, obj *milp.Expr)
	// failedDual adds the failed network's LP dual to the model and returns
	// its objective, which joins the outer objective scaled by −sign.
	// healthy is the fixed design point when the analysis solved one, else
	// nil.
	failedDual func(cfg *Config, m *milp.Model, enc *failures.Encoding, dv *demandVars, healthy *te.Result) milp.Expr
	// naiveFailover re-solves the failed network under the §5.1 naive
	// reaction; nil when the objective does not model it.
	naiveFailover func(cfg *Config, volumes, caps []float64, active [][]bool, healthy *te.Result) (*te.Result, error)
	// bound computes a budget-only dual bound before any model is built and
	// may finish the analysis outright (see boundTotalFlow); nil when the
	// objective has none. When the analysis goes on, it sets budget and
	// budgetBound.
	bound func(ctx context.Context, cfg *Config, f *formulation) (*Result, error)
	// budget is the failure budget the bound came from: every solve of the
	// analysis, the hint solves included, bounds its nodes by it
	// (milp.Params.Knapsack).
	budget *failures.Budget
	// budgetBound is the knapsack's own value over budget (Result.BudgetBound);
	// nil when its search stopped before proving anything.
	budgetBound *float64
	// requiresCE: a demand the failures disconnect makes the failed TE
	// infeasible, so the analysis needs ConnectivityEnforced.
	requiresCE bool
}

// formulation returns the objective's formulation. It is the one place,
// besides Objective.String, where an Objective selects behaviour.
func (c *Config) formulation() (formulation, error) {
	switch c.Objective {
	case TotalFlow:
		return totalFlow(), nil
	case MLU:
		return mlu(), nil
	case MaxMin:
		return maxMin(), nil
	}
	return formulation{}, fmt.Errorf("metaopt: unknown objective %d", c.Objective)
}

// analyze builds the single-level MILP of cfg's objective and solves it.
func analyze(ctx context.Context, cfg *Config, f formulation) (*Result, error) {
	m, enc, dv, err := build(cfg, f)
	if err != nil {
		return nil, err
	}
	return solveModel(ctx, cfg, f, m, enc, dv)
}

// build applies the bilevel rewrite: the failure encoding and the §5.1
// rows, the quantized demands, the healthy side and the failed network's
// dual. With a fixed envelope in Gap mode the healthy design point is a
// constant the analyzer computes once by LP (§6's easy-scaling case);
// otherwise its primal folds into the outer problem. Naive fail-over needs
// the healthy flows as gate constants even in FailedOnly mode.
func build(cfg *Config, f formulation) (*milp.Model, *failures.Encoding, *demandVars, error) {
	m := milp.NewModel()
	enc := failures.Encode(m, cfg.Topo, cfg.Demands)
	if err := addScenarioConstraints(cfg, m, enc); err != nil {
		return nil, nil, nil, err
	}
	dv, err := newDemandVars(cfg, m)
	if err != nil {
		return nil, nil, nil, err
	}
	obj := milp.NewExpr()
	var healthy *te.Result
	switch {
	case cfg.Mode == Gap && !cfg.Envelope.IsFixed():
		f.foldHealthy(cfg, m, dv, &obj)
	case cfg.Mode == Gap || cfg.NaiveFailover:
		healthy, err = f.solve(cfg, cfg.Envelope.Lo, te.FullCapacities(cfg.Topo), te.HealthyActive(cfg.Demands))
		if err != nil {
			return nil, nil, nil, err
		}
		if cfg.Mode == Gap {
			if !healthy.Feasible {
				return nil, nil, nil, fmt.Errorf("metaopt: healthy %v network infeasible at the fixed demand", cfg.Objective)
			}
			obj.AddConst(f.sign * healthy.Objective)
		}
	}
	obj.AddExpr(-f.sign, f.failedDual(cfg, m, enc, dv, healthy))
	m.SetObjective(obj, milp.Maximize)
	return m, enc, dv, nil
}

// The three products of outer variables with dual variables (§5's
// non-convexity extraction), one helper each. All are linearized exactly by
// binary×continuous McCormick products; the package comment has the why.

// demandTerm adds d_k·y to dual: Lo_k·y + unit_k·Σ 2^i·(b_ki·y) over the
// demand's quantizer bits.
func demandTerm(cfg *Config, m *milp.Model, dv *demandVars, k int, y milp.Var, dual *milp.Expr) {
	if lo := cfg.Envelope.Lo[k]; lo != 0 {
		dual.Add(lo, y)
	}
	scale := dv.q.Unit[k]
	for i, b := range dv.bits[k] {
		dual.Add(scale, m.Product(b, y, fmt.Sprintf("w[%d][%d]", k, i)))
		scale *= 2
	}
}

// capacityTerm creates the capacity duals β_e ∈ [0, ub] of the used LAGs and
// adds c_e·β_e to dual, with c_e = Σ_l c_le(1−u_le): Σ_l c_le·β_e −
// Σ_l c_le·(u_le·β_e). Pruned LAGs carry no flow, no capacity row and no
// dual.
func capacityTerm(cfg *Config, m *milp.Model, enc *failures.Encoding, ub float64, dual *milp.Expr) []milp.Var {
	beta := make([]milp.Var, cfg.Topo.NumLAGs())
	for e := range beta {
		if !enc.Used[e] {
			continue
		}
		beta[e] = m.ContinuousVar(0, ub, fmt.Sprintf("beta[%d]", e))
		for l, ln := range cfg.Topo.LAG(e).Links {
			dual.Add(ln.Capacity, beta[e])
			dual.Add(-ln.Capacity, m.Product(enc.LinkDown[e][l], beta[e], fmt.Sprintf("v[%d][%d]", e, l)))
		}
	}
	return beta
}

// gateTerm adds coef·C_kj·γ_kj to dual, with the path gate C_kj = Hi_k·A_kj:
// a primary is always active, a backup's Eq. 5 indicator multiplies γ_kj.
func gateTerm(cfg *Config, m *milp.Model, enc *failures.Encoding, k, j int, gamma milp.Var, coef float64, dual *milp.Expr) {
	hi := cfg.Envelope.Hi[k]
	if hi == 0 {
		return
	}
	if a := enc.Active[k][j]; a == nil {
		dual.Add(coef*hi, gamma)
	} else {
		dual.Add(coef*hi, m.Product(*a, gamma, fmt.Sprintf("g[%d][%d]", k, j)))
	}
}

// primaryFlows creates demand k's healthy flow variables fo_kj ∈ [0, Hi_k],
// one per primary path, adds each to the load of every LAG on its path, and
// returns their sum.
func primaryFlows(cfg *Config, m *milp.Model, k int, load []milp.Expr) milp.Expr {
	dp := cfg.Demands[k]
	sum := milp.NewExpr()
	for j := 0; j < dp.Primary; j++ {
		f := m.ContinuousVar(0, cfg.Envelope.Hi[k], fmt.Sprintf("fo[%d][%d]", k, j))
		sum.Add(1, f)
		for _, e := range dp.Paths[j].LAGs {
			load[e].Add(1, f)
		}
	}
	return sum
}

// healthyCapacityRows caps every loaded LAG's healthy load at its full
// capacity.
func healthyCapacityRows(cfg *Config, m *milp.Model, load []milp.Expr) {
	for e, l := range load {
		if len(l.Terms) > 0 {
			m.Add(l, milp.LE, cfg.Topo.LAG(e).Capacity(), fmt.Sprintf("healthy-cap[%d]", e))
		}
	}
}
