package metaopt

import (
	"fmt"

	"raha/internal/failures"
	"raha/internal/milp"
	"raha/internal/te"
)

// maxMin is the formulation of the Appendix A max-min fairness objective in
// its single-shot geometric-binner form (Soroush's binner family): each
// demand's flow is split across bins of geometrically growing width, with
// geometrically decaying weights, so early units of every demand dominate
// later units of any demand.
// Degradation = healthy binned utility − failed binned utility.
//
// Failed binner LP (outer variables highlighted by name):
//
//	max Σ_kb w_b·f_kb
//	s.t. Σ_j f_kj − Σ_b f_kb = 0      [λ_k free]
//	     Σ_b f_kb ≤ d_k               [α_k ≥ 0]
//	     f_kb ≤ width_b               [μ_kb ≥ 0]
//	     Σ_{kj∋e} f_kj ≤ c_e          [β_e ≥ 0]
//	     f_kj ≤ C_kj                  [γ_kj ≥ 0]
//
//	dual: min Σ_k d_k·α_k + Σ_kb width_b·μ_kb + Σ_e c_e·β_e + Σ_kj C_kj·γ_kj
//	      s.t. λ_k + Σ_{e∈p} β_e + γ_kj ≥ 0       ∀(k,j)
//	           −λ_k + α_k + μ_kb ≥ w_b            ∀(k,b)
//
// As with MLU, these duals have no natural [0,1] box; they are clipped to
// MLUDualBound (the weights w_b are ≤ 1, so the default is generous).
// Clipping can only raise the dual minimum, i.e. overestimate the failed
// network's utility — an underestimate of the degradation, conservative
// for alerting.
//
// Every LP of the analysis — the healthy constant of a fixed envelope, the
// model's bins and both verification LPs — uses the bin base pinned to the
// envelope by binBase, so they all see identical bins.
func maxMin() formulation {
	return formulation{
		sign: 1,
		solve: func(cfg *Config, volumes, caps []float64, active [][]bool) (*te.Result, error) {
			b := cfg.binner()
			b.Base, _ = binBase(cfg, b)
			return te.MaxMinBinned(cfg.Topo, cfg.Demands, volumes, caps, active, b)
		},
		foldHealthy: foldHealthyMaxMin,
		failedDual:  failedDualMaxMin,
	}
}

// binBase pins the binner's base width to the envelope (not the per-call
// volumes) so the MILP and the verification LPs use identical bins.
func binBase(cfg *Config, b te.BinnerConfig) (float64, float64) {
	maxV := 0.0
	for _, hi := range cfg.Envelope.Hi {
		if hi > maxV {
			maxV = hi
		}
	}
	if maxV == 0 {
		maxV = 1
	}
	if b.Base > 0 {
		return b.Base, maxV
	}
	return maxV / pow(b.Ratio, b.Bins-1), maxV
}

// binShape materializes the binner's widths and weights, using the same
// envelope-pinned base as verification (binBase).
func binShape(cfg *Config) (widths, weights []float64) {
	b := cfg.binner()
	base, _ := binBase(cfg, b)
	w := base
	weight := 1.0
	for i := 0; i < b.Bins; i++ {
		widths = append(widths, w)
		weights = append(weights, weight)
		w *= b.Ratio
		weight /= b.Ratio
	}
	return widths, weights
}

func pow(r float64, n int) float64 {
	p := 1.0
	for i := 0; i < n; i++ {
		p *= r
	}
	return p
}

// binner resolves the configured binner shape with the te defaults.
func (c *Config) binner() te.BinnerConfig {
	b := c.MaxMinBinner
	if b.Bins <= 0 {
		b.Bins = 6
	}
	if b.Ratio <= 1 {
		b.Ratio = 2
	}
	return b
}

// foldHealthyMaxMin folds the healthy binner primal into the outer problem.
func foldHealthyMaxMin(cfg *Config, m *milp.Model, dv *demandVars, obj *milp.Expr) {
	widths, weights := binShape(cfg)
	load := make([]milp.Expr, cfg.Topo.NumLAGs())
	for k := range cfg.Demands {
		flowSum := primaryFlows(cfg, m, k, load)
		binSum := milp.NewExpr()
		demandRow := milp.NewExpr()
		for b := range widths {
			fb := m.ContinuousVar(0, widths[b], fmt.Sprintf("fob[%d][%d]", k, b))
			obj.Add(weights[b], fb)
			binSum.Add(-1, fb)
			demandRow.Add(1, fb)
		}
		// Σ_j f_kj = Σ_b f_kb.
		binSum.AddExpr(1, flowSum)
		m.Add(binSum, milp.EQ, 0, fmt.Sprintf("healthy-bins[%d]", k))
		// Σ_b f_kb ≤ d_k.
		demandRow.AddExpr(-1, dv.expr[k])
		m.Add(demandRow, milp.LE, 0, fmt.Sprintf("healthy-demand[%d]", k))
	}
	healthyCapacityRows(cfg, m, load)
}

// failedDualMaxMin adds the failed binner's LP dual and returns its
// objective expression (minimized by the outer maximization).
func failedDualMaxMin(cfg *Config, m *milp.Model, enc *failures.Encoding, dv *demandVars, _ *te.Result) milp.Expr {
	widths, weights := binShape(cfg)
	bound := cfg.mluDualBound()
	dual := milp.NewExpr()
	lambda := make([]milp.Var, len(cfg.Demands))
	for k := range cfg.Demands {
		lambda[k] = m.ContinuousVar(-bound, bound, fmt.Sprintf("lambda[%d]", k))
		alpha := m.ContinuousVar(0, bound, fmt.Sprintf("alpha[%d]", k))
		demandTerm(cfg, m, dv, k, alpha, &dual)
		// Bin duals: −λ_k + α_k + μ_kb ≥ w_b, objective width_b·μ_kb.
		for b := range widths {
			mu := m.ContinuousVar(0, bound, fmt.Sprintf("mu[%d][%d]", k, b))
			dual.Add(widths[b], mu)
			m.Add(milp.NewExpr(milp.T(-1, lambda[k]), milp.T(1, alpha), milp.T(1, mu)), milp.GE, weights[b], fmt.Sprintf("dualbin[%d][%d]", k, b))
		}
	}
	beta := capacityTerm(cfg, m, enc, bound, &dual)
	for k, dp := range cfg.Demands {
		for j := range dp.Paths {
			gamma := m.ContinuousVar(0, bound, fmt.Sprintf("gamma[%d][%d]", k, j))
			// λ_k + Σ β_e + γ_kj ≥ 0.
			feas := milp.NewExpr(milp.T(1, lambda[k]), milp.T(1, gamma))
			for _, e := range dp.Paths[j].LAGs {
				feas.Add(1, beta[e])
			}
			m.Add(feas, milp.GE, 0, fmt.Sprintf("dualfeas[%d][%d]", k, j))
			gateTerm(cfg, m, enc, k, j, gamma, 1, &dual)
		}
	}
	return dual
}
