package metaopt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"raha/internal/demand"
	"raha/internal/failures"
	"raha/internal/milp"
	"raha/internal/obs"
	"raha/internal/paths"
	"raha/internal/te"
	"raha/internal/topology"
)

// Objective selects the TE formulation under analysis.
type Objective int8

// Supported TE objectives.
const (
	// TotalFlow is the paper's production objective (Eq. 2): maximize the
	// total demand met. Degradation = healthy flow − failed flow.
	TotalFlow Objective = iota
	// MLU is Appendix A's minimize-maximum-link-utilization objective.
	// Degradation = failed MLU − healthy MLU. Requires CE constraints.
	MLU
	// MaxMin is Appendix A's single-shot max-min fairness objective in its
	// geometric-binner approximation. Degradation = healthy binned utility
	// − failed binned utility.
	MaxMin
)

func (o Objective) String() string {
	switch o {
	case TotalFlow:
		return "totalflow"
	case MLU:
		return "mlu"
	case MaxMin:
		return "maxmin"
	}
	return fmt.Sprintf("objective(%d)", int(o))
}

// Mode selects what the adversary optimizes.
type Mode int8

// Analysis modes.
const (
	// Gap maximizes the degradation relative to the design point — Raha's
	// contribution (§2.1 right panel).
	Gap Mode = iota
	// FailedOnly minimizes the failed network's performance outright — the
	// naive baseline of §2.1's middle panel and of prior work [9, 38],
	// which chases trivially small demands.
	FailedOnly
)

func (m Mode) String() string {
	switch m {
	case Gap:
		return "gap"
	case FailedOnly:
		return "failedonly"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Config parameterizes an analysis run.
type Config struct {
	Topo     *topology.Topology
	Demands  []paths.DemandPaths
	Envelope demand.Envelope

	Objective Objective
	Mode      Mode

	// QuantBits controls demand quantization in variable-demand mode
	// (ignored when the envelope is fixed). 0 defaults to 3 (8 levels).
	QuantBits int

	// ProbThreshold, when positive, restricts the search to failure
	// scenarios with probability ≥ the threshold (§5.1).
	ProbThreshold float64

	// MaxFailures, when positive, caps the number of failed links — the
	// k-failure analysis of prior work (§5.1).
	MaxFailures int

	// ConnectivityEnforced keeps at least one path up per demand (§5.1 CE).
	ConnectivityEnforced bool

	// NaiveFailover models the §5.1 naive reaction: each backup path may
	// carry at most what its same-rank primary carried in the healthy
	// network. Only supported with a fixed envelope (the healthy flows
	// must be constants for the dual to stay linear).
	NaiveFailover bool

	// MLUDualBound bounds the failed-network dual variables of the MLU and
	// MaxMin objectives (0 defaults to 10). Too small a bound biases the
	// failed network's performance upward — an underestimate of the
	// degradation, conservative for alerting; see DESIGN.md.
	MLUDualBound float64

	// MaxMinBinner shapes the geometric binner of the MaxMin objective.
	// Zero values take the te package defaults (6 bins, ratio 2).
	MaxMinBinner te.BinnerConfig

	// Solver forwards limits to the branch-and-bound backend (the paper's
	// Gurobi timeout feature).
	Solver milp.Params

	// WarmStartScenario and WarmStartDemands optionally seed a Gap-mode
	// search with a known-good point — typically the result of analyzing a
	// narrower envelope in a parameter sweep. Demands are rounded onto the
	// quantizer grid; on a fixed envelope only the scenario seeds the search.
	// The warm start is ignored unless both are set (one demand value per
	// demand), and ignored in FailedOnly mode.
	WarmStartScenario *failures.Scenario
	WarmStartDemands  []float64
}

// Result reports the worst case the analyzer found.
type Result struct {
	Status milp.Status

	// Degradation is the verified performance gap: both networks re-solved
	// as plain LPs at the returned demand and scenario. For TotalFlow it is
	// healthy flow − failed flow; for MLU it is failed MLU − healthy MLU.
	Degradation float64

	// ModelObjective is the MILP's own objective value (matches
	// Degradation up to solver tolerances in Gap mode).
	ModelObjective float64

	Demands  []float64          // the adversarial demand matrix
	Scenario *failures.Scenario // the adversarial failure scenario

	Healthy *te.Result // design point at the adversarial demand
	Failed  *te.Result // network under the adversarial scenario

	Runtime time.Duration
	Nodes   int // branch-and-bound nodes explored

	// Bound and Gap report the MILP's dual bound and relative optimality
	// gap — how far from provably-worst the returned scenario might be
	// when a limit stopped the search (Gap is 0 on Optimal, +Inf with no
	// incumbent).
	Bound float64
	Gap   float64

	// BudgetBound is the lost-capacity bound (DESIGN.md §2.1): what the
	// failure budget alone proves about the degradation, before any model is
	// built. Nil when the analysis has none — another objective, FailedOnly
	// mode, neither a probability threshold nor a failure count set, or a
	// knapsack search that was stopped before its root solved. Bound is
	// never weaker than it.
	BudgetBound *float64
	// ClosedByBound reports that BudgetBound ended the analysis: outright
	// when it is ≤ 0 and failing nothing is inside the budget (no model, no
	// hint solves, zero nodes), or by draining the tree the moment an
	// incumbent reached it (Stats.BoundPrunes > 0).
	ClosedByBound bool

	// Stats is the branch-and-bound accounting of the main MILP solve
	// (hint solves excluded; they report under their own solves).
	Stats milp.Stats

	// Time split of the analysis: warm-start hint solves (the cheap
	// fixed-demand relaxations), the exact MILP, and the LP verification.
	HintRuntime   time.Duration
	SolveRuntime  time.Duration
	VerifyRuntime time.Duration
}

// ErrNaiveFailoverNeedsFixedDemand is returned when NaiveFailover is set
// with a variable envelope.
var ErrNaiveFailoverNeedsFixedDemand = errors.New("metaopt: naive fail-over requires a fixed demand envelope")

// validate checks the config and returns its objective's formulation.
func (c *Config) validate() (formulation, error) {
	if c.Topo == nil || len(c.Demands) == 0 {
		return formulation{}, fmt.Errorf("metaopt: config needs a topology and at least one demand")
	}
	if len(c.Envelope.Lo) != len(c.Demands) || len(c.Envelope.Hi) != len(c.Demands) {
		return formulation{}, fmt.Errorf("metaopt: envelope covers %d/%d demands (lo/hi), path set has %d", len(c.Envelope.Lo), len(c.Envelope.Hi), len(c.Demands))
	}
	// Written so that a NaN fails every comparison and is refused with the
	// out-of-range values.
	for k, lo := range c.Envelope.Lo {
		if hi := c.Envelope.Hi[k]; !(lo >= 0 && lo <= hi && !math.IsInf(hi, 1)) {
			return formulation{}, fmt.Errorf("metaopt: demand %d has envelope [%g, %g]; want finite 0 ≤ lo ≤ hi", k, lo, hi)
		}
	}
	if p := c.ProbThreshold; !(p >= 0 && p < 1) {
		return formulation{}, fmt.Errorf("metaopt: probability threshold %g outside [0, 1)", p)
	}
	if c.NaiveFailover && !c.Envelope.IsFixed() {
		return formulation{}, ErrNaiveFailoverNeedsFixedDemand
	}
	f, err := c.formulation()
	if err != nil {
		return formulation{}, err
	}
	if c.NaiveFailover && f.naiveFailover == nil {
		return formulation{}, fmt.Errorf("metaopt: naive fail-over is not modelled for the %v objective", c.Objective)
	}
	if f.requiresCE && !c.ConnectivityEnforced {
		return formulation{}, fmt.Errorf("metaopt: the %v objective requires ConnectivityEnforced (disconnected demands make its model infeasible)", c.Objective)
	}
	return f, nil
}

func (c *Config) quantBits() int {
	if c.QuantBits <= 0 {
		return 3
	}
	return c.QuantBits
}

func (c *Config) mluDualBound() float64 {
	if c.MLUDualBound <= 0 {
		return 10
	}
	return c.MLUDualBound
}

// Analyze runs the bilevel analysis and returns the worst-case scenario it
// found. With solver limits set, a Feasible status means the incumbent at
// the limit (the paper's timeout behaviour); the result is still a genuine
// — if possibly non-maximal — degradation scenario, verified by re-solving
// both networks.
func Analyze(cfg Config) (*Result, error) {
	return AnalyzeContext(context.Background(), cfg)
}

// AnalyzeContext is Analyze under a context: cancelling ctx stops the
// branch-and-bound search promptly and returns the best scenario found so
// far (Status Feasible), or Status Unknown with no scenario when nothing
// was found yet — the same semantics as the solver's time limit.
//
// Solver.TimeLimit is the budget of the whole analysis: the budget bound,
// the hint solves and the main solve share one deadline, and only the
// verification of the result runs past it.
func AnalyzeContext(ctx context.Context, cfg Config) (*Result, error) {
	f, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if tl := cfg.Solver.TimeLimit; tl > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, tl)
		defer cancel()
	}
	if tr := cfg.Solver.Tracer; tr != nil {
		tr.Emit("metaopt", "analysis_start", obs.F{
			"objective": cfg.Objective.String(),
			"mode":      cfg.Mode.String(),
			"demands":   len(cfg.Demands),
			"lags":      cfg.Topo.NumLAGs(),
			"fixed":     cfg.Envelope.IsFixed(),
		})
	}
	var res *Result
	if f.bound != nil {
		res, f.budget, err = f.bound(ctx, &cfg, f)
	}
	if res == nil && err == nil {
		res, err = analyze(ctx, &cfg, f)
	}
	if err != nil {
		return nil, err
	}
	res.Runtime = time.Since(start)
	if tr := cfg.Solver.Tracer; tr != nil {
		ev := obs.F{
			"status":    res.Status.String(),
			"nodes":     res.Nodes,
			"runtime_s": res.Runtime.Seconds(),
			"hint_s":    res.HintRuntime.Seconds(),
			"solve_s":   res.SolveRuntime.Seconds(),
			"verify_s":  res.VerifyRuntime.Seconds(),
		}
		if res.Scenario != nil {
			ev["degradation"] = res.Degradation
		}
		if res.ClosedByBound {
			ev["closed_by_bound"] = true
		}
		tr.Emit("metaopt", "analysis_end", ev)
	}
	return res, nil
}

// solveModel runs the shared tail of every analysis: warm-start hints, the
// MILP solve, solution extraction, and LP verification. The time split
// (hints vs. exact solve vs. verification) lands in the Result.
func solveModel(ctx context.Context, cfg *Config, f formulation, m *milp.Model, enc *failures.Encoding, dv *demandVars) (*Result, error) {
	params := cfg.Solver
	if f.budget != nil {
		params.Knapsack = enc.Knapsack(f.budget)
	}
	var hintDur time.Duration
	if cfg.Mode == Gap {
		if !cfg.Envelope.IsFixed() {
			hintStart := time.Now()
			params.Hints = append(params.Hints, fixedDemandHints(ctx, cfg, f, m, enc, dv)...)
			hintDur = time.Since(hintStart)
		}
		if h := buildWarmStartHint(m, cfg, enc, dv); h != nil {
			params.Hints = append(params.Hints, h)
		}
	}
	mres, err := m.SolveContext(ctx, params)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Status:        mres.Status,
		Nodes:         mres.Nodes,
		Bound:         mres.Bound,
		Gap:           mres.Gap(),
		BudgetBound:   params.Bound,
		ClosedByBound: mres.Status == milp.Optimal && mres.Stats.BoundPrunes > 0,
		Stats:         mres.Stats,
		HintRuntime:   hintDur,
		SolveRuntime:  mres.Runtime,
	}
	if mres.X == nil {
		return res, nil
	}
	res.ModelObjective = mres.Objective
	res.Scenario = enc.ScenarioFromSolution(mres.X)
	res.Demands = make([]float64, len(cfg.Demands))
	for k := range cfg.Demands {
		res.Demands[k] = dv.value(k, mres.X)
	}
	if err := verify(cfg, f, res); err != nil {
		return nil, err
	}
	return res, nil
}

// verify re-solves both networks as plain LPs at the adversarial point,
// fills in the verified degradation and the time that took, and traces it.
func verify(cfg *Config, f formulation, res *Result) error {
	start := time.Now()
	if err := resimulate(cfg, f, res); err != nil {
		return err
	}
	res.VerifyRuntime = time.Since(start)
	if tr := cfg.Solver.Tracer; tr != nil {
		tr.Emit("metaopt", "verify", obs.F{
			"degradation": res.Degradation,
			"runtime_s":   res.VerifyRuntime.Seconds(),
		})
	}
	return nil
}

// resimulate solves the healthy and the failed network at res.Demands and
// res.Scenario and fills in Healthy, Failed and Degradation =
// sign·(healthy − failed), left 0 unless both LPs solved.
func resimulate(cfg *Config, f formulation, res *Result) error {
	healthy, err := f.solve(cfg, res.Demands, te.FullCapacities(cfg.Topo), te.HealthyActive(cfg.Demands))
	if err != nil {
		return err
	}
	caps, active := res.Scenario.Capacities(cfg.Topo), res.Scenario.ActivePaths(cfg.Demands)
	var failed *te.Result
	if cfg.NaiveFailover {
		failed, err = f.naiveFailover(cfg, res.Demands, caps, active, healthy)
	} else {
		failed, err = f.solve(cfg, res.Demands, caps, active)
	}
	if err != nil {
		return err
	}
	res.Healthy, res.Failed = healthy, failed
	if healthy.Feasible && failed.Feasible {
		// Each side scaled on its own, so MLU's failed − healthy is exact.
		res.Degradation = f.sign*healthy.Objective - f.sign*failed.Objective
	}
	return nil
}

// assumeUnusedWorst: without a failure-count budget, unused links with π > ½
// are assumed failed (their most probable state) — exact, and it keeps the
// probability budget faithful on pruned topologies.
func (c *Config) assumeUnusedWorst() bool { return c.MaxFailures == 0 }

// addScenarioConstraints installs the §5.1 constraint menu on the encoding.
func addScenarioConstraints(cfg *Config, m *milp.Model, enc *failures.Encoding) error {
	if cfg.ProbThreshold > 0 {
		if err := enc.AddProbabilityThreshold(m, cfg.ProbThreshold, cfg.assumeUnusedWorst()); err != nil {
			return err
		}
	}
	if cfg.MaxFailures > 0 {
		enc.AddMaxFailures(m, cfg.MaxFailures)
	}
	if cfg.ConnectivityEnforced {
		enc.AddConnectivityEnforced(m)
	}
	return nil
}

// demandVars materializes the quantized demand d_k as an expression over
// fresh binary bit variables: d_k = Lo_k + unit_k·Σ 2^i·b_ki. Fixed demands
// yield constant expressions and no bits.
type demandVars struct {
	expr []milp.Expr  // d_k as an expression (constant when fixed)
	bits [][]milp.Var // per demand; nil when fixed
	q    *demand.Quantizer
}

func newDemandVars(cfg *Config, m *milp.Model) (*demandVars, error) {
	q, err := demand.NewQuantizer(cfg.Envelope, cfg.quantBits())
	if err != nil {
		return nil, err
	}
	dv := &demandVars{
		expr: make([]milp.Expr, len(cfg.Demands)),
		bits: make([][]milp.Var, len(cfg.Demands)),
		q:    q,
	}
	for k := range cfg.Demands {
		e := milp.NewExpr()
		e.AddConst(cfg.Envelope.Lo[k])
		if unit := q.Unit[k]; unit > 0 {
			dv.bits[k] = make([]milp.Var, q.Bits)
			scale := unit
			for i := 0; i < q.Bits; i++ {
				b := m.BinaryVar(fmt.Sprintf("dbit[%d][%d]", k, i))
				dv.bits[k][i] = b
				e.Add(scale, b)
				scale *= 2
			}
		}
		dv.expr[k] = e
	}
	return dv, nil
}

// value reads demand k's value out of a MILP solution.
func (dv *demandVars) value(k int, x []float64) float64 {
	return milp.Value(dv.expr[k], x)
}

// buildHint translates a concrete (scenario, demand) point into a
// warm-start vector for the variable-demand MILP: every integer variable of
// the failure encoding and the demand bits get values; the continuous
// variables (flows, duals, McCormick products) are left to the LP.
// steps(k) places demand k on the quantizer grid, at Lo_k + steps·unit_k; it
// is asked only for demands that have bits.
func buildHint(m *milp.Model, cfg *Config, enc *failures.Encoding, dv *demandVars, s *failures.Scenario, steps func(k int) int) []float64 {
	hint := make([]float64, m.NumVars())
	for i := range hint {
		hint[i] = math.NaN()
	}
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	for e := range enc.LinkDown {
		if !enc.Used[e] {
			continue
		}
		for l, v := range enc.LinkDown[e] {
			hint[v] = b2f(s.LinkDown[e][l])
		}
		hint[enc.LAGDown[e]] = b2f(s.LAGDown(e))
	}
	act := s.ActivePaths(cfg.Demands)
	for k, dp := range cfg.Demands {
		for j, p := range dp.Paths {
			hint[enc.PathDown[k][j]] = b2f(s.PathDown(p))
			if enc.Active[k][j] != nil {
				hint[*enc.Active[k][j]] = b2f(act[k][j])
			}
		}
		for i, b := range dv.bits[k] {
			hint[b] = float64((steps(k) >> uint(i)) & 1)
		}
	}
	return hint
}

// buildWarmStartHint encodes the user-supplied warm start: the supplied
// scenario, and each demand rounded onto the quantizer grid.
func buildWarmStartHint(m *milp.Model, cfg *Config, enc *failures.Encoding, dv *demandVars) []float64 {
	s := cfg.WarmStartScenario
	if s == nil || len(cfg.WarmStartDemands) != len(cfg.Demands) {
		return nil
	}
	maxLevel := (1 << uint(dv.q.Bits)) - 1
	return buildHint(m, cfg, enc, dv, s, func(k int) int {
		steps := int(math.Round((cfg.WarmStartDemands[k] - cfg.Envelope.Lo[k]) / dv.q.Unit[k]))
		return min(max(steps, 0), maxLevel)
	})
}

// fixedDemandHints runs quick fixed-demand analyses at two levels of the
// envelope (its top and midpoint) and turns each scenario they find into a
// warm start for the variable search, at the level it was found at.
func fixedDemandHints(ctx context.Context, cfg *Config, f formulation, m *milp.Model, enc *failures.Encoding, dv *demandVars) [][]float64 {
	budget := 10 * time.Second
	if cfg.Solver.TimeLimit > 0 && cfg.Solver.TimeLimit/4 < budget {
		budget = cfg.Solver.TimeLimit / 4
	}
	var hints [][]float64
	for _, level := range []float64{1.0, 0.5} {
		sub := *cfg
		lo := make([]float64, len(cfg.Envelope.Lo))
		for k := range lo {
			lo[k] = cfg.Envelope.Lo[k] + level*(cfg.Envelope.Hi[k]-cfg.Envelope.Lo[k])
		}
		sub.Envelope = demand.Envelope{Pairs: cfg.Envelope.Pairs, Lo: lo, Hi: lo}
		// The hint solves keep the main solve's params (sub is a copy) but
		// for a short budget and a loose gap: same width, and the same
		// tracer, so the trace shows the cheap fixed-demand relaxations
		// nested inside the main solve. Override, never re-list — a
		// re-listing once dropped the width settings.
		sub.Solver.TimeLimit, sub.Solver.MIPGap = budget, 0.05
		sub.Solver.Hints, sub.Solver.OnProgress = nil, nil
		hintStart := time.Now()
		res, err := analyze(ctx, &sub, f)
		found := err == nil && res.Scenario != nil
		if tr := cfg.Solver.Tracer; tr != nil {
			tr.Emit("metaopt", "hint", obs.F{
				"level":     level,
				"found":     found,
				"runtime_s": time.Since(hintStart).Seconds(),
			})
		}
		if found {
			// level ∈ [0,1] is the grid point Lo + level·(Hi − Lo), rounded.
			maxLevel := (1 << uint(dv.q.Bits)) - 1
			steps := int(math.Round(level * float64(maxLevel)))
			hints = append(hints, buildHint(m, cfg, enc, dv, res.Scenario, func(int) int { return steps }))
		}
	}
	return hints
}
