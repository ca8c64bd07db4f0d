package experiments

import (
	"context"
	"time"

	"raha/internal/conc"
	"raha/internal/demand"
	"raha/internal/metaopt"
	"raha/internal/milp"
	"raha/internal/probability"
	"raha/internal/topology"
)

// DemandVariant selects the demand mode of Figures 5/6.
type DemandVariant int8

// Demand variants, matching Figure 5's three panels.
const (
	FixedAvg DemandVariant = iota // (a) fixed average demand
	FixedMax                      // (b) fixed maximum demand (avg × maxFactor)
	Variable                      // (c) variable demand in [0, max]
)

func (v DemandVariant) String() string {
	switch v {
	case FixedAvg:
		return "fixed-avg"
	case FixedMax:
		return "fixed-max"
	case Variable:
		return "variable"
	}
	return "?"
}

// maxFactor is the ratio between the paper's "maximum over a month" and
// "average" demand matrices.
const maxFactor = 1.5

// envelope materializes a demand variant for the setup.
func (s *Setup) envelope(v DemandVariant) demand.Envelope {
	switch v {
	case FixedAvg:
		return demand.Fixed(s.Base)
	case FixedMax:
		return demand.Fixed(s.Base.Scale(maxFactor))
	default:
		return demand.UpTo(s.Base, maxFactor-1)
	}
}

// --- Figure 1 -----------------------------------------------------------------

// Fig1Row is one scenario of the motivating example, in raw volume units.
type Fig1Row struct {
	Scenario                     string
	Healthy, Failed, Degradation float64
}

// Figure1 plays out §2.1 on Figure1Setup with one link failure: the fixed
// typical demand, the naive baseline (the demand that minimizes the failed
// network alone) and Raha's joint search, both within ±50% of the typical
// demand. Degradation is healthy − failed flow for all three; the naive
// adversary does not maximize it, which is the figure's point.
func Figure1(s *Setup) ([]Fig1Row, error) {
	dps, err := s.Paths()
	if err != nil {
		return nil, err
	}
	scenarios := []struct {
		name string
		env  demand.Envelope
		mode metaopt.Mode
	}{
		{"fixed-demand", demand.Fixed(s.Base), metaopt.Gap},
		{"naive-worst", demand.Around(s.Base, 0.5), metaopt.FailedOnly},
		{"raha", demand.Around(s.Base, 0.5), metaopt.Gap},
	}
	tk := s.sweep("figure1", len(scenarios))
	rows := make([]Fig1Row, 0, len(scenarios))
	for _, sc := range scenarios {
		res, err := metaopt.Analyze(metaopt.Config{
			Topo: s.Topo, Demands: dps, Envelope: sc.env, Mode: sc.mode,
			MaxFailures: 1, QuantBits: s.QuantBits,
			Solver: s.solver(),
		})
		if err != nil {
			return nil, err
		}
		tk.step()
		h, f := res.Healthy.Objective, res.Failed.Objective
		rows = append(rows, Fig1Row{Scenario: sc.name, Healthy: h, Failed: f, Degradation: h - f})
	}
	return rows, nil
}

// --- Figure 2 -----------------------------------------------------------------

// Fig2Row is one point of Figure 2.
type Fig2Row struct {
	Threshold   float64
	MaxFailures int
}

// Figure2 computes the maximum number of links that can simultaneously fail
// within each probability threshold.
func Figure2(t *topology.Topology, thresholds []float64) []Fig2Row {
	curve := probability.FailureCurve(t, thresholds)
	rows := make([]Fig2Row, len(thresholds))
	for i, th := range thresholds {
		rows[i] = Fig2Row{Threshold: th, MaxFailures: curve[i]}
	}
	return rows
}

// --- Figure 3 -----------------------------------------------------------------

// Fig3Row compares Raha against the naive fixed-demand baselines at one
// slack value. All degradations are normalized by mean LAG capacity.
type Fig3Row struct {
	Slack          float64
	Raha, Max, Avg float64
}

// Figure3 reproduces §2.3: the baselines pin the demand (to the average, or
// to the slack-scaled maximum) and search failures only; Raha searches
// demands and failures jointly within the slack envelope.
func Figure3(s *Setup, slacks []float64, threshold float64) ([]Fig3Row, error) {
	dps, err := s.Paths()
	if err != nil {
		return nil, err
	}
	tk := s.sweep("figure3", 1+2*len(slacks))
	avgRes, err := s.analyze(dps, demand.Fixed(s.Base), threshold, 0, false, nil)
	if err != nil {
		return nil, err
	}
	tk.step()
	rows := make([]Fig3Row, 0, len(slacks))
	var prev *metaopt.Result
	for _, slack := range slacks {
		maxRes, err := s.analyze(dps, demand.Fixed(s.Base.Scale(1+slack)), threshold, 0, false, nil)
		if err != nil {
			return nil, err
		}
		tk.step()
		cfg := metaopt.Config{
			Topo: s.Topo, Demands: dps, Envelope: demand.UpTo(s.Base, slack),
			ProbThreshold: threshold, QuantBits: s.QuantBits,
			Solver: s.solver(),
		}
		// Seed with the previous (narrower-envelope) solution so the curve
		// is monotone by construction even under tight solver budgets.
		if prev != nil {
			cfg.WarmStartScenario = prev.Scenario
			cfg.WarmStartDemands = prev.Demands
		}
		rahaRes, err := metaopt.Analyze(cfg)
		if err != nil {
			return nil, err
		}
		tk.step()
		prev = rahaRes
		rows = append(rows, Fig3Row{
			Slack: slack,
			Raha:  rahaRes.Degradation / s.Norm,
			Max:   maxRes.Degradation / s.Norm,
			Avg:   avgRes.Degradation / s.Norm,
		})
	}
	return rows, nil
}

// --- Figures 5 & 6 -------------------------------------------------------------

// DegRow is one degradation measurement of the threshold × budget sweeps.
type DegRow struct {
	Threshold   float64
	MaxFailures int // 0 = unconstrained
	Variant     DemandVariant
	Degradation float64 // normalized
	Runtime     time.Duration
	Status      milp.Status
}

// Figure5 sweeps probability thresholds × failure budgets for one demand
// variant. Figure 6 is the same sweep with CE constraints.
func Figure5(s *Setup, variant DemandVariant, thresholds []float64, ks []int, ce bool) ([]DegRow, error) {
	dps, err := s.Paths()
	if err != nil {
		return nil, err
	}
	env := s.envelope(variant)
	s, fanout := s.plan(len(ks)) // each threshold's per-k solves are the parallel unit
	var rows []DegRow
	tk := s.sweep("figure5", len(thresholds)*len(ks))
	// Sweep thresholds from strict to loose, warm-starting each budget's
	// search with the previous threshold's solution (its scenario stays
	// feasible as the threshold relaxes), so the reported curve is monotone
	// even when the solver budget truncates the search. Each failure
	// budget's chain is independent of the others, so within one threshold
	// the per-k solves are one stage of the worker budget.
	prev := make(map[int]*metaopt.Result)
	for _, th := range thresholds {
		th := th
		step := make([]*metaopt.Result, len(ks))
		err := conc.ForEach(context.Background(), len(ks), fanout, func(_ context.Context, i int) error {
			res, err := s.analyze(dps, env, th, ks[i], ce, prev[ks[i]])
			step[i] = res
			if err == nil {
				tk.step()
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		for i, k := range ks {
			res := step[i]
			if res.Scenario != nil {
				prev[k] = res
			}
			rows = append(rows, DegRow{
				Threshold:   th,
				MaxFailures: k,
				Variant:     variant,
				Degradation: res.Degradation / s.Norm,
				Runtime:     res.Runtime,
				Status:      res.Status,
			})
		}
	}
	return rows, nil
}

// --- Figure 7 -----------------------------------------------------------------

// SlackRow is one point of the degradation-vs-slack sweep.
type SlackRow struct {
	Slack       float64
	MaxFailures int
	Degradation float64
	Runtime     time.Duration
}

// Figure7 sweeps the demand slack for each failure budget: a larger demand
// search space can only help the adversary.
func Figure7(s *Setup, slacks []float64, ks []int, threshold float64) ([]SlackRow, error) {
	dps, err := s.Paths()
	if err != nil {
		return nil, err
	}
	s, fanout := s.plan(len(ks)) // each slack's per-k solves are the parallel unit
	var rows []SlackRow
	tk := s.sweep("figure7", len(slacks)*len(ks))
	prev := make(map[int]*metaopt.Result) // per failure budget
	for _, slack := range slacks {
		slack := slack
		step := make([]*metaopt.Result, len(ks))
		err := conc.ForEach(context.Background(), len(ks), fanout, func(_ context.Context, i int) error {
			cfg := metaopt.Config{
				Topo: s.Topo, Demands: dps, Envelope: demand.UpTo(s.Base, slack),
				ProbThreshold: threshold, MaxFailures: ks[i], QuantBits: s.QuantBits,
				Solver: s.solver(),
			}
			if p := prev[ks[i]]; p != nil {
				cfg.WarmStartScenario = p.Scenario
				cfg.WarmStartDemands = p.Demands
			}
			res, err := metaopt.Analyze(cfg)
			step[i] = res
			if err == nil {
				tk.step()
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		for i, k := range ks {
			prev[k] = step[i]
			rows = append(rows, SlackRow{Slack: slack, MaxFailures: k, Degradation: step[i].Degradation / s.Norm, Runtime: step[i].Runtime})
		}
	}
	return rows, nil
}

// --- Figures 8 & 9 -------------------------------------------------------------

// ClusterRow is one clustering measurement.
type ClusterRow struct {
	Clusters    int
	Threshold   float64
	MaxFailures int
	Degradation float64
	Runtime     time.Duration
}

// Figure8 runs the Uninett2010 sweep with and without clustering: demands
// are capped at half the mean LAG capacity (the paper's bottleneck guard).
func Figure8(s *Setup, clusters int, thresholds []float64, ks []int) ([]ClusterRow, error) {
	dps, err := s.Paths()
	if err != nil {
		return nil, err
	}
	env := demand.UpTo(s.Base, maxFactor-1).Cap(s.Norm / 2)
	// Every (threshold, k) cell is independent: the whole grid fans out.
	type cell struct {
		th float64
		k  int
	}
	var grid []cell
	for _, th := range thresholds {
		for _, k := range ks {
			grid = append(grid, cell{th, k})
		}
	}
	s, fanout := s.plan(len(grid))
	rows := make([]ClusterRow, len(grid))
	tk := s.sweep("figure8", len(grid))
	err = conc.ForEach(context.Background(), len(grid), fanout, func(_ context.Context, i int) error {
		c := grid[i]
		res, err := metaopt.AnalyzeClustered(metaopt.ClusterConfig{
			Config: metaopt.Config{
				Topo: s.Topo, Demands: dps, Envelope: env,
				ProbThreshold: c.th, MaxFailures: c.k,
				QuantBits: s.QuantBits,
				Solver:    s.solver(),
			},
			Clusters: clusters,
		})
		if err != nil {
			return err
		}
		rows[i] = ClusterRow{Clusters: clusters, Threshold: c.th, MaxFailures: c.k, Degradation: res.Degradation / s.Norm, Runtime: res.Runtime}
		tk.step()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Figure9 varies the cluster count under a fixed total solver budget (the
// paper divides Gurobi's timeout by the number of solves).
func Figure9(s *Setup, clusterCounts []int, threshold float64, k int) ([]ClusterRow, error) {
	dps, err := s.Paths()
	if err != nil {
		return nil, err
	}
	env := demand.UpTo(s.Base, maxFactor-1)
	// The outer loop stays serial so each row's wall-clock runtime is
	// meaningful; the independent cluster-pair solves inside each
	// AnalyzeClustered run split the worker budget per wave instead.
	var rows []ClusterRow
	tk := s.sweep("figure9", len(clusterCounts))
	for _, n := range clusterCounts {
		start := time.Now()
		res, err := metaopt.AnalyzeClustered(metaopt.ClusterConfig{
			Config: metaopt.Config{
				Topo: s.Topo, Demands: dps, Envelope: env,
				ProbThreshold: threshold, MaxFailures: k,
				QuantBits: s.QuantBits,
				Solver:    s.solver(),
			},
			Clusters: n,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, ClusterRow{Clusters: n, Threshold: threshold, MaxFailures: k, Degradation: res.Degradation / s.Norm, Runtime: time.Since(start)})
		tk.step()
	}
	return rows, nil
}

// --- Figure 10 & 14: runtime factors -------------------------------------------

// RuntimeRow is one runtime measurement against a swept factor.
type RuntimeRow struct {
	Factor      string // which knob was swept
	Value       float64
	Runtime     time.Duration
	Degradation float64
}

// Figure10 measures how the number of primary paths, the probability
// threshold, and the failure budget drive the analyzer's runtime (variable
// demands; path-computation time included, as in the paper).
func Figure10(s *Setup, primaries []int, thresholds []float64, ks []int, threshold float64) ([]RuntimeRow, error) {
	env := demand.UpTo(s.Base, maxFactor-1)
	var rows []RuntimeRow
	tk := s.sweep("figure10", len(primaries)+len(thresholds)+len(ks))

	// Every point of each factor sweep is an independent analysis; each
	// factor is its own stage of the worker budget while the factor groups
	// stay in the paper's order.
	st, fanout := s.plan(len(primaries))
	prim := make([]RuntimeRow, len(primaries))
	err := conc.ForEach(context.Background(), len(primaries), fanout, func(_ context.Context, i int) error {
		sub := *st
		sub.Primary = primaries[i]
		start := time.Now()
		dps, err := sub.Paths()
		if err != nil {
			return err
		}
		res, err := sub.analyze(dps, env, threshold, 0, false, nil)
		if err != nil {
			return err
		}
		prim[i] = RuntimeRow{Factor: "primary-paths", Value: float64(primaries[i]), Runtime: time.Since(start), Degradation: res.Degradation / s.Norm}
		tk.step()
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, prim...)

	dps, err := s.Paths()
	if err != nil {
		return nil, err
	}
	st, fanout = s.plan(len(thresholds))
	ths := make([]RuntimeRow, len(thresholds))
	err = conc.ForEach(context.Background(), len(thresholds), fanout, func(_ context.Context, i int) error {
		res, err := st.analyze(dps, env, thresholds[i], 0, false, nil)
		if err != nil {
			return err
		}
		ths[i] = RuntimeRow{Factor: "threshold", Value: thresholds[i], Runtime: res.Runtime, Degradation: res.Degradation / s.Norm}
		tk.step()
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, ths...)

	st, fanout = s.plan(len(ks))
	kr := make([]RuntimeRow, len(ks))
	err = conc.ForEach(context.Background(), len(ks), fanout, func(_ context.Context, i int) error {
		res, err := st.analyze(dps, env, threshold, ks[i], false, nil)
		if err != nil {
			return err
		}
		kr[i] = RuntimeRow{Factor: "max-failures", Value: float64(ks[i]), Runtime: res.Runtime, Degradation: res.Degradation / s.Norm}
		tk.step()
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, kr...)
	return rows, nil
}

// Figure14 measures runtime against the number of backup paths, including
// path computation (the paper's dominant cost at high backup counts).
func Figure14(s *Setup, backups []int, threshold float64) ([]RuntimeRow, error) {
	env := demand.UpTo(s.Base, maxFactor-1)
	s, fanout := s.plan(len(backups))
	rows := make([]RuntimeRow, len(backups))
	tk := s.sweep("figure14", len(backups))
	err := conc.ForEach(context.Background(), len(backups), fanout, func(_ context.Context, i int) error {
		sub := *s
		sub.Backup = backups[i]
		start := time.Now()
		dps, err := sub.Paths()
		if err != nil {
			return err
		}
		res, err := sub.analyze(dps, env, threshold, 0, false, nil)
		if err != nil {
			return err
		}
		rows[i] = RuntimeRow{Factor: "backup-paths", Value: float64(backups[i]), Runtime: time.Since(start), Degradation: res.Degradation / s.Norm}
		tk.step()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// --- Figures 12, 13, 15: paths and degradation ----------------------------------

// PathRow is one point of the path-count sweeps.
type PathRow struct {
	Primaries   int
	Backups     int
	MaxFailures int
	Degradation float64
}

// Figure12 sweeps the number of primary paths (a: plain, b: CE) and backup
// paths (c) under variable demands. Figure 15 repeats it with the fixed
// maximum demand; Figure 13 uses a spread-out weighted path selection.
func Figure12(s *Setup, primaries, backups []int, ks []int, threshold float64, ce bool, variant DemandVariant) ([]PathRow, error) {
	env := s.envelope(variant)

	// Flatten the (path-count, k) grid: every cell is an independent
	// analysis, so the whole sweep is one stage of the worker budget with
	// each cell writing its own row slot. Path sets are computed per cell —
	// cheap next to the solves — which keeps the cells fully independent.
	type cell struct {
		primary, backup, k int
	}
	var grid []cell
	for _, np := range primaries {
		for _, k := range ks {
			grid = append(grid, cell{primary: np, backup: s.Backup, k: k})
		}
	}
	for _, nb := range backups {
		for _, k := range ks {
			grid = append(grid, cell{primary: s.Primary, backup: nb, k: k})
		}
	}
	s, fanout := s.plan(len(grid))
	rows := make([]PathRow, len(grid))
	tk := s.sweep("figure12", len(grid))
	err := conc.ForEach(context.Background(), len(grid), fanout, func(_ context.Context, i int) error {
		c := grid[i]
		sub := *s
		sub.Primary = c.primary
		sub.Backup = c.backup
		dps, err := sub.Paths()
		if err != nil {
			return err
		}
		res, err := sub.analyze(dps, env, threshold, c.k, ce, nil)
		if err != nil {
			return err
		}
		rows[i] = PathRow{Primaries: c.primary, Backups: c.backup, MaxFailures: c.k, Degradation: res.Degradation / s.Norm}
		tk.step()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// SpreadWeight returns a LAG weight that de-correlates k-shortest paths
// (Figure 13's alternative path selection): preferring higher-capacity LAGs
// with a deterministic per-LAG perturbation spreads paths over distinct
// LAGs instead of letting them pile onto the same shortest corridor.
func SpreadWeight(t *topology.Topology) func(int) float64 {
	return func(id int) float64 {
		l := t.LAG(id)
		perturb := float64((id*2654435761)%97) / 97.0
		return 1 + 0.5*perturb + 100/(100+l.Capacity())
	}
}

// --- Figure 16: timeouts ---------------------------------------------------------

// TimeoutRow is one point of the timeout sweep.
type TimeoutRow struct {
	Timeout     time.Duration
	Runtime     time.Duration
	Degradation float64
	Status      milp.Status
}

// Figure16 sweeps the solver timeout: runtime tracks the budget, the
// degradation found should not (the paper's "timeouts do not impact
// quality" claim).
func Figure16(s *Setup, timeouts []time.Duration, threshold float64, k int) ([]TimeoutRow, error) {
	dps, err := s.Paths()
	if err != nil {
		return nil, err
	}
	env := demand.UpTo(s.Base, maxFactor-1)
	var rows []TimeoutRow
	tk := s.sweep("figure16", len(timeouts))
	for _, to := range timeouts {
		sub := *s
		sub.Budget = to
		res, err := sub.analyze(dps, env, threshold, k, false, nil)
		if err != nil {
			return nil, err
		}
		rows = append(rows, TimeoutRow{Timeout: to, Runtime: res.Runtime, Degradation: res.Degradation / s.Norm, Status: res.Status})
		tk.step()
	}
	return rows, nil
}

// --- §8.5 and Appendix A: other objectives; fixed-demand runtime -------------------

// ObjectiveRow is one worst-case degradation measurement under another TE
// objective than total flow, in that objective's own units (not normalized;
// the paper reports raw MLU).
type ObjectiveRow struct {
	Slack       float64
	Degradation float64
	Runtime     time.Duration
}

// ObjectiveSlack reproduces §8.5 "on other objectives" (MLU, which requires
// CE constraints) and Appendix A's max-min objective (the geometric binner):
// worst-case degradation under obj at increasing slack, gravity demands.
// The production base is already well under capacity, so the healthy MLU
// model can route every demand in full.
func ObjectiveSlack(s *Setup, obj metaopt.Objective, slacks []float64, threshold float64) ([]ObjectiveRow, error) {
	dps, err := s.Paths()
	if err != nil {
		return nil, err
	}
	var rows []ObjectiveRow
	tk := s.sweep(obj.String(), len(slacks))
	for _, slack := range slacks {
		res, err := metaopt.Analyze(metaopt.Config{
			Topo: s.Topo, Demands: dps,
			Envelope:             demand.UpTo(s.Base, slack),
			Objective:            obj,
			ProbThreshold:        threshold,
			ConnectivityEnforced: obj == metaopt.MLU,
			QuantBits:            s.QuantBits,
			Solver:               s.solver(),
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, ObjectiveRow{Slack: slack, Degradation: res.Degradation, Runtime: res.Runtime})
		tk.step()
	}
	return rows, nil
}

// FixedRuntime runs repeated fixed-demand analyses and reports each runtime
// (the paper's "2.68 ± 0.35 minutes no matter the setting" claim, scaled).
func FixedRuntime(s *Setup, repeats int, thresholds []float64) ([]RuntimeRow, error) {
	dps, err := s.Paths()
	if err != nil {
		return nil, err
	}
	env := demand.Fixed(s.Base)
	var rows []RuntimeRow
	tk := s.sweep("fixed-runtime", repeats*len(thresholds))
	for r := 0; r < repeats; r++ {
		for _, th := range thresholds {
			res, err := s.analyze(dps, env, th, 0, false, nil)
			if err != nil {
				return nil, err
			}
			rows = append(rows, RuntimeRow{Factor: "fixed-demand", Value: th, Runtime: res.Runtime, Degradation: res.Degradation / s.Norm})
			tk.step()
		}
	}
	return rows, nil
}
