package experiments

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"raha/internal/metaopt"
	"raha/internal/topology"
)

// Experiment is one table or figure of the paper's evaluation, written down
// once: its instance and default solver budget, its one grid, its CSV
// format, and the paper claim its rows must uphold. Registry lists them all.
type Experiment struct {
	Name string // CSV base name, e.g. "figure5"

	budget time.Duration // default solver budget per analysis; 0 = no limit
	header string
	width  int // cells in every formatted row
	setup  func(budget time.Duration) *Setup
	run    func(*Setup) (*Table, error)
}

// Table is one run of an experiment.
type Table struct {
	Lines []string // CSV: the header, then one line per row
	Claim error    // non-nil when the rows contradict the paper's claim
}

// Run regenerates the experiment on its own instance. A positive budget
// overrides the experiment's default; tune, when non-nil, applies the
// run-wide settings (Workers, Tracer, OnProgress)
// before the first analysis.
func (e Experiment) Run(budget time.Duration, tune func(*Setup)) (*Table, error) {
	if budget <= 0 {
		budget = e.budget
	}
	s := e.setup(budget)
	if tune != nil {
		tune(s)
	}
	return e.run(s)
}

// spec is an Experiment with its row type still visible.
type spec[R any] struct {
	name, header string
	budget       time.Duration
	setup        func(time.Duration) *Setup
	run          func(*Setup) ([]R, error)
	line         func(R) string
	claim        func([]R) error // nil: the figure asserts no claim
}

func (p spec[R]) experiment() Experiment {
	var zero R
	return Experiment{
		Name: p.name, budget: p.budget, header: p.header,
		width: strings.Count(p.line(zero), ",") + 1,
		setup: p.setup,
		run: func(s *Setup) (*Table, error) {
			rows, err := p.run(s)
			if err != nil {
				return nil, err
			}
			t := &Table{Lines: make([]string, 0, 1+len(rows))}
			t.Lines = append(t.Lines, p.header)
			for _, r := range rows {
				t.Lines = append(t.Lines, p.line(r))
			}
			if p.claim != nil {
				t.Claim = p.claim(rows)
			}
			return t, nil
		},
	}
}

// Registry returns every experiment in paper order. The grids are the ones
// EXPERIMENTS.md quotes; budgets are scaled to this repository's solver
// (see the package comment).
func Registry() []Experiment {
	const budget = 3 * time.Second
	thresholds := []float64{1e-1, 1e-3, 1e-5, 1e-7}
	return []Experiment{
		spec[Fig1Row]{
			name: "figure1", header: "scenario,healthy,failed,degradation",
			setup: Figure1Setup, run: Figure1,
			line: func(r Fig1Row) string {
				return fmt.Sprintf("%s,%g,%g,%g", r.Scenario, r.Healthy, r.Failed, r.Degradation)
			},
			claim: rahaBeatsNaive,
		}.experiment(),
		spec[Fig2Row]{
			name: "figure2", header: "threshold,max_failures",
			setup: Africa,
			run: func(s *Setup) ([]Fig2Row, error) {
				return Figure2(s.Topo, []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1}), nil
			},
			line:  func(r Fig2Row) string { return fmt.Sprintf("%g,%d", r.Threshold, r.MaxFailures) },
			claim: probableFailuresCurve,
		}.experiment(),
		spec[Fig3Row]{
			name: "figure3", header: "slack,raha,max,avg", budget: budget,
			setup: Production,
			run: func(s *Setup) ([]Fig3Row, error) {
				return Figure3(s, []float64{0, 0.4, 0.8, 1.4}, 1e-4)
			},
			line:  func(r Fig3Row) string { return fmt.Sprintf("%g,%g,%g,%g", r.Slack, r.Raha, r.Max, r.Avg) },
			claim: rahaDominatesBaselines,
		}.experiment(),
		degSpec("figure5", budget, thresholds, false),
		degSpec("figure6", budget, thresholds, true),
		spec[SlackRow]{
			name: "figure7", header: "slack,k,degradation", budget: budget,
			setup: Production,
			run: func(s *Setup) ([]SlackRow, error) {
				return Figure7(s, []float64{0, 1, 2, 4}, []int{1, 2, 0}, 1e-4)
			},
			line: func(r SlackRow) string {
				return fmt.Sprintf("%g,%s,%g", r.Slack, KLabel(r.MaxFailures), r.Degradation)
			},
		}.experiment(),
		spec[ClusterRow]{
			name: "figure8", header: "clusters,threshold,k,degradation,runtime_ms", budget: budget,
			setup: Uninett,
			run: func(s *Setup) ([]ClusterRow, error) {
				var rows []ClusterRow
				for _, clusters := range []int{0, 2} {
					r, err := Figure8(s, clusters, []float64{1e-2, 1e-4}, []int{1, 0})
					if err != nil {
						return nil, err
					}
					rows = append(rows, r...)
				}
				return rows, nil
			},
			line: func(r ClusterRow) string {
				return fmt.Sprintf("%d,%g,%s,%g,%d", r.Clusters, r.Threshold, KLabel(r.MaxFailures), r.Degradation, r.Runtime.Milliseconds())
			},
		}.experiment(),
		spec[ClusterRow]{
			name: "figure9", header: "clusters,degradation,runtime_ms", budget: budget,
			setup: Production,
			run: func(s *Setup) ([]ClusterRow, error) {
				return Figure9(s, []int{0, 2, 5, 10}, 1e-4, 0)
			},
			line: func(r ClusterRow) string {
				return fmt.Sprintf("%d,%g,%d", r.Clusters, r.Degradation, r.Runtime.Milliseconds())
			},
		}.experiment(),
		runtimeSpec("figure10", budget, Production, func(s *Setup) ([]RuntimeRow, error) {
			return Figure10(s, []int{1, 2, 4, 8}, thresholds, []int{1, 2, 4, 0}, 1e-4)
		}, nil),
		augmentSpec("figure11", budget, func(s *Setup) ([]AugmentRow, error) {
			return Figure11(s, []float64{0, 0.5, 1.0}, 1e-4, true)
		}, augmentConverged),
		pathSpec("figure12", 5*time.Second, []int{0, 1, 2}, false, Variable, nil),
		pathSpec("figure12b", 5*time.Second, []int{0, 1, 2}, true, Variable, nil),
		pathSpec("figure13", 5*time.Second, nil, false, Variable, SpreadWeight),
		runtimeSpec("figure14", budget, Production, func(s *Setup) ([]RuntimeRow, error) {
			return Figure14(s, []int{0, 1, 2, 3}, 1e-4)
		}, nil),
		pathSpec("figure15", budget, []int{0, 1, 2}, false, FixedMax, nil),
		spec[TimeoutRow]{
			// The budget is the swept variable: no default of its own.
			name: "figure16", header: "timeout_ms,runtime_ms,degradation,status",
			setup: Production,
			run: func(s *Setup) ([]TimeoutRow, error) {
				return Figure16(s, []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second}, 1e-4, 0)
			},
			line: func(r TimeoutRow) string {
				return fmt.Sprintf("%d,%d,%g,%v", r.Timeout.Milliseconds(), r.Runtime.Milliseconds(), r.Degradation, r.Status)
			},
			claim: qualityIndependentOfTimeout,
		}.experiment(),
		augmentSpec("figure17", budget, func(s *Setup) ([]AugmentRow, error) {
			return Figure11(s, []float64{0, 0.5, 1.0}, 1e-4, false)
		}, augmentConverged),
		augmentSpec("figure18", budget, func(s *Setup) ([]AugmentRow, error) {
			return Figure18(s, []float64{0, 0.5}, 1e-4, 8)
		}, nil),
		tableSpec("table3", budget, B4, func(s *Setup) ([]TableRow, error) {
			return Table3(s, []float64{1e-1, 1e-2, 1e-4}, []int{1, 2}, []int{1, 2, 0})
		}),
		tableSpec("table4", 8*time.Second, CogentcoSetup, func(s *Setup) ([]TableRow, error) {
			return Table4(s, 8, []float64{1e-1, 1e-2}, []int{1, 0})
		}),
		objectiveSpec("mlu", "slack,mlu_degradation,runtime_ms", budget, func(s *Setup) ([]ObjectiveRow, error) {
			return ObjectiveSlack(s, metaopt.MLU, []float64{0, 0.1, 0.2, 0.4}, 1e-4)
		}),
		objectiveSpec("maxmin", "slack,maxmin_degradation,runtime_ms", budget, func(s *Setup) ([]ObjectiveRow, error) {
			return ObjectiveSlack(s, metaopt.MaxMin, []float64{0, 0.25, 0.5}, 1e-4)
		}),
		// Fixed demand runs unlimited: the claim is that it needs no budget.
		runtimeSpec("fixed-runtime", 0, Africa, func(s *Setup) ([]RuntimeRow, error) {
			return FixedRuntime(s, 2, []float64{1e-2, 1e-4, 1e-6})
		}, fixedDemandFast),
	}
}

// Select resolves a comma-separated list of experiment names (case and
// surrounding space ignored) to registry entries, in registry order. An
// empty list selects every experiment; an unknown name is an error that
// lists the valid ones.
func Select(list string) ([]Experiment, error) {
	all := Registry()
	want := map[string]bool{}
	for _, n := range strings.Split(list, ",") {
		if n = strings.TrimSpace(strings.ToLower(n)); n != "" {
			want[n] = true
		}
	}
	if len(want) == 0 {
		return all, nil
	}
	var sel []Experiment
	names := make([]string, len(all))
	for i, e := range all {
		names[i] = e.Name
		if want[e.Name] {
			sel = append(sel, e)
			delete(want, e.Name)
		}
	}
	if len(want) > 0 {
		return nil, fmt.Errorf("unknown experiment %s (valid: %s)",
			strings.Join(slices.Sorted(maps.Keys(want)), ", "), strings.Join(names, ", "))
	}
	return sel, nil
}

// --- Row families shared by several entries -----------------------------------

// degSpec is Figure 5 (ce false) or Figure 6 (ce true): thresholds × failure
// budgets {1, 2, 4, ∞} for each of the three demand variants.
func degSpec(name string, budget time.Duration, thresholds []float64, ce bool) Experiment {
	return spec[DegRow]{
		name: name, header: "variant,threshold,k,degradation,runtime_ms,status", budget: budget,
		setup: Production,
		run: func(s *Setup) ([]DegRow, error) {
			var rows []DegRow
			for _, v := range []DemandVariant{FixedAvg, FixedMax, Variable} {
				r, err := Figure5(s, v, thresholds, []int{1, 2, 4, 0}, ce)
				if err != nil {
					return nil, err
				}
				rows = append(rows, r...)
			}
			return rows, nil
		},
		line: func(r DegRow) string {
			return fmt.Sprintf("%v,%g,%s,%g,%d,%v", r.Variant, r.Threshold, KLabel(r.MaxFailures), r.Degradation, r.Runtime.Milliseconds(), r.Status)
		},
		claim: unconstrainedDominates,
	}.experiment()
}

// pathSpec is Figure 12's grid — primaries {1, 2, 4, 8} and the given backup
// counts, k ∈ {2, ∞} at threshold 1e-5 — for one demand variant; weight,
// when non-nil, replaces hop-count path selection (Figure 13).
func pathSpec(name string, budget time.Duration, backups []int, ce bool, v DemandVariant, weight func(*topology.Topology) func(int) float64) Experiment {
	return spec[PathRow]{
		name: name, header: "primary,backup,k,degradation", budget: budget,
		setup: Production,
		run: func(s *Setup) ([]PathRow, error) {
			if weight != nil {
				s.Weight = weight(s.Topo)
			}
			return Figure12(s, []int{1, 2, 4, 8}, backups, []int{2, 0}, 1e-5, ce, v)
		},
		line: func(r PathRow) string {
			return fmt.Sprintf("%d,%d,%s,%g", r.Primaries, r.Backups, KLabel(r.MaxFailures), r.Degradation)
		},
	}.experiment()
}

func runtimeSpec(name string, budget time.Duration, setup func(time.Duration) *Setup, run func(*Setup) ([]RuntimeRow, error), claim func([]RuntimeRow) error) Experiment {
	return spec[RuntimeRow]{
		name: name, header: "factor,value,runtime_ms,degradation", budget: budget,
		setup: setup, run: run,
		line: func(r RuntimeRow) string {
			return fmt.Sprintf("%s,%g,%d,%g", r.Factor, r.Value, r.Runtime.Milliseconds(), r.Degradation)
		},
		claim: claim,
	}.experiment()
}

func augmentSpec(name string, budget time.Duration, run func(*Setup) ([]AugmentRow, error), claim func([]AugmentRow) error) Experiment {
	return spec[AugmentRow]{
		name: name, header: "slack,steps,avg_reduction,links_added,converged", budget: budget,
		setup: Production, run: run,
		line: func(r AugmentRow) string {
			return fmt.Sprintf("%g,%d,%g,%d,%v", r.Slack, r.Steps, r.AvgReduction, r.LinksAdded, r.Converged)
		},
		claim: claim,
	}.experiment()
}

func tableSpec(name string, budget time.Duration, setup func(time.Duration) *Setup, run func(*Setup) ([]TableRow, error)) Experiment {
	return spec[TableRow]{
		name: name, header: "threshold,backups,k,degradation,runtime_ms", budget: budget,
		setup: setup, run: run,
		line: func(r TableRow) string {
			return fmt.Sprintf("%g,%d,%s,%g,%d", r.Threshold, r.Backups, KLabel(r.MaxFailures), r.Degradation, r.Runtime.Milliseconds())
		},
	}.experiment()
}

func objectiveSpec(name, header string, budget time.Duration, run func(*Setup) ([]ObjectiveRow, error)) Experiment {
	return spec[ObjectiveRow]{
		name: name, header: header, budget: budget,
		setup: Production, run: run,
		line: func(r ObjectiveRow) string {
			return fmt.Sprintf("%g,%g,%d", r.Slack, r.Degradation, r.Runtime.Milliseconds())
		},
		claim: growsWithSlack,
	}.experiment()
}

// --- The paper's claims ---------------------------------------------------------

// rahaBeatsNaive: Raha's joint search finds a larger gap than the naive
// worst demand (Figure 1).
func rahaBeatsNaive(rows []Fig1Row) error {
	if rows[2].Degradation <= rows[1].Degradation {
		return fmt.Errorf("Raha (%g) must beat the naive baseline (%g)", rows[2].Degradation, rows[1].Degradation)
	}
	return nil
}

// probableFailuresCurve: the curve is nonincreasing in the threshold, and
// at its strictest point (1e-5) at least three links can fail — more than
// any k ≤ 2 analysis considers (Figure 2).
func probableFailuresCurve(rows []Fig2Row) error {
	for i := 1; i < len(rows); i++ {
		if rows[i].MaxFailures > rows[i-1].MaxFailures {
			return fmt.Errorf("curve must be nonincreasing in the threshold: %d at %g, %d at %g",
				rows[i-1].MaxFailures, rows[i-1].Threshold, rows[i].MaxFailures, rows[i].Threshold)
		}
	}
	if rows[0].MaxFailures < 3 {
		return fmt.Errorf("k ≤ 2 misses probable scenarios: expected ≥ 3 at %g, got %d", rows[0].Threshold, rows[0].MaxFailures)
	}
	return nil
}

// rahaDominatesBaselines: Raha's joint search finds at least what either
// fixed-demand baseline finds, at every slack (Figure 3).
func rahaDominatesBaselines(rows []Fig3Row) error {
	for _, r := range rows {
		if r.Raha < r.Max-1e-6 || r.Raha < r.Avg-1e-6 {
			return fmt.Errorf("Raha %.3f fell below a baseline (max %.3f, avg %.3f) at slack %.0f%%", r.Raha, r.Max, r.Avg, r.Slack*100)
		}
	}
	return nil
}

// unconstrainedDominates is the paper's headline: in each demand-variant
// panel, the unconstrained (k = ∞) analysis finds at least the degradation
// of every k ≤ 2 analysis at the same threshold (Figures 5 and 6).
func unconstrainedDominates(rows []DegRow) error {
	type cell struct {
		v  DemandVariant
		th float64
	}
	best := make(map[cell]float64) // unconstrained degradation per panel and threshold
	for _, r := range rows {
		if r.MaxFailures == 0 {
			best[cell{r.Variant, r.Threshold}] = r.Degradation
		}
	}
	for _, r := range rows {
		if r.MaxFailures >= 1 && r.MaxFailures <= 2 {
			if inf, ok := best[cell{r.Variant, r.Threshold}]; ok && inf < r.Degradation-1e-4 {
				return fmt.Errorf("%v, threshold %g: unconstrained %.3f below k=%d's %.3f", r.Variant, r.Threshold, inf, r.MaxFailures, r.Degradation)
			}
		}
	}
	return nil
}

// augmentConverged: the augment loop removes all probable degradation at
// every slack (Figures 11 and 17).
func augmentConverged(rows []AugmentRow) error {
	for _, r := range rows {
		if !r.Converged {
			return fmt.Errorf("augment did not converge at slack %.0f%%", r.Slack*100)
		}
	}
	return nil
}

// qualityIndependentOfTimeout: the degradation found does not depend on the
// timeout, thanks to strong incumbents (Figure 16).
func qualityIndependentOfTimeout(rows []TimeoutRow) error {
	for _, r := range rows[1:] {
		if r.Degradation < rows[0].Degradation-0.05 {
			return fmt.Errorf("degradation %.3f at timeout %v fell below the %v run's %.3f", r.Degradation, r.Timeout, rows[0].Timeout, rows[0].Degradation)
		}
	}
	return nil
}

// fixedDemandFast: a fixed-demand analysis is fast on the full-size
// production stand-in (§8.5).
func fixedDemandFast(rows []RuntimeRow) error {
	for _, r := range rows {
		if r.Runtime > 2*time.Minute {
			return fmt.Errorf("fixed-demand run took %v; the paper's point is that this path is fast", r.Runtime)
		}
	}
	return nil
}

// growsWithSlack: a wider demand envelope cannot shrink the worst case
// (§8.5 MLU, Appendix A max-min).
func growsWithSlack(rows []ObjectiveRow) error {
	if first, last := rows[0], rows[len(rows)-1]; last.Degradation < first.Degradation-1e-6 {
		return fmt.Errorf("degradation must not shrink with slack: %g at %g, %g at %g", first.Degradation, first.Slack, last.Degradation, last.Slack)
	}
	return nil
}
