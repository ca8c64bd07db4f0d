// Package alert implements the paper's two-phase production alerting loop
// (§1, §3): phase 1 quickly checks whether a probable failure scenario
// degrades the network at its peak demand (fixed demand — fast, the "<10
// minutes" path); if not, phase 2 searches over the full demand envelope
// (the "< an hour" path). The root raha package re-exports Config and Report
// verbatim; internal/batch drives this package directly for whole-fleet
// sweeps.
package alert

import (
	"context"
	"fmt"
	"time"

	"raha/internal/demand"
	"raha/internal/metaopt"
	"raha/internal/milp"
	"raha/internal/obs"
	"raha/internal/paths"
	"raha/internal/topology"
)

// Config parameterizes the two-phase check.
type Config struct {
	Topo    *topology.Topology
	Demands []paths.DemandPaths

	// Peak is the per-pair peak demand (phase 1's fixed matrix).
	Peak demand.Matrix
	// Envelope is the variable-demand space for phase 2. A zero value
	// defaults to [0, peak] per demand.
	Envelope demand.Envelope

	// ProbThreshold restricts the search to probable scenarios. Required.
	ProbThreshold float64

	// Tolerance is the operator's pain threshold, normalized by mean LAG
	// capacity: an alert is raised when degradation / meanLAGCapacity
	// exceeds it. It must be ≥ 0; 0 raises on any degradation.
	Tolerance float64

	// MaxFailures, when positive, caps the number of simultaneously failed
	// links in both phases — the k-failure analysis of §5.1.
	MaxFailures int

	ConnectivityEnforced bool
	QuantBits            int

	// Phase budgets (solver time limits). Zero means no limit.
	Phase1Budget, Phase2Budget time.Duration

	// Workers bounds the branch-and-bound parallelism of each phase's
	// solve; 0 uses all cores. Each solve may run narrower: a root
	// relaxation with only a handful of fractional integers runs serial
	// (milp.Params.AutoWidth).
	Workers int

	// Tracer and OnProgress flow into both phases' solver params (see
	// milp.Params); either may be nil.
	Tracer     obs.Tracer
	OnProgress func(milp.Progress)

	// Check runs the static model checker before each phase's solve
	// (milp.Params.Check).
	Check bool
}

// Report is the outcome of an alerting run.
type Report struct {
	// Raised reports whether either phase found a degradation above the
	// tolerance.
	Raised bool
	// Phase is 1 or 2 when Raised, 0 otherwise.
	Phase int
	// NormalizedDegradation is the worst degradation found, divided by the
	// topology's mean LAG capacity (the paper's reporting unit).
	NormalizedDegradation float64

	// Phase2 is nil when phase 1 raised, and when phase 1 ended Infeasible:
	// both phases carry the same threshold, failure-count and CE rows over
	// the same failure variables, so no demand envelope makes phase 2
	// feasible and it is not built.
	Phase1, Phase2 *metaopt.Result
}

// Run executes the two-phase check. Phase 2 is skipped when phase 1 already
// raises, or proves that no scenario fits the budget at all. Cancelling ctx
// interrupts whichever phase is solving, which then reports the best scenario
// found so far (see metaopt.AnalyzeContext) — a cancelled run still returns a
// Report, not an error.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	return RunWith(ctx, cfg, metaopt.AnalyzeContext)
}

// RunWith is Run with each phase's analysis handed to solve, which must
// answer it as metaopt.AnalyzeContext would. A fleet sweep passes a solve
// that answers from what its grid has already proved (internal/batch).
func RunWith(ctx context.Context, cfg Config, solve func(context.Context, metaopt.Config) (*metaopt.Result, error)) (*Report, error) {
	if cfg.Topo == nil || len(cfg.Demands) == 0 {
		return nil, fmt.Errorf("raha: alert config needs a topology and demands")
	}
	// Written so that a NaN fails the comparison and is refused too.
	if !(cfg.ProbThreshold > 0) {
		return nil, fmt.Errorf("raha: alerting requires a probability threshold (got %g)", cfg.ProbThreshold)
	}
	if !(cfg.Tolerance >= 0) {
		return nil, fmt.Errorf("raha: alert tolerance %g is not a non-negative number", cfg.Tolerance)
	}
	if len(cfg.Peak) != len(cfg.Demands) {
		return nil, fmt.Errorf("raha: peak matrix covers %d demands, path set has %d", len(cfg.Peak), len(cfg.Demands))
	}
	norm := cfg.Topo.MeanLAGCapacity()
	if norm <= 0 {
		return nil, fmt.Errorf("raha: topology has no capacity")
	}

	rep := &Report{}
	env1, env2 := cfg.PhaseEnvelopes()

	// Phase 1: fixed peak demand — the healthy optimum is a constant and
	// the MILP carries only failure variables.
	p1, err := solve(ctx, metaopt.Config{
		Topo:                 cfg.Topo,
		Demands:              cfg.Demands,
		Envelope:             env1,
		ProbThreshold:        cfg.ProbThreshold,
		MaxFailures:          cfg.MaxFailures,
		ConnectivityEnforced: cfg.ConnectivityEnforced,
		Solver:               cfg.solver(cfg.Phase1Budget),
	})
	if err != nil {
		return nil, fmt.Errorf("raha: alert phase 1: %w", err)
	}
	rep.Phase1 = p1
	rep.NormalizedDegradation = p1.Degradation / norm
	if rep.NormalizedDegradation > cfg.Tolerance {
		rep.Raised = true
		rep.Phase = 1
		return rep, nil
	}
	if p1.Status == milp.Infeasible {
		return rep, nil
	}

	// Phase 2: search the demand envelope too.
	p2, err := solve(ctx, metaopt.Config{
		Topo:                 cfg.Topo,
		Demands:              cfg.Demands,
		Envelope:             env2,
		ProbThreshold:        cfg.ProbThreshold,
		MaxFailures:          cfg.MaxFailures,
		ConnectivityEnforced: cfg.ConnectivityEnforced,
		QuantBits:            cfg.QuantBits,
		Solver:               cfg.solver(cfg.Phase2Budget),
	})
	if err != nil {
		return nil, fmt.Errorf("raha: alert phase 2: %w", err)
	}
	rep.Phase2 = p2
	if n := p2.Degradation / norm; n > rep.NormalizedDegradation {
		rep.NormalizedDegradation = n
	}
	if rep.NormalizedDegradation > cfg.Tolerance {
		rep.Raised = true
		rep.Phase = 2
	}
	return rep, nil
}

// PhaseEnvelopes returns the demand space each phase searches: the fixed
// peak matrix for phase 1, and for phase 2 Envelope, or [0, peak] per demand
// when Envelope is the zero value.
func (cfg *Config) PhaseEnvelopes() (phase1, phase2 demand.Envelope) {
	phase2 = cfg.Envelope
	if len(phase2.Lo) == 0 {
		phase2 = demand.UpTo(cfg.Peak, 0)
	}
	return demand.Fixed(cfg.Peak), phase2
}

// solver assembles one phase's solver params from the shared knobs.
func (cfg *Config) solver(budget time.Duration) milp.Params {
	return milp.Params{
		TimeLimit:  budget,
		Workers:    cfg.Workers,
		AutoWidth:  true,
		Tracer:     cfg.Tracer,
		OnProgress: cfg.OnProgress,
		Check:      cfg.Check,
	}
}
