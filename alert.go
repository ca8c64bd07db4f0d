package raha

import (
	"context"

	"raha/internal/alert"
)

// AlertConfig parameterizes the paper's two-phase production alerting loop
// (§1, §3): phase 1 quickly checks whether a probable failure scenario
// degrades the network at its peak demand (fixed demand — fast, the "<10
// minutes" path); if not, phase 2 searches over the full demand envelope
// (the "< an hour" path). See alert.Config for field docs; every field type
// is re-exported by this package (Topology, DemandPaths, Matrix, Envelope,
// Tracer, SolveProgress).
type AlertConfig = alert.Config

// AlertReport is the outcome of an alerting run.
type AlertReport = alert.Report

// Alert runs the two-phase check. Phase 2 is skipped when phase 1 already
// raises, and when phase 1 is Infeasible (no scenario fits the failure
// budget, whatever the demands).
func Alert(cfg AlertConfig) (*AlertReport, error) {
	return alert.Run(context.Background(), cfg)
}

// AlertContext is Alert under a context: cancelling it interrupts whichever
// phase is solving, which then reports the best scenario found so far (see
// AnalyzeContext).
func AlertContext(ctx context.Context, cfg AlertConfig) (*AlertReport, error) {
	return alert.Run(ctx, cfg)
}
