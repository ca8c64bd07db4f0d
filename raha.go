// Package raha is a from-scratch Go implementation of Raha, the WAN
// degradation analyzer of "Raha: A General Tool to Analyze WAN Degradation"
// (SIGCOMM 2025).
//
// Raha finds the failure scenario and traffic demands that maximize the gap
// between a traffic-engineered network's design point (the network with no
// failures) and the network under failure — over arbitrary failure
// combinations (weighted by probability), arbitrary demand envelopes, any
// tunnel-selection policy, and several TE objectives (total demand met,
// MLU, max-min fairness). It can also compute capacity augments that
// eliminate every probable degradation.
//
// # Quick start
//
//	top := raha.SmallWAN()
//	pairs := raha.TopPairs(top, 6, 1)
//	dps, _ := raha.ComputePaths(top, pairs, 2, 1, nil)
//	base := raha.Gravity(top, pairs, top.MeanLAGCapacity()/2, 1)
//	res, _ := raha.Analyze(raha.Config{
//		Topo:          top,
//		Demands:       dps,
//		Envelope:      raha.UpTo(base, 0.3),   // demands up to 130% of base
//		ProbThreshold: 1e-4,                    // probable failures only
//	})
//	fmt.Println(res.Degradation / top.MeanLAGCapacity())
//
// The heavy lifting lives in internal packages: a bounded-variable simplex
// LP solver and branch-and-bound MILP engine (internal/lp, internal/milp),
// the §5 failure encodings (internal/failures), and the MetaOpt-style
// bilevel analyzer (internal/metaopt). This package is the supported
// surface.
package raha

import (
	"context"
	"io"

	"raha/internal/augment"
	"raha/internal/demand"
	"raha/internal/failures"
	"raha/internal/metaopt"
	"raha/internal/milp"
	"raha/internal/obs"
	"raha/internal/paths"
	"raha/internal/probability"
	"raha/internal/topology"
)

// --- Topology ---------------------------------------------------------------

// Topology is an undirected WAN graph whose edges are LAGs (bundles of
// physical links).
type Topology = topology.Topology

// Node identifies a node within a Topology.
type Node = topology.Node

// Link is one physical member link of a LAG, with capacity and failure
// probability.
type Link = topology.Link

// LAG is an edge: a bundle of physical links between two nodes.
type LAG = topology.LAG

// GenConfig parameterizes the synthetic WAN generator.
type GenConfig = topology.GenConfig

// NewTopology returns an empty topology.
func NewTopology() *Topology { return topology.New() }

// ParseGML parses a Topology Zoo GML file.
func ParseGML(src string, defaultCapacity float64) (*Topology, error) {
	return topology.ParseGML(src, defaultCapacity)
}

// GenerateTopology builds a connected seeded random WAN.
func GenerateTopology(cfg GenConfig) (*Topology, error) { return topology.Generate(cfg) }

// Named topologies: B4 is the published 12-node WAN; the others are seeded
// stand-ins with the node/edge counts of the paper's datasets (see
// DESIGN.md, "Substitutions").
func B4() *Topology          { return topology.B4() }
func Uninett2010() *Topology { return topology.Uninett2010() }
func Cogentco() *Topology    { return topology.Cogentco() }
func AfricaWAN() *Topology   { return topology.AfricaWAN() }
func SmallWAN() *Topology    { return topology.SmallWAN() }
func Figure1() *Topology     { return topology.Figure1() }

// --- Paths -------------------------------------------------------------------

// Path is a loop-free route through the topology.
type Path = paths.Path

// DemandPaths is one demand's ordered tunnel set: primaries first, then
// fail-over-ordered backups.
type DemandPaths = paths.DemandPaths

// Weight is an edge-weight function for path selection.
type Weight = paths.Weight

// ComputePaths builds k-shortest-path tunnel sets (primary + backup per
// pair). A nil weight selects hop count.
func ComputePaths(t *Topology, pairs [][2]Node, primary, backup int, w Weight) ([]DemandPaths, error) {
	return paths.Compute(t, pairs, primary, backup, w)
}

// KShortestPaths returns up to k loop-free shortest paths.
func KShortestPaths(t *Topology, src, dst Node, k int, w Weight) []Path {
	return paths.KShortest(t, src, dst, k, w)
}

// --- Demands -----------------------------------------------------------------

// Demand is one source→destination traffic volume.
type Demand = demand.Demand

// Matrix is an ordered demand list.
type Matrix = demand.Matrix

// Envelope bounds each demand: Lo ≤ d ≤ Hi.
type Envelope = demand.Envelope

// Fixed pins the envelope to the matrix (the paper's fixed-demand mode).
func Fixed(m Matrix) Envelope { return demand.Fixed(m) }

// UpTo allows each demand in [0, base·(1+slack)] (§8.3).
func UpTo(base Matrix, slack float64) Envelope { return demand.UpTo(base, slack) }

// Around allows each demand within ±slack of base (§2.1).
func Around(base Matrix, slack float64) Envelope { return demand.Around(base, slack) }

// Gravity synthesizes a gravity-model demand matrix.
func Gravity(t *Topology, pairs [][2]Node, scale float64, seed int64) Matrix {
	return demand.Gravity(t, pairs, scale, seed)
}

// TopPairs picks the n highest-gravity node pairs.
func TopPairs(t *Topology, n int, seed int64) [][2]Node { return demand.TopPairs(t, n, seed) }

// --- Analysis ----------------------------------------------------------------

// Objective selects the TE formulation (TotalFlow, MLU or MaxMin).
type Objective = metaopt.Objective

// TE objectives.
const (
	TotalFlow = metaopt.TotalFlow
	MLU       = metaopt.MLU
	MaxMin    = metaopt.MaxMin
)

// Mode selects the adversary's goal: Gap (Raha) or FailedOnly (the naive
// baseline of prior work).
type Mode = metaopt.Mode

// Analysis modes.
const (
	Gap        = metaopt.Gap
	FailedOnly = metaopt.FailedOnly
)

// Config parameterizes an analysis (see metaopt.Config for field docs).
type Config = metaopt.Config

// Result reports the worst case found.
type Result = metaopt.Result

// SolverParams forwards limits to the MILP backend (time, nodes, gap) and
// carries its observability hooks (Tracer, OnProgress). Its one behaviour
// knob is Workers, a ceiling above 1: a root LP with few fractional
// integers runs serial. Presolve is always on, and a solve reads wall
// clocks for its time attribution only when a Tracer or OnProgress
// observes it.
type SolverParams = milp.Params

// SolveStatus is the MILP solve outcome.
type SolveStatus = milp.Status

// Solve statuses. StatusFeasible means a limit (time, nodes, gap, or
// cancellation) stopped the search with an incumbent in hand.
const (
	StatusOptimal    = milp.Optimal
	StatusFeasible   = milp.Feasible
	StatusInfeasible = milp.Infeasible
	StatusUnbounded  = milp.Unbounded
	StatusUnknown    = milp.Unknown
)

// SolveStats is the branch-and-bound accounting of a solve: LP work, prune
// reasons, presolve reductions, incumbent updates (Result.Stats).
type SolveStats = milp.Stats

// SolveProgress is a live snapshot of a running solve, delivered to
// SolverParams.OnProgress.
type SolveProgress = milp.Progress

// --- Observability -------------------------------------------------------------

// Tracer receives structured events from every solve layer (lp pivots,
// milp nodes and incumbents, metaopt analyses, experiment sweeps). Set it
// on SolverParams.Tracer; a nil Tracer costs nothing.
type Tracer = obs.Tracer

// TraceEvent is one trace record: a timestamp, the emitting layer, the
// event name, and a payload.
type TraceEvent = obs.Event

// JSONLTracer writes events as JSON Lines, safe for concurrent emitters.
type JSONLTracer = obs.JSONLTracer

// NewJSONLTracer returns a tracer writing one JSON object per event to w.
func NewJSONLTracer(w io.Writer) *JSONLTracer { return obs.NewJSONLTracer(w) }

// MetricsServer is a running metrics/profiling HTTP listener with a
// graceful Shutdown(ctx) path (Close for an immediate stop).
type MetricsServer = obs.Server

// LatencySnapshot is a point-in-time latency distribution: count, sum,
// min/max, p50/p90/p99 estimates, and the non-empty log-spaced buckets.
// Solver histograms appear on /metrics and in SweepReport.CellLatency.
type LatencySnapshot = obs.HistogramSnapshot

// WorkerStats is one branch-and-bound worker's utilization summary
// (busy/queue-wait/idle shares of its wall clock), exposed per solve on
// SolveStats.PerWorker.
type WorkerStats = milp.WorkerStats

// ServeMetrics starts an HTTP listener exposing the process-wide solver
// metrics on /metrics (one JSON object: counters, gauges, histogram
// summaries) and /debug/vars (expvar), plus profiles on /debug/pprof/. It
// returns the server and the bound address (useful with ":0"); stop it
// with srv.Shutdown(ctx) for a clean drain or srv.Close for immediate.
func ServeMetrics(addr string) (srv *MetricsServer, boundAddr string, err error) {
	return obs.Serve(addr)
}

// Analyze finds the failure scenario and demands that maximize degradation.
func Analyze(cfg Config) (*Result, error) { return metaopt.Analyze(cfg) }

// AnalyzeContext is Analyze under a context: cancellation (or a deadline)
// stops the branch-and-bound search promptly, and the result carries the
// best scenario found so far with Status Feasible (Unknown when nothing was
// found yet) — the same semantics as a solver timeout.
func AnalyzeContext(ctx context.Context, cfg Config) (*Result, error) {
	return metaopt.AnalyzeContext(ctx, cfg)
}

// ClusterConfig parameterizes the Algorithm 1 clustering scheme.
type ClusterConfig = metaopt.ClusterConfig

// AnalyzeClustered runs Algorithm 1: approximate the worst demand cluster
// pair by cluster pair, then search failures at that fixed demand.
func AnalyzeClustered(cfg ClusterConfig) (*Result, error) { return metaopt.AnalyzeClustered(cfg) }

// AnalyzeClusteredContext is AnalyzeClustered under a context.
// cfg.Solver.Workers is the budget of the whole analysis: each wave of
// independent cluster-pair solves splits it between running pairs side by
// side and workers inside each solve.
func AnalyzeClusteredContext(ctx context.Context, cfg ClusterConfig) (*Result, error) {
	return metaopt.AnalyzeClusteredContext(ctx, cfg)
}

// Scenario is a concrete failure assignment with the paper's fail-over
// semantics.
type Scenario = failures.Scenario

// --- Augmentation -------------------------------------------------------------

// AugmentConfig parameterizes the §7 augmentation loop.
type AugmentConfig = augment.Config

// AugmentResult reports an existing-LAG augmentation run.
type AugmentResult = augment.Result

// AugmentStep is one iteration of the loop.
type AugmentStep = augment.Step

// NewLAGResult reports a new-LAG (Appendix C) augmentation run.
type NewLAGResult = augment.NewLAGResult

// AugmentExisting adds member links to existing LAGs until no probable
// failure degrades the network.
func AugmentExisting(cfg AugmentConfig) (*AugmentResult, error) {
	return augment.AugmentExisting(cfg)
}

// AugmentNewLAGs adds new LAGs from a candidate set (Appendix C).
func AugmentNewLAGs(cfg AugmentConfig, candidates [][2]Node) (*NewLAGResult, error) {
	return augment.AugmentNewLAGs(cfg, candidates)
}

// --- Failure probabilities -----------------------------------------------------

// Outage is one down interval of a link.
type Outage = probability.Outage

// EstimateDownProb estimates a link's down probability from telemetry via
// the renewal-reward theorem (Appendix B).
var EstimateDownProb = probability.EstimateDownProb

// SimulateOutages generates a synthetic outage log from a renewal process.
var SimulateOutages = probability.SimulateOutages

// MaxSimultaneousFailures answers Figure 2's question: how many links can
// simultaneously fail in a scenario of probability ≥ threshold.
var MaxSimultaneousFailures = probability.MaxSimultaneousFailures

// FailureCurve sweeps MaxSimultaneousFailures over thresholds.
var FailureCurve = probability.FailureCurve
