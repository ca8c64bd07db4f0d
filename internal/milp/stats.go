package milp

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Stats aggregates the work one branch-and-bound solve performed — the
// accounting a commercial solver prints in its log. During the search the
// counters live in the internal statsAcc accumulator (typed atomics);
// Result carries a plain snapshot taken after every worker has exited, so
// every field here is an ordinary value readable without synchronization.
//
// Every node counted by Result.Nodes ends in exactly one of the six
// outcomes, so
//
//	Nodes == NodesBranched + PrunedInfeasible + PrunedBound +
//	         PrunedIterLimit + Integral + UnboundedNodes
//
// holds on any clean solve (the stats regression test asserts it at
// Workers 1 and 4). PrePruned, PropagationPrunes and BudgetPrunes count
// subproblems discarded before they were ever claimed as nodes, so all three
// sit outside Result.Nodes and the sum above.
type Stats struct {
	LPSolves         int64 // LP relaxations solved (nodes, heuristics, hints)
	LPIterations     int64 // simplex iterations across those solves
	DegeneratePivots int64 // near-zero-step pivots inside those solves
	BlandPivots      int64 // pivots priced under Bland's anti-cycling rule

	WarmStarts    int64 // LPs re-optimized from an inherited basis (phase 1 skipped)
	WarmIters     int64 // simplex iterations across those warm solves (dual + primal)
	ColdFallbacks int64 // warm attempts whose basis was unusable (cold two-phase ran)

	NodesBranched    int64 // processed nodes that produced two children
	PrunedInfeasible int64 // node relaxation infeasible
	PrunedBound      int64 // relaxation no better than the incumbent (LPCutoffs of them without solving it out)
	PrunedIterLimit  int64 // abandoned unsolved: the relaxation hit the LP iteration cap or failed numerically
	Integral         int64 // relaxation integral — an incumbent candidate
	UnboundedNodes   int64 // relaxation unbounded

	// The objective cutoff at work: warm LPs are solved with the incumbent as
	// lp.Options.ObjLimit and stop once their dual bound passes it.
	LPCutoffs       int64 // nodes pruned that way (a subset of PrunedBound)
	LPObjLimitStops int64 // every LP that stopped that way: those nodes plus rounding-heuristic LPs

	PrePruned        int64 // popped nodes discarded on the inherited parent bound (not in Result.Nodes)
	BoundPrunes      int64 // those of them that only the caller's Params.Bound could discard: the incumbent had reached it
	IncumbentUpdates int64 // times the incumbent improved
	HeuristicSolves  int64 // rounding-heuristic LPs (includes warm-start hints)
	MaxOpen          int64 // high-water mark of the open-node queue

	PresolveFixedVars       int64 // variables substituted out by root presolve
	PresolveRemovedRows     int64 // rows eliminated (singleton, redundant, emptied)
	PresolveTightenedBounds int64 // bound tightenings root presolve applied
	PresolveTightenedCoefs  int64 // big-M coefficients (or RHSs) shrunk
	PropagationPrunes       int64 // children pruned by domain propagation before any LP (not in Result.Nodes)
	BudgetPrunes            int64 // children discarded at creation by the Params.Knapsack cap (not in Result.Nodes)
	PseudocostBranches      int64 // branch decisions scored by reliable pseudocosts (vs most-fractional fallback)

	// Wall-clock attribution in nanoseconds, populated when the solve is
	// observed (Params.Tracer, Params.OnProgress, or Params.Timing) and
	// zero otherwise — an unobserved solve pays no per-node clock reads
	// (TestNilTracerOverhead guards the budget). The first five buckets are
	// disjoint: every nanosecond a worker spends inside a node lands in
	// exactly one of LPWarmNs/LPColdNs (the simplex), HeurNs (rounding-
	// heuristic overhead around its own LP solves), or BranchNs (everything
	// else in node processing: status handling, pseudocost scoring, branch
	// selection, child setup, domain propagation). PresolveNs is the root
	// presolve, spent once before the workers start.
	PresolveNs int64 // root presolve wall clock
	LPWarmNs   int64 // LP solves that re-optimized from an inherited basis
	LPColdNs   int64 // cold two-phase LP solves (incl. warm-start fallbacks)
	HeurNs     int64 // rounding-heuristic time excluding its LP solves
	BranchNs   int64 // node-processing time excluding LP and heuristic

	// Queue accounting: what obtaining work and handing it back cost.
	// QueuePopNs covers every claim attempt — the local pop, steal scans
	// and spin yields, but not backoff sleep — and QueuePushNs every
	// publish of a processed node's children.
	QueuePopNs  int64 // total claim latency across all attempts
	QueuePops   int64 // successful claims (== Nodes on a clean solve)
	QueuePushNs int64 // total child-publish critical-section latency
	QueuePushes int64 // publishes (== claims that ran process)

	// Work-stealing traffic (zero at Workers 1): how often load
	// had to move between workers. A healthy parallel search steals
	// rarely — each steal is a worker that ran its own subtree dry — and
	// FailedSteals counts full scans that found every victim empty (the
	// starved tail of the search).
	Steals       int64 // successful steals (one batch each)
	FailedSteals int64 // steal scans that found nothing anywhere
	StolenNodes  int64 // nodes moved between workers across all steals
	StealNs      int64 // wall clock inside successful steals (timed solves)

	// PerWorker is the per-worker utilization summary, indexed by worker
	// id. Empty when the solve was unobserved (see above) or never started
	// its workers (presolve proved infeasibility), since without per-node
	// clock reads there is nothing meaningful to attribute. Per-worker node
	// counts partition Nodes: the sum of
	// PerWorker[i].Nodes equals Nodes (asserted by the stats regression
	// test at Workers 1 and 4).
	PerWorker []WorkerStats
}

// statsAcc is the live accumulator behind Stats while a solve is running.
// Counters that workers and the sampler touch concurrently are typed
// atomics, so no word is ever mixed between atomic and plain access; the
// remaining fields (the presolve figures) are written serially before the
// worker pool starts.
// snapshot flattens the accumulator into the plain Stats that Result
// carries, after which every consumer read is an ordinary field access.
type statsAcc struct {
	lpSolves         atomic.Int64
	lpIterations     atomic.Int64
	degeneratePivots atomic.Int64
	blandPivots      atomic.Int64

	warmStarts    atomic.Int64
	warmIters     atomic.Int64
	coldFallbacks atomic.Int64

	nodesBranched    atomic.Int64
	prunedInfeasible atomic.Int64
	prunedBound      atomic.Int64
	prunedIterLimit  atomic.Int64
	integral         atomic.Int64
	unboundedNodes   atomic.Int64

	lpCutoffs       atomic.Int64
	lpObjLimitStops atomic.Int64

	prePruned        atomic.Int64
	boundPrunes      atomic.Int64
	incumbentUpdates atomic.Int64
	heuristicSolves  atomic.Int64

	propagationPrunes  atomic.Int64
	budgetPrunes       atomic.Int64
	pseudocostBranches atomic.Int64

	lpWarmNs    atomic.Int64
	lpColdNs    atomic.Int64
	heurNs      atomic.Int64
	branchNs    atomic.Int64
	queuePopNs  atomic.Int64
	queuePops   atomic.Int64
	queuePushNs atomic.Int64
	queuePushes atomic.Int64

	steals       atomic.Int64
	failedSteals atomic.Int64
	stolenNodes  atomic.Int64
	stealNs      atomic.Int64

	maxOpen atomic.Int64 // high-water mark of the open-node count, CAS-maxed by publish

	// Root-presolve figures: written once before the workers start, read
	// only after they exit. Plain on purpose.
	presolveNs              int64
	presolveFixedVars       int64
	presolveRemovedRows     int64
	presolveTightenedBounds int64
	presolveTightenedCoefs  int64
}

// snapshot copies the accumulator into a plain Stats. The typed atomics
// make the loads race-free even mid-solve, though callers take it after the
// pool drains so the copy is quiescent. PerWorker is folded in separately
// by the caller (it needs the workerAcc slice).
func (a *statsAcc) snapshot() Stats {
	return Stats{
		LPSolves:         a.lpSolves.Load(),
		LPIterations:     a.lpIterations.Load(),
		DegeneratePivots: a.degeneratePivots.Load(),
		BlandPivots:      a.blandPivots.Load(),

		WarmStarts:    a.warmStarts.Load(),
		WarmIters:     a.warmIters.Load(),
		ColdFallbacks: a.coldFallbacks.Load(),

		NodesBranched:    a.nodesBranched.Load(),
		PrunedInfeasible: a.prunedInfeasible.Load(),
		PrunedBound:      a.prunedBound.Load(),
		PrunedIterLimit:  a.prunedIterLimit.Load(),
		Integral:         a.integral.Load(),
		UnboundedNodes:   a.unboundedNodes.Load(),

		LPCutoffs:       a.lpCutoffs.Load(),
		LPObjLimitStops: a.lpObjLimitStops.Load(),

		PrePruned:        a.prePruned.Load(),
		BoundPrunes:      a.boundPrunes.Load(),
		IncumbentUpdates: a.incumbentUpdates.Load(),
		HeuristicSolves:  a.heuristicSolves.Load(),
		MaxOpen:          a.maxOpen.Load(),

		PresolveFixedVars:       a.presolveFixedVars,
		PresolveRemovedRows:     a.presolveRemovedRows,
		PresolveTightenedBounds: a.presolveTightenedBounds,
		PresolveTightenedCoefs:  a.presolveTightenedCoefs,
		PropagationPrunes:       a.propagationPrunes.Load(),
		BudgetPrunes:            a.budgetPrunes.Load(),
		PseudocostBranches:      a.pseudocostBranches.Load(),

		PresolveNs: a.presolveNs,
		LPWarmNs:   a.lpWarmNs.Load(),
		LPColdNs:   a.lpColdNs.Load(),
		HeurNs:     a.heurNs.Load(),
		BranchNs:   a.branchNs.Load(),

		QueuePopNs:  a.queuePopNs.Load(),
		QueuePops:   a.queuePops.Load(),
		QueuePushNs: a.queuePushNs.Load(),
		QueuePushes: a.queuePushes.Load(),

		Steals:       a.steals.Load(),
		FailedSteals: a.failedSteals.Load(),
		StolenNodes:  a.stolenNodes.Load(),
		StealNs:      a.stealNs.Load(),
	}
}

// WorkerStats is one branch-and-bound worker's utilization accounting.
// BusyNs + QueueWaitNs + IdleNs == WallNs (IdleNs is computed as the
// remainder, clamped at zero), so the three shares always sum to ~100% of
// the worker's wall clock.
type WorkerStats struct {
	Nodes       int64 // nodes this worker claimed and processed
	BusyNs      int64 // time inside node processing (LP, heuristic, branching)
	QueueWaitNs int64 // time claiming from / publishing to the queue
	IdleNs      int64 // remainder: started up, wound down, starved, or in steal backoff
	WallNs      int64 // worker goroutine lifetime
	Steals      int64 // successful steals this worker performed (work-stealing solves)
	StolenNodes int64 // nodes this worker took in those steals
}

// BusyShare returns BusyNs as a fraction of WallNs (0 when WallNs is 0).
func (w WorkerStats) BusyShare() float64 { return share(w.BusyNs, w.WallNs) }

// WaitShare returns QueueWaitNs as a fraction of WallNs.
func (w WorkerStats) WaitShare() float64 { return share(w.QueueWaitNs, w.WallNs) }

// IdleShare returns IdleNs as a fraction of WallNs.
func (w WorkerStats) IdleShare() float64 { return share(w.IdleNs, w.WallNs) }

func share(part, whole int64) float64 {
	if whole <= 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// Progress is a point-in-time snapshot of a running solve, delivered to
// Params.OnProgress by the sampler goroutine. Incumbent and Bound are in
// model sense; Gap is +Inf before the first incumbent.
type Progress struct {
	Elapsed       time.Duration
	Nodes         int
	Open          int // open-node queue depth
	Inflight      int // workers currently processing a node
	Workers       int
	Incumbents    int64 // incumbent updates so far
	HaveIncumbent bool
	Incumbent     float64
	Bound         float64
	Gap           float64
	NodesPerSec   float64
}

// String renders the snapshot as a Gurobi-style log line, e.g.
//
//	nodes 10409 (3741/s)  open 812  workers 8/8  incumbent 1180.0  bound 1192.4  gap 1.1%
func (p Progress) String() string {
	inc := "-"
	if p.HaveIncumbent {
		inc = fmt.Sprintf("%.1f", p.Incumbent)
	}
	bound := "-"
	if !math.IsInf(p.Bound, 0) && !math.IsNaN(p.Bound) {
		bound = fmt.Sprintf("%.1f", p.Bound)
	}
	gap := "-"
	if !math.IsInf(p.Gap, 0) && !math.IsNaN(p.Gap) {
		gap = fmt.Sprintf("%.1f%%", 100*p.Gap)
	}
	return fmt.Sprintf("nodes %d (%.0f/s)  open %d  workers %d/%d  incumbent %s  bound %s  gap %s",
		p.Nodes, p.NodesPerSec, p.Open, p.Inflight, p.Workers, inc, bound, gap)
}

// relGap is the relative optimality gap between an incumbent and a dual
// bound, +Inf when either is not finite.
func relGap(incumbent, bound float64) float64 {
	if math.IsInf(incumbent, 0) || math.IsNaN(incumbent) ||
		math.IsInf(bound, 0) || math.IsNaN(bound) {
		return math.Inf(1)
	}
	d := math.Abs(incumbent)
	if d < 1 {
		d = 1
	}
	return math.Abs(bound-incumbent) / d
}
