package milp

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"raha/internal/obs"
)

// Stats aggregates the work one branch-and-bound solve performed — the
// accounting a commercial solver prints in its log. Each worker adds into
// its own Stats, which only it writes; Result carries their sum, taken
// after every worker has exited, so every field here is an ordinary value
// readable without synchronization.
//
// Each counter is declared once, here: its `trace` tag is its solve_end key
// (DESIGN.md §2.6), and a `counter` tag names the process-wide obs.Default
// counter it is added to when the solve ends. emitSolveEnd, those adds and
// AddTrace all read the tags.
//
// Every node counted by Result.Nodes ends in exactly one of the six
// outcomes, so
//
//	Nodes == NodesBranched + PrunedInfeasible + PrunedBound +
//	         PrunedIterLimit + Integral + UnboundedNodes
//
// holds on any clean solve (the stats regression test asserts it at
// Workers 1 and 4), across both passes of a restarted one. PrePruned,
// PropagationPrunes, BudgetPrunes and RestartDiscarded count subproblems
// discarded before they were ever claimed as nodes, so all four sit outside
// Result.Nodes and the sum above.
type Stats struct {
	LPSolves         int64 `trace:"lp_solves"`         // LP relaxations solved (nodes, heuristics, hints)
	LPIterations     int64 `trace:"lp_iters"`          // simplex iterations across those solves
	DegeneratePivots int64 `trace:"degenerate_pivots"` // near-zero-step pivots inside those solves
	BlandPivots      int64 `trace:"bland_pivots"`      // pivots priced under Bland's anti-cycling rule

	WarmStarts     int64 `trace:"warm_starts" counter:"milp.warm_starts"`       // LPs re-optimized from an inherited basis (phase 1 skipped)
	WarmIters      int64 `trace:"warm_iters"`                                   // simplex iterations across those warm solves (dual + primal)
	ColdFallbacks  int64 `trace:"cold_fallbacks" counter:"milp.cold_fallbacks"` // warm attempts whose basis was unusable (a cold solve ran)
	DualColdStarts int64 `trace:"dual_cold_starts"`                             // cold LPs solved from the dual simplex on the slack basis (lp.Solution.DualCold)

	NodesBranched    int64 `trace:"nodes_branched"`    // processed nodes that produced two children
	PrunedInfeasible int64 `trace:"pruned_infeasible"` // node relaxation infeasible
	PrunedBound      int64 `trace:"pruned_bound"`      // relaxation no better than the incumbent (LPCutoffs of them without solving it out)
	PrunedIterLimit  int64 `trace:"pruned_iterlimit"`  // abandoned unsolved: the relaxation hit the LP iteration cap or failed numerically
	Integral         int64 `trace:"integral"`          // relaxation integral — an incumbent candidate
	UnboundedNodes   int64 `trace:"unbounded_nodes"`   // relaxation unbounded

	// The objective cutoff at work: warm LPs are solved with the incumbent as
	// lp.Options.ObjLimit and stop once their dual bound passes it.
	LPCutoffs       int64 `trace:"lp_cutoffs"`        // nodes pruned that way (a subset of PrunedBound)
	LPObjLimitStops int64 `trace:"lp_objlimit_stops"` // every LP that stopped that way: those nodes plus rounding-heuristic LPs

	PrePruned        int64 `trace:"pre_pruned"`       // popped nodes discarded on the inherited parent bound (not in Result.Nodes)
	BoundPrunes      int64 `trace:"bound_prunes"`     // those of them that only the caller's Params.Bound could discard: the incumbent had reached it
	IncumbentUpdates int64 `trace:"incumbents"`       // times the incumbent improved (solve-wide: Progress reads it live)
	HeuristicSolves  int64 `trace:"heuristic_solves"` // rounding-heuristic LPs (includes warm-start hints)
	MaxOpen          int64 `trace:"max_open"`         // high-water mark of the open-node queue (solve-wide)

	// The restart (solve-wide): once a solve has claimed as many nodes as its
	// searched model has integer variables, with open nodes left, it drops
	// them and searches again from the root with what it has learned.
	Restarts         int64 `trace:"restarts" counter:"milp.restarts"` // 0 or 1
	RestartDiscarded int64 `trace:"restart_discarded"`                // open nodes the restart dropped unexplored (not in Result.Nodes)

	// The presolve figures are solve-wide: root presolve runs once, before
	// the workers start.
	PresolveFixedVars       int64 `trace:"presolve_fixed" counter:"milp.presolve_fixed_vars"`        // variables substituted out by root presolve
	PresolveRemovedRows     int64 `trace:"presolve_rows" counter:"milp.presolve_removed_rows"`       // rows eliminated (singleton, redundant, emptied)
	PresolveTightenedBounds int64 `trace:"presolve_bounds" counter:"milp.presolve_tightened_bounds"` // bound tightenings root presolve applied
	PresolveTightenedCoefs  int64 `trace:"presolve_coefs" counter:"milp.presolve_tightened_coefs"`   // big-M coefficients (or RHSs) shrunk
	PropagationPrunes       int64 `trace:"propagation_prunes" counter:"milp.propagation_prunes"`     // children pruned by domain propagation before any LP (not in Result.Nodes)
	BudgetPrunes            int64 `trace:"budget_prunes" counter:"milp.budget_prunes"`               // children discarded at creation by the Params.Knapsack cap (not in Result.Nodes)
	PseudocostBranches      int64 `trace:"pseudocost_branches"`                                      // branch decisions scored by pseudocosts observed in both directions (vs most-fractional among unobserved)

	// Wall-clock attribution in nanoseconds. PresolveNs is the root
	// presolve, spent once before the workers start, and is measured on
	// every solve. The other four are populated only when the solve is
	// observed (Params.Tracer or Params.OnProgress) and are zero otherwise —
	// an unobserved solve pays no per-node clock reads (TestNilTracerOverhead
	// guards the budget). They are disjoint: every nanosecond a worker
	// spends inside a node lands in exactly one of LPWarmNs/LPColdNs (the
	// simplex), HeurNs (rounding-heuristic overhead around its own LP
	// solves), or BranchNs (everything else in node processing: status
	// handling, pseudocost scoring, branch selection, child setup, domain
	// propagation).
	PresolveNs int64 `trace:"presolve_ns"` // root presolve wall clock
	LPWarmNs   int64 `trace:"lp_warm_ns"`  // LP solves that re-optimized from an inherited basis
	LPColdNs   int64 `trace:"lp_cold_ns"`  // cold LP solves, either start (incl. warm-start fallbacks)
	HeurNs     int64 `trace:"heur_ns"`     // rounding-heuristic time excluding its LP solves
	BranchNs   int64 `trace:"branch_ns"`   // node-processing time excluding LP and heuristic

	// Queue accounting: what obtaining work and handing it back cost.
	// QueuePopNs covers every claim attempt — the local pop, steal scans
	// and spin yields, but not backoff sleep — and QueuePushNs every
	// publish of a processed node's children.
	QueuePopNs  int64 `trace:"queue_pop_ns"`  // total claim latency across all attempts
	QueuePops   int64 `trace:"queue_pops"`    // successful claims (== Nodes on a clean solve)
	QueuePushNs int64 `trace:"queue_push_ns"` // total child-publish critical-section latency
	QueuePushes int64 `trace:"queue_pushes"`  // publishes (== claims that ran process)

	// Work-stealing traffic (zero at Workers 1): how often load
	// had to move between workers. A healthy parallel search steals
	// rarely — each steal is a worker that ran its own subtree dry — and
	// FailedSteals counts full scans that found every victim empty (the
	// starved tail of the search).
	Steals       int64 `trace:"steals" counter:"milp.steals"`               // successful steals (one batch each)
	FailedSteals int64 `trace:"failed_steals" counter:"milp.failed_steals"` // steal scans that found nothing anywhere
	StolenNodes  int64 `trace:"stolen_nodes" counter:"milp.stolen_nodes"`   // nodes moved between workers across all steals
	StealNs      int64 `trace:"steal_ns"`                                   // wall clock inside successful steals (timed solves)

	// PerWorker is the per-worker utilization summary, indexed by worker
	// id. Empty when the solve was unobserved (see above) or never started
	// its workers (presolve proved infeasibility), since without per-node
	// clock reads there is nothing meaningful to attribute. Per-worker node
	// counts partition Nodes: the sum of
	// PerWorker[i].Nodes equals Nodes (asserted by the stats regression
	// test at Workers 1 and 4). In the trace it is solve_end's per_worker
	// array, keyed by the WorkerStats tags.
	PerWorker []WorkerStats
}

// WorkerStats is one branch-and-bound worker's utilization accounting.
// BusyNs + QueueWaitNs + IdleNs == WallNs (IdleNs is computed as the
// remainder, clamped at zero), so the three shares always sum to ~100% of
// the worker's wall clock.
type WorkerStats struct {
	Nodes       int64 `trace:"nodes"`                                 // nodes this worker claimed and processed
	BusyNs      int64 `trace:"busy_ns" counter:"milp.worker_busy_ns"` // time inside node processing (LP, heuristic, branching)
	QueueWaitNs int64 `trace:"wait_ns" counter:"milp.worker_wait_ns"` // time claiming from / publishing to the queue
	IdleNs      int64 `trace:"idle_ns" counter:"milp.worker_idle_ns"` // remainder: started up, wound down, starved, or in steal backoff
	WallNs      int64 `trace:"wall_ns"`                               // worker goroutine lifetime
	Steals      int64 `trace:"steals"`                                // successful steals this worker performed (work-stealing solves)
	StolenNodes int64 `trace:"stolen_nodes"`                          // nodes this worker took in those steals
}

// statField is one int64 counter of Stats or WorkerStats as its tags
// declare it: its field index, its trace key, and the process-wide counter
// it is added to when a solve ends (nil: none).
type statField struct {
	index   int
	key     string
	counter *obs.Counter
}

// statFields lists the counters of Stats and WorkerStats by struct type: the
// one field index every reader of the tags shares, filled at package init.
var statFields = map[reflect.Type][]statField{
	reflect.TypeFor[Stats]():       nil,
	reflect.TypeFor[WorkerStats](): nil,
}

func init() {
	for t := range statFields {
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.Type.Kind() != reflect.Int64 {
				continue
			}
			var c *obs.Counter
			if name := f.Tag.Get("counter"); name != "" {
				c = obs.Default.Counter(name)
			}
			statFields[t] = append(statFields[t], statField{i, f.Tag.Get("trace"), c})
		}
	}
}

// each calls fn on every counter of v, in declaration order.
func each[T Stats | WorkerStats](v *T, fn func(statField, reflect.Value)) {
	r := reflect.ValueOf(v).Elem()
	for _, f := range statFields[r.Type()] {
		fn(f, r.Field(f.index))
	}
}

// add adds every counter of src into dst.
func add[T Stats | WorkerStats](dst, src *T) {
	s := reflect.ValueOf(src).Elem()
	each(dst, func(f statField, x reflect.Value) { x.SetInt(x.Int() + s.Field(f.index).Int()) })
}

// putTrace writes v's counters into the event fields e under their keys.
func putTrace[T Stats | WorkerStats](e obs.F, v *T) {
	each(v, func(f statField, x reflect.Value) { e[f.key] = x.Int() })
}

// addTrace adds the counters the decoded event fields e carry into v.
// JSON numbers decode as float64; a missing key adds nothing.
func addTrace[T Stats | WorkerStats](v *T, e obs.F) {
	each(v, func(f statField, x reflect.Value) {
		n, _ := e[f.key].(float64)
		x.SetInt(x.Int() + int64(n))
	})
}

// count adds st's counters, and its workers', to their process-wide
// counters.
func count(st *Stats) {
	bump := func(f statField, x reflect.Value) {
		if f.counter != nil {
			f.counter.Add(x.Int())
		}
	}
	each(st, bump)
	for i := range st.PerWorker {
		each(&st.PerWorker[i], bump)
	}
}

// AddTrace adds the counters of one solve_end event, decoded from a JSONL
// trace, into st, and its per_worker entries into st.PerWorker by worker
// id: decoding a solve's solve_end into a zero Stats gives back its
// Result.Stats, and decoding several sums them. A trace written before a
// counter existed reads it as zero.
func (st *Stats) AddTrace(e obs.F) error {
	addTrace(st, e)
	pw, _ := e["per_worker"].([]any)
	for i, raw := range pw {
		w, ok := raw.(map[string]any)
		if !ok {
			return fmt.Errorf("per_worker[%d] is not an object", i)
		}
		for len(st.PerWorker) <= i {
			st.PerWorker = append(st.PerWorker, WorkerStats{})
		}
		addTrace(&st.PerWorker[i], w)
	}
	return nil
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
