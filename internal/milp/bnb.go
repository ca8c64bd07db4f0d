package milp

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"raha/internal/conc"
	"raha/internal/lp"
	"raha/internal/obs"
)

// Process-wide solver counters (obs.Default, exported through expvar as
// raha.milp.*) that tick live, mid-solve, so /debug/vars shows a running
// search move. These three are the only ones: every other milp counter is
// declared by a `counter` tag on Stats or WorkerStats and added once the
// solve ends, so a solve that returns an error adds nothing to it.
var (
	cSolves     = obs.Default.Counter("milp.solves")
	cNodes      = obs.Default.Counter("milp.nodes")
	cIncumbents = obs.Default.Counter("milp.incumbents")
)

// Hot-path latency histograms (obs.Default, published via /metrics and
// expvar). Queue pop/push are the cost of obtaining and handing back work;
// the LP pair shows what warm starts buy per solve; node_ns is the overall
// unit of work. Observe is a handful of atomic adds, covered by the
// nil-tracer overhead budget test.
var (
	hQueuePop    = obs.Default.Histogram("milp.queue_pop_ns")
	hQueuePush   = obs.Default.Histogram("milp.queue_push_ns")
	hLPWarm      = obs.Default.Histogram("milp.lp_warm_ns")
	hLPCold      = obs.Default.Histogram("milp.lp_cold_ns")
	hNodeProcess = obs.Default.Histogram("milp.node_ns")
	hSteal       = obs.Default.Histogram("milp.steal_ns")
)

// Status reports the outcome of a MILP solve.
type Status int8

// Solve outcomes. Feasible means a limit (time, nodes, gap, cancellation)
// stopped the search with an incumbent in hand — the behaviour the paper
// relies on when it runs Gurobi with its timeout feature.
const (
	Optimal Status = iota
	Feasible
	Infeasible
	Unbounded
	Unknown
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return "unknown"
}

// Params tunes the branch-and-bound search. Zero values select defaults.
//
// A solve with a Tracer or OnProgress is observed, and only an observed
// solve keeps wall-clock attribution: per-worker busy/queue-wait/idle
// accounting (Stats.PerWorker), the queue pop/push and LP warm/cold latency
// histograms, and the per-node Stats *Ns fields. On an unobserved solve
// every per-node clock read is behind one predictable branch — the same
// contract as the nil Tracer.
type Params struct {
	TimeLimit time.Duration // wall-clock budget; 0 = unlimited
	NodeLimit int           // maximum explored nodes; 0 = unlimited
	MIPGap    float64       // relative gap at which to stop; 0 = prove optimality

	// Workers is the worker budget of this solve: the number of concurrent
	// branch-and-bound workers, each re-solving node LPs on its own
	// lp.Problem. 0 defaults to runtime.GOMAXPROCS(0); 1 is the serial,
	// deterministic best-bound search. The optimal objective value does
	// not depend on Workers; node counts and which of several equally-good
	// solutions is returned may. A caller running several independent
	// solves at once divides its own budget with conc.Split and passes
	// each solve its share here.
	//
	// Above 1, Workers is a ceiling: before the pool starts the solver
	// solves the root relaxation once, caps the width at GOMAXPROCS, and
	// runs serial when only a handful of integer variables are fractional
	// there, since such a tree cannot keep several workers fed. The root
	// node then warm-starts from that probe's basis, and the chosen width
	// is emitted as an "auto_width" trace event.
	Workers int

	// Hints are warm-start candidates: full-length value vectors whose
	// integer entries are fixed (rounded, clamped to bounds) and whose
	// continuous entries are re-optimized by LP. Feasible hints become
	// incumbents before the search starts — the analogue of a MIP start in
	// a commercial solver. NaN entries on integer variables skip the hint.
	Hints [][]float64

	// Bound, when non-nil, is a bound on the optimum that the caller has
	// proved by other means, in model sense (an upper bound when maximizing)
	// — the dual-side twin of Hints. The dual bound the solve reports
	// (Progress.Bound, the MIPGap test, Result.Bound) is never weaker than
	// it, and once an incumbent reaches it, within 1e-6·(1+|Bound|), every
	// open node is discarded unsolved and the solve ends Optimal. It is used
	// on the dual side only: no LP, branching decision or node order depends
	// on it until then. A Bound below the true optimum makes the solve stop
	// at a suboptimal point and call it optimal; proving it is the caller's
	// job.
	Bound *float64

	// Knapsack, when non-nil, is a caller-proved bound that holds box by box
	// (see Knapsack) — Bound's per-node twin, for a Maximize model. After
	// domain propagation, each child's inherited bound is capped at the
	// knapsack's bound over the child's box, and a child whose cap the
	// incumbent has reached (within Bound's tolerance) is discarded at
	// creation, counted in Stats.BudgetPrunes. The capped bound orders the
	// queue and feeds the reported dual bound; no LP and no pseudocost sees
	// it. Like Bound, proving it is the caller's job.
	Knapsack *Knapsack

	// Tracer, when non-nil, receives the solve's event stream
	// (solve_start, node, incumbent, worker_sample, solve_end — see
	// internal/obs and DESIGN.md §2.6). A nil Tracer is the fast path:
	// every emit site is behind a nil check, so tracing disabled costs
	// one predictable branch per site.
	Tracer obs.Tracer

	// OnProgress, when non-nil, is called roughly every ProgressEvery
	// from a sampler goroutine with a live snapshot of the search — the
	// CLIs' -progress line. The callback must be fast and safe for
	// concurrent use with the solve.
	OnProgress func(Progress)

	// ProgressEvery is the sampler period for OnProgress and the
	// worker_sample trace events; 0 defaults to 250ms.

	ProgressEvery time.Duration

	// fixedWidth keeps the resolved width as asked: no auto-width probe
	// runs. It is the package tests' switch, for tests that pin node
	// counts, per-worker accounting or the deques at a given width.
	fixedWidth bool

	// disablePresolve turns off the whole reduction layer: the root
	// presolve (bound propagation, singleton/redundant-row elimination,
	// fixed-variable substitution, big-M tightening) and the per-node
	// domain propagation that runs after every branch. It is the package
	// tests' referee: the corpus equivalence test solves every instance
	// both ways, and -presolve=off runs the brute-force corpus without it.
	disablePresolve bool
}

// Result is the outcome of a MILP solve.
type Result struct {
	Status    Status
	Objective float64   // incumbent objective (model sense)
	Bound     float64   // best dual bound (model sense)
	X         []float64 // incumbent point; its integer variables hold exact integers
	Nodes     int
	Runtime   time.Duration
	Stats     Stats // solve accounting (LP work, prune reasons, incumbents)
}

// Gap returns the relative optimality gap of the result. Without an
// incumbent (or without a finite dual bound) there is no meaningful gap and
// it is +Inf.
func (r *Result) Gap() float64 {
	if r.Status == Optimal {
		return 0
	}
	return relGap(r.Objective, r.Bound)
}

// node is one open subproblem of the search tree.
type node struct {
	lo, hi []float64
	relax  float64    // bound inherited from the parent (model sense), capped by Params.Knapsack
	parent float64    // the parent's LP objective, which pseudocosts measure from
	seq    int        // creation order; 0 is the root
	depth  int        // tree depth; 0 is the root
	basis  *nodeBasis // parent relaxation's optimal basis (nil: solve cold)

	// The branch that created this node, for pseudocost accounting once its
	// relaxation solves: variable, direction, and the fractional distance
	// the branch moved it (bvar -1: the root / a node with no branch info).
	bvar  Var
	bup   bool
	bdist float64
}

// nodeBasis is a relaxation's optimal basis, shared by the children that
// warm-start from it. pending counts the children that have neither started
// their LP nor been pruned; the worker that brings it to zero hands the
// basis back to its LP (lp.Problem.RecycleBasis), whose next export fills it.
// A root basis is kept: restart queues the root with it again.
type nodeBasis struct {
	b       *lp.Basis
	pending atomic.Int32
	keep    bool
}

// get returns the basis to warm-start from (nil: solve cold).
func (nb *nodeBasis) get() *lp.Basis {
	if nb == nil {
		return nil
	}
	return nb.b
}

// started records that one child is done reading nb — its LP has started,
// or it was pruned or dropped unsolved — on worker wid (if it has an LP).
func (s *search) started(wid int, nb *nodeBasis) {
	if nb != nil && !nb.keep && nb.pending.Add(-1) == 0 && s.probs[wid] != nil {
		s.probs[wid].RecycleBasis(nb.b)
	}
}

// boundPool is one worker's free list of bound slices. Branching copies the
// parent's lo/hi for each child; recycling the slices of fathomed nodes
// into the claiming worker's pool removes the two full allocations per
// branch (the allocs/op benchmark guards this). Every slice has exactly one
// holder — an open node, or the pool of the worker that fathomed it — so
// pools are never shared across goroutines. A pool that runs dry draws on
// spareBounds, where the pools of finished searches leave their slices.
type boundPool struct {
	free [][]float64
}

// poolCap bounds a worker's free list; beyond it slices are dropped for the
// GC rather than hoarded.
const poolCap = 128

// spareBounds holds the bound slices of finished searches for the next
// ones, whatever their variable count, by size class: class k holds slices
// of capacity at least 1<<k, and the slices get allocates have capacity
// exactly the power of two at or above their length, so a search finds the
// slices of any search of its size class.
var spareBounds [bits.UintSize]conc.FreeList[[]float64]

func init() {
	for k := range spareBounds {
		spareBounds[k].Max = 2 * poolCap
	}
}

// sizeClass is the smallest k with 1<<k ≥ n.
func sizeClass(n int) int { return bits.Len(uint(n - 1)) }

// get returns a copy of src, reusing a pooled slice when one is available.
func (p *boundPool) get(src []float64) []float64 {
	if len(p.free) == 0 {
		p.refill(len(src))
	}
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		if cap(s) >= len(src) {
			s = s[:len(src)]
			copy(s, src)
			return s
		}
	}
	s := make([]float64, len(src), 1<<sizeClass(len(src)))
	copy(s, src)
	return s
}

// refill moves up to poolCap/4 spare slices that fit n values into the
// empty pool.
func (p *boundPool) refill(n int) {
	p.free = spareBounds[sizeClass(n)].GetN(p.free, poolCap/4)
}

// put recycles a slice whose node was fathomed.
func (p *boundPool) put(s []float64) {
	if s != nil && len(p.free) < poolCap {
		p.free = append(p.free, s)
	}
}

// release hands the pool's slices to spareBounds once its search is over,
// each to the largest class its capacity covers.
func (p *boundPool) release() {
	for _, s := range p.free {
		if c := cap(s); c > 0 {
			spareBounds[bits.Len(uint(c))-1].Put(s)
		}
	}
	clear(p.free)
	p.free = nil
}

// nodeHeap orders open nodes best-bound-first (ties: most recently created,
// which dives depth-first among equals). It is the lone worker's local queue
// — see scheduler.go.
type nodeHeap struct {
	nodes    []*node
	maximize bool
}

func (h *nodeHeap) Len() int { return len(h.nodes) }
func (h *nodeHeap) Less(i, j int) bool {
	a, b := h.nodes[i], h.nodes[j]
	if a.relax > b.relax {
		return h.maximize
	}
	if a.relax < b.relax {
		return !h.maximize
	}
	return a.seq > b.seq
}
func (h *nodeHeap) Swap(i, j int)      { h.nodes[i], h.nodes[j] = h.nodes[j], h.nodes[i] }
func (h *nodeHeap) Push(x interface{}) { h.nodes = append(h.nodes, x.(*node)) }
func (h *nodeHeap) Pop() interface{} {
	old := h.nodes
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	h.nodes = old[:n-1]
	return x
}

// search is the shared state of a (possibly parallel) branch-and-bound run.
// There is no search-wide lock: workers claim nodes from their own local
// queue, solve LPs, and publish children back to it (scheduler.go); the
// facts every worker needs — the incumbent, the dual bound, whether the tree
// is done, whether to stop — are atomics.
type search struct {
	m        *Model
	p        Params
	workers  int // resolved pool width
	intVars  []Var
	maximize bool
	objConst float64
	start    time.Time
	post     *postsolve // maps searched-space points back to the caller's; nil without presolve
	tracer   obs.Tracer // copy of p.Tracer; nil disables all emit sites
	timed    bool       // wall-clock attribution on: the solve is observed (Tracer or OnProgress)

	pl *plan // what prepare decided; fold takes the presolve figures from it

	// wstats is the per-worker accounting, indexed by worker id (empty when
	// presolve proved infeasibility). fold sums it into Result.Stats once
	// the pool drains.
	wstats  []workerAcc
	maxOpen atomic.Int64 // high-water mark of openCount, CAS-maxed by publish

	// probs holds one reusable lp.Problem per worker: the lowered rows and
	// objective are bound-independent, so each node solve only copies its
	// bound vectors over the worker's scratch problem instead of rebuilding
	// every row (toLP allocation churn was a visible slice of node cost).
	// Indexed by worker id; never shared across workers.
	probs []*lp.Problem

	// Reduction-layer state. isInt/rowsOf describe the search model for the
	// per-node domain propagation (props is per-worker scratch; nil
	// disables propagation). pc is the shared pseudocost table (nil: the
	// model has no integer variable). pools recycle node bound slices per
	// worker.
	isInt  []bool
	rowsOf [][]int32
	props  []*nodeProp
	pc     *pseudocosts
	pools  []boundPool

	// budget is Params.Knapsack mapped into the searched space (nil
	// without one); read-only once the pool starts.
	budget *boxBound

	// Scheduler state (see scheduler.go). Each worker owns one local queue:
	// deques[id] at width > 1 (LIFO dives; thieves batch-steal from the
	// FIFO end), or — when the pool is one worker — the best-bound heap
	// open, whose nodes take their tie-breaking seq from nextSeq. A worker
	// is the only writer of pubBound[id], its published local dual bound
	// as Float64bits in model sense. outstanding counts every node that
	// exists — queued anywhere or in flight — and hitting zero is the
	// stable termination signal. stealBuf and stealRng are per-worker
	// scratch (steal batches, xorshift victim selection).
	open        *nodeHeap
	nextSeq     int
	deques      []conc.Deque[*node]
	stealBuf    [][]*node
	stealRng    []uint64
	pubBound    []atomic.Uint64
	outstanding atomic.Int64
	openCount   atomic.Int64
	inflight    atomic.Int64
	nodeBetter  func(a, b *node) bool // bound order for deque Best scans

	// nodes is the global claim counter; inc is the lock-free incumbent
	// (incumbent.go); boundBits is the last published global dual bound as
	// Float64bits in model sense (±Inf by sense until first published —
	// addFinite drops it from traces, which is how "no bound yet" reads).
	nodes     atomic.Int64
	inc       incumbent
	boundBits atomic.Uint64

	stop      atomic.Bool           // a limit, the gap target, cancellation or an error ended the search
	err       atomic.Pointer[error] // the first worker error
	unbounded atomic.Bool           // the root relaxation is unbounded

	// abandoned: the best relaxation (Float64bits, model sense) among nodes
	// dropped unsolved (abandon), worst by sense while there are none.
	abandoned atomic.Uint64

	// The restart (scheduler.go). restartAt is the claim count at which the
	// first pass ends — the searched model's integer count — and 0 once the
	// restart is taken (or when there are no integers); it is written only
	// between pool runs. floor (Float64bits, model sense) is the bound
	// globalBound never reports weaker than: Params.Bound, then what the
	// first pass proved; best by sense when neither exists. rootBasis is the
	// root relaxation's optimal basis, kept by the worker that branched the
	// root for the second pass's root to warm-start from.
	restartAt int64
	floor     atomic.Uint64
	rootBasis *lp.Basis
}

// toObj maps the solver's internal minimized value back to model sense. The
// objective's constant term is not part of the LP and re-enters here.
func (s *search) toObj(v float64) float64 {
	if s.maximize {
		return -v + s.objConst
	}
	return v + s.objConst
}

// better reports a strictly better than b in model sense.
func (s *search) better(a, b float64) bool {
	if s.maximize {
		return a > b
	}
	return a < b
}

// boundMet reports whether the incumbent objective inc has reached the
// caller-proved Params.Bound: nothing better than inc exists, whatever the
// open nodes' relaxations say.
func (s *search) boundMet(inc float64) bool {
	return s.p.Bound != nil && s.reached(inc, *s.p.Bound)
}

// reached reports whether the incumbent objective inc has reached the
// caller-proved bound b, within the tolerance the objective cutoff uses.
func (s *search) reached(inc, b float64) bool {
	tol := 1e-6 * (1 + math.Abs(b))
	if s.maximize {
		return inc >= b-tol
	}
	return inc <= b+tol
}

// solveLP solves the relaxation under the given bounds, warm-starting from
// basis when one is available (the parent node's optimal basis, or the
// auto-width probe's for the root; the hint LPs have none). It holds no
// locks: the lowered problem and the simplex workspace cached on it are
// per-worker scratch (wid), so concurrent workers never share solver state. The elapsed nanoseconds are
// returned (and charged to the warm or cold LP bucket) so callers can
// subtract LP time from their own phase accounting.
func (s *search) solveLP(wid int, lo, hi []float64, basis *lp.Basis) (*lp.Solution, int64, error) {
	prob := reuseLP(s.probs[wid], s.pl.lowered, lo, hi)
	s.probs[wid] = prob
	warm := basis != nil
	var sol *lp.Solution
	var err error
	var lpStart time.Time
	if s.timed {
		lpStart = time.Now()
	}
	// A halt (deadline, cancellation, the gap target) interrupts the LP in
	// flight: it ends IterLimit and its node is abandoned with its bound
	// kept, so a long LP cannot overrun the budget.
	opt := lp.Options{Stop: &s.stop}
	if warm {
		// Whatever this LP is for — a node or the rounding heuristic — its
		// optimum is only of use if it beats the incumbent, so the dual
		// simplex may stop once its bound is past it (lp.ObjLimit). The
		// limit is the incumbent in the LP's own terms (minimized, constant
		// term left out) plus a relative margin, so that a bound within
		// rounding of the incumbent is solved out rather than cut off.
		if inc, ok := s.incumbentObj(); ok {
			lim := inc - s.objConst
			if s.maximize {
				lim = -lim
			}
			opt.ObjLimit, opt.UseObjLimit = lim+1e-6*(1+math.Abs(lim)), true
		}
		sol, err = lp.SolveFrom(prob, basis, &opt)
	} else {
		sol, err = lp.Solve(prob, &opt)
	}
	var ns int64
	if s.timed {
		ns = time.Since(lpStart).Nanoseconds()
	}
	if sol != nil {
		st := &s.wstats[wid].stats
		st.LPSolves++
		st.LPIterations += int64(sol.Iters)
		st.DegeneratePivots += int64(sol.DegeneratePivots)
		st.BlandPivots += int64(sol.BlandPivots)
		if sol.Status == lp.ObjLimit {
			st.LPObjLimitStops++
		}
		if sol.DualCold {
			st.DualColdStarts++
		}
		if sol.Restored {
			st.RestoredStarts++
		}
		if sol.Hot {
			st.HotStarts++
		}
		st.DiscardedPivots += int64(sol.DiscardedPivots)
		if warm && sol.WarmStarted {
			st.WarmStarts++
			st.WarmIters += int64(sol.Iters)
			if s.timed {
				st.LPWarmNs += ns
				hLPWarm.Observe(ns)
			}
		} else {
			if warm {
				st.ColdFallbacks++
			}
			if s.timed {
				st.LPColdNs += ns
				hLPCold.Observe(ns)
			}
		}
	}
	return sol, ns, err
}

// addFinite stores v under key only when it is finite: json.Marshal
// rejects ±Inf, and a missing key reads naturally as "no value yet"
// (no incumbent, no bound) in the trace.
func addFinite(f obs.F, key string, v float64) {
	if !math.IsInf(v, 0) && !math.IsNaN(v) {
		f[key] = v
	}
}

// tryRound fixes integers to rounded values and re-solves; a feasible
// result becomes an incumbent candidate. The node relaxation's basis (when
// available) warm-starts the heuristic LP too — fixing the integers is just
// a batch of bound changes, exactly what the dual simplex absorbs. It
// returns its total elapsed nanoseconds (so node processing can keep its
// phase buckets disjoint); the slice excluding the inner LP solve is
// charged to Stats.HeurNs.
func (s *search) tryRound(wid int, nlo, nhi, x []float64, basis *lp.Basis) (totalNs int64) {
	st := &s.wstats[wid].stats
	var heurStart time.Time
	var lpNs int64
	if s.timed {
		heurStart = time.Now()
		defer func() {
			totalNs = time.Since(heurStart).Nanoseconds()
			if ov := totalNs - lpNs; ov > 0 {
				st.HeurNs += ov
			}
		}()
	}
	st.HeuristicSolves++
	pool := &s.pools[wid]
	lo := pool.get(nlo)
	hi := pool.get(nhi)
	defer func() {
		pool.put(lo)
		pool.put(hi)
	}()
	for _, v := range s.intVars {
		r := math.Round(x[v])
		if r < lo[v] {
			r = lo[v]
		}
		if r > hi[v] {
			r = hi[v]
		}
		lo[v], hi[v] = r, r
	}
	sol, ns, err := s.solveLP(wid, lo, hi, basis)
	lpNs = ns
	if err != nil {
		return
	}
	if sol.Status == lp.Optimal {
		s.offerIncumbent(s.toObj(sol.Objective), sol.X) // copies X
	}
	s.probs[wid].Recycle(sol)
	return
}

// fail records the first worker error and stops the search.
func (s *search) fail(err error) {
	s.err.CompareAndSwap(nil, &err)
	s.halt()
}

// halt ends the search (limit / gap / cancellation): every worker sees the
// flag at its next claim. Safe to call from outside a worker.
func (s *search) halt() {
	s.stop.Store(true)
}

const heurEvery = 64

// sample takes one live snapshot of the search (for OnProgress and the
// worker_sample trace event). There is no lock to freeze the world under;
// each field is an independent atomic read, so the snapshot is eventually
// consistent — good enough for a progress line, and the bound is still a
// true bound (see globalBound).
func (s *search) sample() {
	inc, have := s.incumbentObj()
	pr := Progress{
		Elapsed:       time.Since(s.start),
		Nodes:         int(s.nodes.Load()),
		Open:          int(s.openCount.Load()),
		Inflight:      int(s.inflight.Load()),
		Workers:       s.workers,
		Incumbents:    s.inc.updates.Load(),
		HaveIncumbent: have,
		Incumbent:     inc,
		Bound:         s.globalBound(),
	}

	pr.Gap = math.Inf(1)
	if pr.HaveIncumbent {
		pr.Gap = relGap(pr.Incumbent, pr.Bound)
	}
	if secs := pr.Elapsed.Seconds(); secs > 0 {
		pr.NodesPerSec = float64(pr.Nodes) / secs
	}

	if s.p.OnProgress != nil {
		s.p.OnProgress(pr)
	}
	if s.tracer != nil {
		f := obs.F{
			"nodes":    pr.Nodes,
			"open":     pr.Open,
			"inflight": pr.Inflight,
			"workers":  s.workers,
		}
		addFinite(f, "nodes_per_sec", pr.NodesPerSec)
		if pr.HaveIncumbent {
			addFinite(f, "incumbent", pr.Incumbent)
		}
		addFinite(f, "bound", pr.Bound)
		addFinite(f, "gap", pr.Gap)
		// Per-worker utilization timeline: cumulative counters indexed by
		// worker id, read atomically from the live accounting. raha-trace
		// differences consecutive samples to reconstruct the timeline.
		wn := make([]int64, len(s.wstats))
		wb := make([]int64, len(s.wstats))
		ww := make([]int64, len(s.wstats))
		for i := range s.wstats {
			wn[i] = s.wstats[i].nodes.Load()
			wb[i] = s.wstats[i].busyNs.Load()
			ww[i] = s.wstats[i].waitNs.Load()
		}
		f["w_nodes"] = wn
		f["w_busy_ns"] = wb
		f["w_wait_ns"] = ww
		s.tracer.Emit("milp", "worker_sample", f)
	}
}

// workerAcc is one worker's accounting. Only the owning worker writes it
// (seedHints, which runs before the pool starts, writes worker 0's), and
// fold reads it after the pool has drained, so stats and wallNs are plain.
// The other three are typed atomics because the sampler goroutine reads a
// running timeline from them while the worker is still writing.
type workerAcc struct {
	stats  Stats        // this worker's share of Result.Stats
	wallNs int64        // goroutine lifetime, added on exit (a restart runs the worker twice)
	nodes  atomic.Int64 // nodes claimed and processed
	busyNs atomic.Int64 // inside process(): LP, heuristic, branching
	waitNs atomic.Int64 // claiming from / publishing to the queue
}

// worker claims nodes until the tree is exhausted, a limit fires, the
// restart point is reached, or an error occurs. claimed counts this
// worker's own nodes, across both passes of a restarted search — the
// rounding-heuristic cadence keys off it rather than the global claim
// number, so heuristic timing is deterministic per worker (and, at
// Workers 1, identical run to run) instead of depending on how a race for
// the global counter interleaved, and the second pass's root is not
// rounded again.
func (s *search) worker(id int) {
	if s.timed {
		workerStart := time.Now()
		defer func() {
			s.wstats[id].wallNs += time.Since(workerStart).Nanoseconds()
		}()
	}
	for {
		n, claimNo := s.claim(id)
		if n == nil {
			return
		}
		claimed := int(s.wstats[id].nodes.Load())

		children := s.process(id, n, claimNo, claimed)

		// The node is fathomed (its children copied what they needed):
		// recycle its bound slices into this worker's pool.
		s.pools[id].put(n.lo)
		s.pools[id].put(n.hi)

		s.publish(id, children)
	}
}

// emitNode reports how one processed node ended. The reason strings match
// the Stats prune counters: infeasible, unbounded, iterlimit (and
// numerical-failure, counted with it), bound, integral, branched. depth
// feeds raha-trace's depth histogram. cutoff marks a "bound" node whose LP
// stopped at the incumbent instead of solving out (obj: the bound reached).
func (s *search) emitNode(claimNo, depth int, reason string, obj float64, cutoff bool) {
	if s.tracer == nil {
		return
	}
	f := obs.F{"node": claimNo, "depth": depth, "reason": reason}
	if cutoff {
		f["cutoff"] = true
	}
	addFinite(f, "obj", obj)
	s.tracer.Emit("milp", "node", f)
}

// abandon drops a node whose LP ended st, IterLimit or NumericalFailure. Its
// subtree is neither explored nor pruned and may hold anything up to the
// bound it inherited, which globalBound therefore keeps covering.
func (s *search) abandon(wid, claimNo int, n *node, st lp.Status) {
	for old := s.abandoned.Load(); s.better(n.relax, math.Float64frombits(old)); old = s.abandoned.Load() {
		if s.abandoned.CompareAndSwap(old, math.Float64bits(n.relax)) {
			break
		}
	}
	s.wstats[wid].stats.PrunedIterLimit++
	reason := "iterlimit"
	if st == lp.NumericalFailure {
		reason = st.String()
	}
	s.emitNode(claimNo, n.depth, reason, math.NaN(), false)
}

// process solves one node's relaxation and returns its children (nil when
// the node is fathomed). Every node ends in exactly one Stats outcome
// counter — the invariant the stats regression test checks. claimed is the
// per-worker claim count driving the rounding-heuristic cadence.
//
// On a timed solve the whole call is the worker's busy time and the node_ns
// histogram's unit; whatever is not the LP relaxation or the rounding
// heuristic (both accounted inside their own calls) lands in
// Stats.BranchNs, keeping the phase buckets disjoint.
func (s *search) process(wid int, n *node, claimNo, claimed int) []*node {
	st := &s.wstats[wid].stats
	var lpNs, heurNs int64
	if s.timed {
		nodeStart := time.Now()
		defer func() {
			nodeNs := time.Since(nodeStart).Nanoseconds()
			s.wstats[wid].busyNs.Add(nodeNs)
			hNodeProcess.Observe(nodeNs)
			if b := nodeNs - lpNs - heurNs; b > 0 {
				st.BranchNs += b
			}
		}()
	}

	sol, ns, err := s.solveLP(wid, n.lo, n.hi, n.basis.get())
	lpNs = ns
	s.started(wid, n.basis)
	if err != nil {
		s.fail(fmt.Errorf("milp: node relaxation: %w", err))
		return nil
	}
	children := s.branch(wid, n, sol, claimNo, claimed, &heurNs)
	s.probs[wid].Recycle(sol)
	return children
}

// branch is process after the node's LP: it fathoms the node or returns its
// children. sol goes back to the worker's LP afterwards, so whatever branch
// keeps of it — the basis its children and the root share — it detaches
// from sol (X is copied where it is kept: offerIncumbent).
func (s *search) branch(wid int, n *node, sol *lp.Solution, claimNo, claimed int, heurNs *int64) []*node {
	st := &s.wstats[wid].stats
	switch sol.Status {
	case lp.Infeasible:
		st.PrunedInfeasible++
		s.emitNode(claimNo, n.depth, "infeasible", math.NaN(), false)
		return nil
	case lp.Unbounded:
		if n.depth == 0 {
			// Unbounded root relaxation: the MILP itself is unbounded.
			// (Depth, not seq, identifies the root: only the lone worker's
			// heap assigns sequence numbers.)
			s.unbounded.Store(true)
			s.halt()
		}
		st.UnboundedNodes++
		s.emitNode(claimNo, n.depth, "unbounded", math.NaN(), false)
		return nil
	case lp.IterLimit, lp.NumericalFailure:
		s.abandon(wid, claimNo, n, sol.Status)
		return nil
	}

	// On lp.ObjLimit the objective is the bound the LP had reached when it
	// passed the incumbent: below the node's true relaxation, above anything
	// that could still matter.
	obj := s.toObj(sol.Objective)
	cutoff := sol.Status == lp.ObjLimit

	// Pseudocost bookkeeping: this node's LP solved, so the degradation the
	// branch that created it caused is now known — record it per unit of
	// fractional distance moved, whatever the node's fate below. A cut-off
	// node reports a lower bound on its degradation, which still says the
	// branch was expensive; leaving it out starves the scores of exactly the
	// branches that prune.
	if n.bvar >= 0 && n.bdist > 0 {
		deg := obj - n.parent
		if s.maximize {
			deg = n.parent - obj
		}
		if deg < 0 {
			deg = 0
		}
		s.pc.observe(n.bvar, n.bup, deg/n.bdist)
	}

	inc, haveInc := s.incumbentObj()
	if cutoff || haveInc && !s.better(obj, inc) {
		if cutoff {
			st.LPCutoffs++
		}
		st.PrunedBound++
		s.emitNode(claimNo, n.depth, "bound", obj, cutoff)
		return nil
	}

	v := s.branchVar(sol.X, st)
	if v < 0 {
		// Integral: new incumbent.
		st.Integral++
		s.emitNode(claimNo, n.depth, "integral", obj, false)
		s.offerIncumbent(obj, sol.X)
		return nil
	}

	if claimed == 1 || claimed%heurEvery == 0 {
		*heurNs = s.tryRound(wid, n.lo, n.hi, sol.X, sol.Basis)
	}

	st.NodesBranched++
	s.emitNode(claimNo, n.depth, "branched", obj, false)

	// Branch: child bounds inherit the node's LP bound, and — the warm
	// start — its optimal basis: a child differs only in one variable's
	// bound, so the dual simplex re-optimizes in a handful of pivots.
	// Domain propagation then pushes the new bound through the row network:
	// a child whose box empties is pruned here, before any LP runs. So is one
	// whose box the caller's knapsack caps at or below the incumbent.
	xf := sol.X[v]
	frac := xf - math.Floor(xf)
	pool := &s.pools[wid]
	child := func(up bool) *node {
		c := &node{lo: pool.get(n.lo), hi: pool.get(n.hi), relax: obj, parent: obj, depth: n.depth + 1, bvar: v, bup: up}
		if up {
			c.lo[v] = math.Ceil(xf)
			c.bdist = 1 - frac
		} else {
			c.hi[v] = math.Floor(xf)
			c.bdist = frac
		}
		pruned := false
		if s.props != nil && !s.propagate(wid, v, c.lo, c.hi) {
			st.PropagationPrunes++
			pruned = true
		} else if s.budget != nil && s.capByBudget(c) {
			st.BudgetPrunes++
			pruned = true
		}
		if pruned {
			pool.put(c.lo)
			pool.put(c.hi)
			return nil
		}
		return c
	}
	down, up := child(false), child(true)
	first, second := down, up
	if frac < 0.5 {
		first, second = up, down // explore down first (pushed later → newer seq)
	}
	children := make([]*node, 0, 2)
	if first != nil {
		children = append(children, first)
	}
	if second != nil {
		children = append(children, second)
	}

	// The children share the node's basis; the root's stays with the search
	// too, for restart.
	if sol.Basis != nil && (len(children) > 0 || n.depth == 0) {
		nb := &nodeBasis{b: sol.Basis, keep: n.depth == 0}
		nb.pending.Store(int32(len(children)))
		for _, c := range children {
			c.basis = nb
		}
		if n.depth == 0 {
			s.rootBasis = sol.Basis
		}
		sol.Basis = nil
	} else if n.depth == 0 {
		s.rootBasis = nil
	}
	return children
}

// Solve runs branch and bound on the model. It is equivalent to
// SolveContext with a background context.
func (m *Model) Solve(p Params) (*Result, error) {
	return m.SolveContext(context.Background(), p)
}

// SolveContext runs branch and bound on the model under ctx. Cancelling the
// context (or exceeding Params.TimeLimit) stops the search promptly and
// returns the incumbent with Status Feasible — the paper's
// Gurobi-timeout-with-incumbent semantics — or Unknown when no incumbent was
// found. The model must not be mutated while a solve is running; concurrent
// SolveContext calls on the same model are safe.
func (m *Model) SolveContext(ctx context.Context, p Params) (*Result, error) {
	return m.presolved(p.disablePresolve).SolveContext(ctx, p)
}

// Presolved is a model's root presolve: the reduced model branch and bound
// searches and the map from its points back to the model's. It holds no
// reference into the model's rows, so the model may change after Presolve
// without changing it.
type Presolved struct {
	m    *Model
	pres *presolveResult // nil when presolve is disabled
	ns   int64           // the presolve's wall time
}

// Presolve runs the root presolve SolveContext starts with.
func (m *Model) Presolve() *Presolved { return m.presolved(false) }

func (m *Model) presolved(disable bool) *Presolved {
	r := &Presolved{m: m}
	if !disable {
		start := time.Now()
		r.pres = presolve(m)
		r.ns = time.Since(start).Nanoseconds()
	}
	return r
}

// Same reports whether p and q reduce to one search, bit for bit: the same
// kept variables with the same bounds and types, the same rows in the same
// order with the same terms, relations and right-hand sides, the same
// objective, and the same values for the variables presolve fixed. A
// presolve that proved infeasibility, or did not run, is the Same as nothing.
func (p *Presolved) Same(q *Presolved) bool {
	if p.pres == nil || q.pres == nil || p.pres.infeasible || q.pres.infeasible {
		return false
	}
	a, b := p.pres.model, q.pres.model
	if a.sense != b.sense || len(a.lo) != len(b.lo) || len(a.cons) != len(b.cons) ||
		!slices.Equal(a.vtype, b.vtype) || !sameBits(a.lo, b.lo) || !sameBits(a.hi, b.hi) ||
		!sameExpr(a.obj, b.obj) {
		return false
	}
	for i := range a.cons {
		x, y := &a.cons[i], &b.cons[i]
		if x.rel != y.rel || math.Float64bits(x.rhs) != math.Float64bits(y.rhs) || !sameExpr(x.expr, y.expr) {
			return false
		}
	}
	pa, pb := p.pres.post, q.pres.post
	return pa.n == pb.n && slices.Equal(pa.keep, pb.keep) && sameBits(pa.fixed, pb.fixed)
}

// sameBits compares two vectors bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// sameExpr compares two expressions term for term, bit for bit.
func sameExpr(a, b Expr) bool {
	return math.Float64bits(a.Const) == math.Float64bits(b.Const) &&
		slices.EqualFunc(a.Terms, b.Terms, func(x, y Term) bool {
			return x.V == y.V && math.Float64bits(x.C) == math.Float64bits(y.C)
		})
}

// SolveContext is Model.SolveContext on the model p presolved: the search
// starts from p's reduction instead of presolving again, and its Runtime
// counts p's presolve as the model's own solve would.
func (p *Presolved) SolveContext(ctx context.Context, params Params) (*Result, error) {
	start := time.Now().Add(-time.Duration(p.ns))
	if params.TimeLimit > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, params.TimeLimit)
		defer cancel()
	}
	// The auto-width probe runs before runPool's watcher exists, so ctx
	// reaches its LP through a flag of its own.
	var probeStop atomic.Bool
	defer context.AfterFunc(ctx, func() { probeStop.Store(true) })()
	pl, err := p.prepare(&params, &probeStop)
	if err != nil {
		return nil, err
	}
	s := newSearch(p.m, params, pl, start)
	// A presolve that proves infeasibility answers without exploring a
	// single node: nothing is queued, so fold reads the empty tree as
	// exhausted without an incumbent.
	if !pl.infeasible() {
		s.seedHints()
		err := s.runPool(ctx)
		s.releaseLPs()
		if err != nil {
			return nil, err
		}
	}
	return s.fold(), nil
}

// releaseLPs hands the workers' LP workspaces, with the root's bases, and
// the bound slices their pools hold on to the next search once the pool has
// drained. It runs on a normal return only: a worker that panicked ends the
// process, so no workspace a panic left half-updated is ever handed on.
func (s *search) releaseLPs() {
	if p := s.probs[0]; p != nil { // the root's bases, kept for restart
		p.RecycleBasis(s.rootBasis)
		p.RecycleBasis(s.pl.rootBasis)
	}
	for _, p := range s.probs {
		if p != nil {
			p.Release()
		}
	}
	for i := range s.pools {
		s.pools[i].release()
	}
}

// plan is what prepare decides before any search state exists: the model
// the search runs on, how to map its points back, and the pool width.
type plan struct {
	sm         *Model          // the search model: m, or its presolved reduction
	pres       *presolveResult // nil when presolve is disabled
	presolveNs int64
	workers    int // resolved pool width

	// Auto width: the width asked for and the root fractional count behind
	// the choice; autoRequested 0 means auto width did not run. rootBasis is
	// the probe's optimal root basis, which the search's root node
	// warm-starts from (nil: the root solves cold).
	autoRequested, autoFrac int
	rootBasis               *lp.Basis

	// lowered is the search model's LP relaxation at its own bounds: the
	// probe's problem, then worker 0's; the other workers' problems share its
	// rows and costs (reuseLP). nil until the probe or newSearch lowers it.
	lowered *lp.Problem
}

func (pl *plan) infeasible() bool { return pl.pres != nil && pl.pres.infeasible }

// prepare validates the knapsack and lets auto width shrink the pool. The
// search runs on p's reduced model, and postsolve maps its solutions back to
// the caller's variable space. stop interrupts the auto-width probe's LP
// (nil: nothing does).
func (p *Presolved) prepare(params *Params, stop *atomic.Bool) (*plan, error) {
	if params.Knapsack != nil {
		if err := params.Knapsack.validate(p.m); err != nil {
			return nil, err
		}
	}
	pl := &plan{sm: p.m, pres: p.pres, presolveNs: p.ns, workers: conc.Workers(params.Workers), autoFrac: -1}
	if pl.pres != nil && !pl.pres.infeasible {
		pl.sm = pl.pres.model
	}

	// Auto width: solve the root relaxation once and shrink the pool when
	// the fractional count says the tree cannot keep it fed. The probe is
	// off the books; its basis makes the search's own root solve, the one
	// Stats counts, a warm re-solve with nothing left to pivot.
	if pl.workers > 1 && !pl.infeasible() && !params.fixedWidth {
		pl.autoRequested = pl.workers
		pl.lowered = pl.sm.toLP(pl.sm.lo, pl.sm.hi)
		pl.workers, pl.autoFrac, pl.rootBasis = autoWidth(pl.sm, pl.lowered, pl.workers, stop)
	}
	return pl, nil
}

// newSearch builds the search state for a prepared solve — per-worker
// scratch, the local queues for the resolved width, the reduction-layer
// tables — queues the root, and opens the trace.
func newSearch(m *Model, p Params, pl *plan, start time.Time) *search {
	sm, workers := pl.sm, pl.workers
	s := &search{
		m:        sm,
		p:        p,
		workers:  workers,
		maximize: sm.sense == Maximize,
		objConst: sm.obj.Const,
		start:    start,
		pl:       pl,
		tracer:   p.Tracer,
		timed:    p.Tracer != nil || p.OnProgress != nil,
		probs:    make([]*lp.Problem, workers),
		pools:    make([]boundPool, workers),
		deques:   make([]conc.Deque[*node], workers),
		stealBuf: make([][]*node, workers),
		stealRng: make([]uint64, workers),
		pubBound: make([]atomic.Uint64, workers),
	}
	cSolves.Inc()
	s.nodeBetter = func(a, b *node) bool { return s.better(a.relax, b.relax) }
	if workers == 1 {
		s.open = &nodeHeap{maximize: s.maximize}
	}
	inf := math.Inf(1)
	worstBits := math.Float64bits(s.toObj(inf))
	for i := range s.stealRng {
		// Fixed per-worker xorshift seeds (splitmix-style spread): victim
		// selection needs statistical spread, not entropy, and fixed seeds
		// keep runs reproducible.
		s.stealRng[i] = uint64(i)*0x9E3779B97F4A7C15 + 0x6A09E667F3BCC909
		s.pubBound[i].Store(worstBits)
	}
	s.abandoned.Store(worstBits)
	floor := s.toObj(-inf)
	if p.Bound != nil {
		floor = *p.Bound
	}
	s.floor.Store(math.Float64bits(floor))
	s.inc.init(s.toObj(inf))
	s.boundBits.Store(math.Float64bits(s.toObj(-inf)))
	for v, t := range sm.vtype {
		if t != Continuous {
			s.intVars = append(s.intVars, Var(v))
		}
	}

	if s.tracer != nil {
		s.tracer.Emit("milp", "solve_start", obs.F{
			"vars":     m.NumVars(),
			"cons":     m.NumConstraints(),
			"int_vars": len(s.intVars),
			"workers":  workers,
			"hints":    len(p.Hints),
		})
		if pres := pl.pres; pres != nil {
			s.tracer.Emit("milp", "presolve_end", obs.F{
				"fixed_vars":       pres.fixedVars,
				"removed_rows":     pres.removedRows,
				"tightened_bounds": pres.tightenedBounds,
				"tightened_coefs":  pres.tightenedCoefs,
				"vars":             sm.NumVars(),
				"cons":             sm.NumConstraints(),
				"infeasible":       pres.infeasible,
			})
		}
		if pl.autoRequested > 0 {
			s.tracer.Emit("milp", "auto_width", obs.F{
				"requested":  pl.autoRequested,
				"chosen":     workers,
				"root_fracs": pl.autoFrac,
			})
		}
	}
	if pl.infeasible() {
		return s
	}
	s.wstats = make([]workerAcc, workers)

	if pl.pres != nil {
		s.post = pl.pres.post
		// Per-node domain propagation shares the presolve row engine; it
		// needs per-worker scratch plus the var → rows adjacency.
		s.rowsOf = rowsIndex(sm)
		s.isInt = make([]bool, sm.NumVars())
		for v, t := range sm.vtype {
			s.isInt[v] = t != Continuous
		}
		s.props = make([]*nodeProp, workers)
		for i := range s.props {
			s.props[i] = newNodeProp(sm.NumConstraints())
		}
	}
	if len(s.intVars) > 0 {
		s.pc = newPseudocosts(sm.NumVars())
	}
	if p.Knapsack != nil {
		s.budget = newBoxBound(p.Knapsack, s.post)
	}

	if pl.lowered == nil {
		pl.lowered = sm.toLP(sm.lo, sm.hi)
	}
	s.probs[0] = pl.lowered

	s.restartAt = int64(len(s.intVars))
	s.pushRoot(s.toObj(-inf), pl.rootBasis)
	s.maxOpen.Store(1)
	return s
}

// seedHints turns the caller's warm-start candidates into incumbents: fix
// the integers to each hint, LP the rest. It runs before the workers so
// every worker prunes against the hint incumbents. Hints arrive in the
// original variable space and are projected onto the search model.
func (s *search) seedHints() {
	want := s.m.NumVars()
	if s.post != nil {
		want = s.post.n
	}
	for _, h := range s.p.Hints {
		if len(h) != want {
			continue
		}
		if s.post != nil {
			h = s.post.project(h)
		}
		usable := true
		for _, v := range s.intVars {
			if math.IsNaN(h[v]) {
				usable = false
				break
			}
		}
		if usable {
			// The pool has not started, so worker 0's scratch problem is
			// free; no basis exists yet.
			s.tryRound(0, s.m.lo, s.m.hi, h, nil)
		}
	}
}

// runPool runs the worker pool to completion and returns the first worker
// error. Beside the workers it runs the cancellation watcher and the
// progress sampler, both torn down before it returns — workers first, then
// the watcher, then the sampler — so a cancelled solve leaks no goroutine
// and solve_end is always the trace's final event.
//
// The workers run once, or twice when the search restarts: they leave the
// first run at the restart point without halting (claim), and if the tree
// still has open nodes and nothing stopped the search, runPool re-roots it
// (restart) and runs them again under the same watcher and sampler.
func (s *search) runPool(ctx context.Context) error {
	// A context that is already dead halts the search before any node is
	// claimed instead of racing the watcher goroutine's first wake-up.
	if ctx.Err() != nil {
		s.halt()
	}

	// Cancellation watcher: translates ctx expiry into a search halt.
	watchDone := make(chan struct{})
	var watchWG sync.WaitGroup
	watchWG.Add(1)
	go func() {
		defer watchWG.Done()
		select {
		case <-ctx.Done():
			s.halt()
		case <-watchDone:
		}
	}()

	// Progress sampler: periodic snapshots for OnProgress and the
	// worker_sample trace stream.
	sampleDone := make(chan struct{})
	var sampleWG sync.WaitGroup
	if s.p.OnProgress != nil || s.tracer != nil {
		every := s.p.ProgressEvery
		if every <= 0 {
			every = 250 * time.Millisecond
		}
		sampleWG.Add(1)
		go func() {
			defer sampleWG.Done()
			tick := time.NewTicker(every)
			defer tick.Stop()
			for {
				select {
				case <-sampleDone:
					return
				case <-tick.C:
					s.sample()
				}
			}
		}()
	}

	// One shared closure for the whole pool (not a fresh literal per
	// iteration): the body only needs the id argument.
	var wg sync.WaitGroup
	runWorker := func(id int) {
		defer wg.Done()
		s.worker(id)
	}
	for {
		for w := 0; w < s.workers; w++ {
			wg.Add(1)
			go runWorker(w)
		}
		wg.Wait()
		if s.restartAt == 0 || s.stop.Load() || s.outstanding.Load() == 0 {
			break
		}
		s.restart()
	}
	close(watchDone)
	watchWG.Wait()
	close(sampleDone)
	sampleWG.Wait()

	if e := s.err.Load(); e != nil {
		return *e
	}
	return nil
}

// fold turns the quiescent search state into the Result — the workers'
// stats summed, with the solve-wide figures and the per-worker shares, the
// final bound, the status, the incumbent mapped back to the caller's
// variable space — then adds its counters to the process-wide ones and
// writes solve_end.
func (s *search) fold() *Result {
	var stats Stats
	for i := range s.wstats {
		add(&stats, &s.wstats[i].stats)
	}
	stats.MaxOpen = s.maxOpen.Load()
	stats.IncumbentUpdates = s.inc.updates.Load()
	stats.PresolveNs = s.pl.presolveNs
	if pres := s.pl.pres; pres != nil {
		stats.PresolveFixedVars = pres.fixedVars
		stats.PresolveRemovedRows = pres.removedRows
		stats.PresolveTightenedBounds = pres.tightenedBounds
		stats.PresolveTightenedCoefs = pres.tightenedCoefs
	}
	// Idle is the remainder of the worker's wall clock, so the three shares
	// always sum to the whole. An unobserved solve has no wall clocks to
	// attribute, and a solve that never started its pool has no workers, so
	// neither publishes a per-worker summary.
	if s.timed && len(s.wstats) > 0 {
		stats.PerWorker = make([]WorkerStats, len(s.wstats))
		for i := range s.wstats {
			a := &s.wstats[i]
			stats.PerWorker[i] = WorkerStats{
				Nodes:       a.nodes.Load(),
				BusyNs:      a.busyNs.Load(),
				QueueWaitNs: a.waitNs.Load(),
				WallNs:      a.wallNs,
				Steals:      a.stats.Steals,
				StolenNodes: a.stats.StolenNodes,
			}
			w := &stats.PerWorker[i]
			w.IdleNs = max(w.WallNs-w.BusyNs-w.QueueWaitNs, 0)
		}
	}

	incObj, haveInc := s.incumbentObj() // without one, the sentinel verbatim
	res := &Result{
		Objective: incObj,
		Bound:     s.toObj(math.Inf(-1)),
		X:         s.inc.snapshotX(),
		Nodes:     int(s.nodes.Load()),
		Stats:     stats,
	}
	// The final bound is the same reduction the live one is: the best
	// relaxation over the nodes still open, clamped to the incumbent.
	// Non-finite means nothing was proven (the root never solved) or the
	// tree drained without an incumbent, and the no-bound value stands.
	if b := s.globalBound(); !math.IsInf(b, 0) {
		res.Bound = b
	}
	if s.post != nil {
		// Back to the caller's variable space: re-insert the presolve-fixed
		// variables around the searched ones.
		res.X = s.post.restore(res.X)
	}
	exhausted := s.outstanding.Load() == 0 && !s.stop.Load()
	clean := s.abandoned.Load() == math.Float64bits(s.toObj(math.Inf(1))) // no node was abandoned
	switch {
	case s.unbounded.Load():
		res.Status = Unbounded
	case exhausted && haveInc && clean:
		res.Status = Optimal
		res.Bound = res.Objective
	case exhausted && !haveInc && clean:
		res.Status = Infeasible
	case haveInc:
		res.Status = Feasible
	default:
		res.Status = Unknown
	}
	res.Runtime = time.Since(s.start)

	count(&res.Stats)
	s.emitSolveEnd(res)
	return res
}

// emitSolveEnd writes the trace's final event, mirroring the Result: every
// Stats counter under its trace tag.
func (s *search) emitSolveEnd(res *Result) {
	if s.tracer == nil {
		return
	}
	f := obs.F{
		"status":    res.Status.String(),
		"nodes":     res.Nodes,
		"runtime_s": res.Runtime.Seconds(),
	}
	putTrace(f, &res.Stats)
	if len(res.Stats.PerWorker) > 0 {
		pw := make([]obs.F, len(res.Stats.PerWorker))
		for i := range pw {
			pw[i] = obs.F{}
			putTrace(pw[i], &res.Stats.PerWorker[i])
		}
		f["per_worker"] = pw
	}
	if res.Status == Optimal && res.Stats.BoundPrunes > 0 {
		// The caller's bound, not the tree's, ended the search.
		f["stop"] = "bound"
	}
	addFinite(f, "obj", res.Objective)
	addFinite(f, "bound", res.Bound)
	addFinite(f, "gap", res.Gap())
	s.tracer.Emit("milp", "solve_end", f)
}
