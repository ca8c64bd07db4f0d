package milp

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"raha/internal/lp"
)

// boundTol absorbs the LP layer's numerical tolerance: a dual bound a
// hair inside the true optimum is round-off, not unsoundness.
const boundTol = 1e-6

// trueOptimum solves the instance to optimality on the serial search and
// returns the optimal objective.
func trueOptimum(t *testing.T, seed int64, n int) float64 {
	t.Helper()
	res := solveOK(t, wideKnapsack(seed, n), Params{Workers: 1})
	if res.Status != Optimal {
		t.Fatalf("reference solve: status %v, want Optimal", res.Status)
	}
	return res.Objective
}

// checkDualSide asserts bound sits on the dual side of the true optimum:
// for a Maximize model every sound dual bound is ≥ z* (within tolerance).
// Non-finite bounds are trivially sound (nothing proven yet).
func checkDualSide(t *testing.T, what string, bound, opt float64) {
	t.Helper()
	if math.IsNaN(bound) {
		t.Fatalf("%s: bound is NaN", what)
	}
	if math.IsInf(bound, 0) {
		return
	}
	if bound < opt-boundTol {
		t.Fatalf("%s: bound %.9f < true optimum %.9f — not a valid dual bound", what, bound, opt)
	}
}

// TestProgressBoundIsTrueBound pins the soundness of the bound the sampler
// publishes: at EVERY OnProgress sample, Progress.Bound must be a valid
// dual bound on the true optimum (≥ z* for this Maximize instance), and
// never on the wrong side of the sample's own incumbent. This is the
// invariant the scheduler's eventually-consistent bound aggregation
// (per-worker published bounds + pre-steal cover, globalBound) is
// pinned by: a worker may briefly publish a stale or conservative value,
// but an optimistic one — claiming the tree is more explored than it is —
// would show up here as a bound below the optimum.
func TestProgressBoundIsTrueBound(t *testing.T) {
	const seed, n = 7, 24
	opt := trueOptimum(t, seed, n)

	for _, workers := range []int{1, 4} {
		var (
			mu      sync.Mutex
			samples []Progress
		)
		res := solveOK(t, wideKnapsack(seed, n), Params{
			Workers:       workers,
			ProgressEvery: 200 * time.Microsecond,
			OnProgress: func(p Progress) {
				mu.Lock()
				samples = append(samples, p)
				mu.Unlock()
			},
		})
		if res.Status != Optimal {
			t.Fatalf("workers=%d: status %v, want Optimal", workers, res.Status)
		}
		if math.Abs(res.Objective-opt) > boundTol {
			t.Fatalf("workers=%d: objective %g != reference optimum %g", workers, res.Objective, opt)
		}
		checkDualSide(t, "final result", res.Bound, opt)

		mu.Lock()
		got := append([]Progress(nil), samples...)
		mu.Unlock()
		for i, p := range got {
			checkDualSide(t, "sample", p.Bound, opt)
			if p.HaveIncumbent && !math.IsInf(p.Bound, 0) && p.Bound < p.Incumbent-boundTol {
				t.Fatalf("workers=%d sample %d: bound %.9f below its own incumbent %.9f", workers, i, p.Bound, p.Incumbent)
			}
			if p.HaveIncumbent && p.Incumbent > opt+boundTol {
				t.Fatalf("workers=%d sample %d: incumbent %.9f above the optimum %.9f — infeasible solution accepted", workers, i, p.Incumbent, opt)
			}
		}
	}
}

// TestCancelledBoundIsTrueBound pins the same invariant at the rougher
// edge: a solve cancelled mid-tree must still return a Result.Bound on the
// dual side of the true optimum, and an incumbent (if any) on the primal
// side — the anytime contract callers rely on when they act on partial
// results. Exercised at Workers 1 and 4 — both local-queue disciplines —
// since the termination path reconstructs the bound from per-worker
// publications rather than a frozen global queue.
func TestCancelledBoundIsTrueBound(t *testing.T) {
	const seed, n = 7, 24
	opt := trueOptimum(t, seed, n)

	for _, workers := range []int{1, 4} {
		// A NodeLimit stops the solve deterministically mid-tree; a second
		// run is stopped by context cancellation racing the workers.
		res, err := wideKnapsack(seed, n).Solve(Params{Workers: workers, NodeLimit: 20})
		if err != nil {
			t.Fatalf("workers=%d node-limited solve: %v", workers, err)
		}
		checkDualSide(t, "node-limited result", res.Bound, opt)
		if res.Status == Feasible && res.Objective > opt+boundTol {
			t.Fatalf("workers=%d: node-limited incumbent %.9f above optimum %.9f", workers, res.Objective, opt)
		}

		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(2 * time.Millisecond)
			cancel()
		}()
		res, err = wideKnapsack(seed, n).SolveContext(ctx, Params{Workers: workers})
		cancel()
		if err != nil {
			t.Fatalf("workers=%d cancelled solve: %v", workers, err)
		}
		checkDualSide(t, "cancelled result", res.Bound, opt)
		if res.Status == Feasible && res.Objective > opt+boundTol {
			t.Fatalf("workers=%d: cancelled incumbent %.9f above optimum %.9f", workers, res.Objective, opt)
		}
	}
}

// TestNodeLimitBoundIsLiveBound pins what Result.Bound means after a stop:
// the better of the incumbent and the best relaxation among the nodes still
// open when the pool drained — not whatever was published at the last
// claim, which misses the children published afterwards and an incumbent
// that already prunes every open node. Past the restart (24 binaries, so at
// node 24) the open relaxations are capped by the floor the first pass
// proved: the second pass's nodes inherit their parents' LP bounds, which
// can be weaker than it. The serial search is driven through SolveContext's
// own steps so the open heap can be read between runPool and fold,
// independently of the published bounds fold reduces.
func TestNodeLimitBoundIsLiveBound(t *testing.T) {
	const seed, n = 7, 24
	var byOpenNode, byIncumbent, restarted int
	for limit := 1; limit <= 64; limit++ {
		m := wideKnapsack(seed, n)
		p := Params{Workers: 1, NodeLimit: limit}
		pl, err := m.prepare(&p, nil)
		if err != nil {
			t.Fatalf("prepare: %v", err)
		}
		s := newSearch(m, p, pl, time.Now())
		if err := s.runPool(context.Background()); err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		want := s.toObj(math.Inf(1))
		for _, nd := range s.open.nodes {
			if s.better(nd.relax, want) {
				want = nd.relax
			}
		}
		if floor := math.Float64frombits(s.floor.Load()); s.better(want, floor) {
			want = floor
		}
		fromInc := false
		if inc, ok := s.incumbentObj(); ok && s.better(inc, want) {
			want, fromInc = inc, true
		}
		res := s.fold()
		if res.Status != Feasible {
			continue // no incumbent yet, or the tree drained inside the limit
		}
		//raha:lint-allow float-cmp the bound is one of the compared values verbatim
		if res.Bound != want {
			t.Fatalf("limit %d: Bound %.9f, want %.9f (incumbent %.9f, %d open nodes)",
				limit, res.Bound, want, res.Objective, len(s.open.nodes))
		}
		if fromInc {
			byIncumbent++
		} else {
			byOpenNode++
		}
		if res.Stats.Restarts > 0 {
			restarted++
		}
	}
	if byOpenNode == 0 || byIncumbent == 0 || restarted == 0 {
		t.Fatalf("limits covered %d open-node bounds and %d incumbent-clamped bounds, %d past the restart; want all three",
			byOpenNode, byIncumbent, restarted)
	}
}

// TestAbandonedNodeKeepsBoundOpen pins Result.Bound after a node was dropped
// unsolved (LP iteration limit or numerical failure): the subtree under it
// was never explored, so the bound it inherited must outlive it — once the
// node retires no published bound covers it any more, and a drained tree
// would otherwise report gap 0 on a search that proved nothing. The lone
// worker's steps are driven by hand: the root hands over one child at
// relaxation 15 under an incumbent of 10, and the child is abandoned.
func TestAbandonedNodeKeepsBoundOpen(t *testing.T) {
	m := NewModel()
	x := m.NewVar(0, 20, Integer, "x")
	var obj Expr
	obj.Add(1, x)
	m.SetObjective(obj, Maximize)
	p := Params{Workers: 1, disablePresolve: true}
	pl, err := m.prepare(&p, nil)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	s := newSearch(m, p, pl, time.Now())
	s.restartAt = 0 // one integer: claim would stop at the restart point after the root
	s.offerIncumbent(10, []float64{10})
	if root, _ := s.claim(0); root == nil {
		t.Fatal("no root to claim")
	}
	s.publish(0, []*node{{relax: 15, depth: 1, bvar: -1}})
	child, claimNo := s.claim(0)
	if child == nil {
		t.Fatal("the child at relaxation 15 was not claimed under incumbent 10")
	}
	s.abandon(0, claimNo, child, lp.NumericalFailure)
	s.publish(0, nil)

	res := s.fold()
	if res.Status != Feasible || res.Objective != 10 {
		t.Fatalf("status %v objective %g, want Feasible 10: an abandoned node proves nothing", res.Status, res.Objective)
	}
	if res.Bound < 15 || res.Gap() <= 0 {
		t.Fatalf("Bound %g (gap %g) does not cover the abandoned subtree's relaxation 15", res.Bound, res.Gap())
	}
	if res.Stats.PrunedIterLimit != 1 {
		t.Fatalf("PrunedIterLimit %d, want 1", res.Stats.PrunedIterLimit)
	}
}
