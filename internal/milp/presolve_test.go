package milp

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"raha/internal/obs"
)

// TestPresolveSingletonAndRedundant: a singleton row folds into the bound
// box and disappears; a row satisfied by the whole box disappears; both are
// counted. The reduced model is invisible to the caller — the solution
// comes back in the original space.
func TestPresolveSingletonAndRedundant(t *testing.T) {
	m := NewModel()
	x := m.ContinuousVar(0, 10)
	y := m.ContinuousVar(0, 10)
	m.Add(NewExpr(T(1, x)), LE, 4)            // x <= 4: singleton -> bound
	m.Add(NewExpr(T(1, x), T(1, y)), LE, 100) // activity max 20 <= 100: redundant
	m.Add(NewExpr(T(1, x), T(1, y)), LE, 7)
	m.SetObjective(NewExpr(T(1, x), T(1, y)), Maximize)

	res := solveOK(t, m, Params{Workers: 1})
	if res.Status != Optimal || math.Abs(res.Objective-7) > 1e-6 {
		t.Fatalf("got %v obj %g, want optimal 7", res.Status, res.Objective)
	}
	if res.Stats.PresolveRemovedRows < 2 {
		t.Fatalf("PresolveRemovedRows = %d, want >= 2 (%+v)", res.Stats.PresolveRemovedRows, res.Stats)
	}
	if res.Stats.PresolveTightenedBounds == 0 {
		t.Fatalf("singleton did not tighten a bound (%+v)", res.Stats)
	}
	if len(res.X) != 2 {
		t.Fatalf("solution length %d, want 2", len(res.X))
	}
}

// TestPresolveFixedSubstitution: variables pinned by the caller are
// substituted out (their objective contribution folds into the constant)
// and restored by postsolve.
func TestPresolveFixedSubstitution(t *testing.T) {
	m := NewModel()
	a := m.ContinuousVar(0, 10)
	b := m.ContinuousVar(0, 10)
	m.Fix(a, 3)
	m.Add(NewExpr(T(1, a), T(1, b)), LE, 8)
	m.SetObjective(NewExpr(T(2, a), T(1, b)), Maximize)

	res := solveOK(t, m, Params{Workers: 1})
	if res.Status != Optimal || math.Abs(res.Objective-11) > 1e-6 {
		t.Fatalf("got %v obj %g, want optimal 11", res.Status, res.Objective)
	}
	if res.Stats.PresolveFixedVars != 1 {
		t.Fatalf("PresolveFixedVars = %d, want 1", res.Stats.PresolveFixedVars)
	}
	if math.Abs(res.X[a]-3) > 1e-9 || math.Abs(res.X[b]-5) > 1e-6 {
		t.Fatalf("restored point (%g, %g), want (3, 5)", res.X[a], res.X[b])
	}
}

// TestPresolveIntegerRounding: fractional bounds on integer variables are
// rounded to the feasible integer range before any LP runs.
func TestPresolveIntegerRounding(t *testing.T) {
	m := NewModel()
	x := m.NewVar(0.3, 4.7, Integer)
	m.SetObjective(NewExpr(T(1, x)), Maximize)
	res := solveOK(t, m, Params{Workers: 1})
	if res.Status != Optimal || math.Abs(res.Objective-4) > 1e-6 {
		t.Fatalf("got %v obj %g, want optimal 4", res.Status, res.Objective)
	}
	if res.Stats.PresolveTightenedBounds < 2 {
		t.Fatalf("expected both fractional bounds rounded, stats %+v", res.Stats)
	}
}

// TestPresolveInfeasibleShortCircuit: a model whose bound propagation
// proves infeasibility answers with zero nodes and zero LP solves, and the
// trace still brackets correctly (solve_start, presolve_end, solve_end).
func TestPresolveInfeasibleShortCircuit(t *testing.T) {
	m := NewModel()
	x := m.ContinuousVar(0, 1)
	y := m.ContinuousVar(0, 1)
	m.Add(NewExpr(T(1, x), T(1, y)), GE, 5)
	m.SetObjective(NewExpr(T(1, x)), Maximize)

	var buf bytes.Buffer
	tr := obs.NewJSONLTracer(&buf)
	res := solveOK(t, m, Params{Workers: 4, fixedWidth: true, Tracer: tr})
	if res.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", res.Status)
	}
	if res.Nodes != 0 || res.Stats.LPSolves != 0 {
		t.Fatalf("presolve infeasibility still ran the search: nodes %d, LP solves %d",
			res.Nodes, res.Stats.LPSolves)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	var evs []string
	for _, ln := range lines {
		var e obs.Event
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatalf("bad trace line %q: %v", ln, err)
		}
		evs = append(evs, e.Ev)
	}
	want := []string{"solve_start", "presolve_end", "solve_end"}
	if len(evs) != len(want) {
		t.Fatalf("trace events %v, want %v", evs, want)
	}
	for i := range want {
		if evs[i] != want[i] {
			t.Fatalf("trace events %v, want %v", evs, want)
		}
	}
}

// TestPresolveBigMTightening: on an indicator pair built with a deliberately
// oversized expression box, presolve shrinks the big-M coefficient; the
// solve's semantics are unchanged.
func TestPresolveBigMTightening(t *testing.T) {
	m := NewModel()
	x := m.ContinuousVar(0, 1000) // loose box -> oversized M in the indicator rows
	m.Add(NewExpr(T(1, x)), LE, 10)
	z := m.IndicatorGE(NewExpr(T(1, x)), 5, 1)
	m.SetObjective(NewExpr(T(1, z), T(-1, x)), Minimize)

	res := solveOK(t, m, Params{Workers: 1})
	if res.Status != Optimal {
		t.Fatalf("status %v", res.Status)
	}
	// Optimum: x = 10 forces z = 1 (x >= 5 violates z=0's x <= 4), objective 1 - 10 = -9.
	if math.Abs(res.Objective-(-9)) > 1e-5 {
		t.Fatalf("objective %g, want -9", res.Objective)
	}
	if res.Stats.PresolveTightenedCoefs == 0 {
		t.Fatalf("big-M pass tightened nothing (%+v)", res.Stats)
	}
	// z restored in the original space and semantically correct.
	if math.Abs(res.X[z]-1) > 1e-6 {
		t.Fatalf("indicator z = %g, want 1", res.X[z])
	}
}

// TestPresolveDoesNotMutateModel: presolve works on copies; the caller's
// expressions, bounds, and rows are untouched, and re-solving gives the
// same answer.
func TestPresolveDoesNotMutateModel(t *testing.T) {
	m := NewModel()
	x := m.ContinuousVar(0, 1000)
	b := m.BinaryVar()
	m.Add(NewExpr(T(1, x), T(-1000, b)), LE, 10)
	m.Add(NewExpr(T(1, x)), LE, 50)
	m.SetObjective(NewExpr(T(1, x), T(5, b)), Maximize)

	loBefore, hiBefore := m.Bounds(x)
	expr, _, rhsBefore := m.ConstraintAt(0)
	coefBefore := expr.Terms[1].C

	r1 := solveOK(t, m, Params{Workers: 1})
	expr, _, rhsAfter := m.ConstraintAt(0)
	loAfter, hiAfter := m.Bounds(x)
	//raha:lint-allow float-cmp asserting bit-identical model state after solve
	if coefBefore != expr.Terms[1].C || rhsBefore != rhsAfter || loBefore != loAfter || hiBefore != hiAfter {
		t.Fatal("presolve mutated the caller's model")
	}
	r2 := solveOK(t, m, Params{Workers: 1})
	if math.Abs(r1.Objective-r2.Objective) > 1e-9 {
		t.Fatalf("re-solve diverged: %g vs %g", r1.Objective, r2.Objective)
	}
}

// TestPropagationPrunes: a branch-dependent contradiction that root
// presolve cannot see. Neither row tightens anything over the full box, so
// the model reaches the search intact; the LP relaxation is fractional only
// in b1 (y = 2, b2 = 0, b1 = 2/3), and the down branch (b1 = 0) is
// infeasible by combining the two rows: order forces b2 = 0, then cover
// needs y >= 4 against y's box [0, 2]. Domain propagation must discard that
// child before any LP runs.
func TestPropagationPrunes(t *testing.T) {
	m := NewModel()
	b1 := m.BinaryVar()
	b2 := m.BinaryVar()
	y := m.ContinuousVar(0, 2)
	m.Add(NewExpr(T(3, b1), T(3, b2), T(1, y)), GE, 4)
	m.Add(NewExpr(T(1, b2), T(-1, b1)), LE, 0)
	m.SetObjective(NewExpr(T(-1, b1), T(-2, b2), T(1, y)), Maximize)

	res := solveOK(t, m, Params{Workers: 1})
	if res.Status != Optimal {
		t.Fatalf("status %v", res.Status)
	}
	// Integer optimum: b1 = 1, b2 = 0, y = 2, objective 1.
	if math.Abs(res.Objective-1) > 1e-6 {
		t.Fatalf("objective %g, want 1", res.Objective)
	}
	if res.Stats.PropagationPrunes == 0 {
		t.Fatalf("down child (b1 = 0) was not propagation-pruned (%+v)", res.Stats)
	}
	if res.Stats.PresolveFixedVars != 0 || res.Stats.PresolveTightenedBounds != 0 {
		t.Fatalf("root presolve was not supposed to reduce this model (%+v)", res.Stats)
	}
}

// TestPresolveOffZeroStats: the opt-out leaves no reduction fingerprints.
func TestPresolveOffZeroStats(t *testing.T) {
	m := knapsack(12, 21)
	res := solveOK(t, m, Params{Workers: 1, disablePresolve: true})
	st := res.Stats
	if st.PresolveFixedVars != 0 || st.PresolveRemovedRows != 0 ||
		st.PresolveTightenedBounds != 0 || st.PresolveTightenedCoefs != 0 || st.PropagationPrunes != 0 {
		t.Fatalf("presolve off left reduction stats %+v", st)
	}
}

// BenchmarkSolveNodeAllocs measures steady-state allocations per
// branch-and-bound node on a deterministic tree (presolve off, one worker,
// so the node count is stable across runs). The bound-slice pool is what
// keeps this flat; allocs/node is the headline metric.
func BenchmarkSolveNodeAllocs(b *testing.B) {
	m := knapsack(18, 9)
	p := Params{Workers: 1, disablePresolve: true}
	res, err := m.Solve(p)
	if err != nil || res.Nodes == 0 {
		b.Fatalf("warmup solve: %v (nodes %d)", err, res.Nodes)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Solve(p); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := m.Solve(p); err != nil {
			b.Fatal(err)
		}
	})
	b.ReportMetric(allocs/float64(res.Nodes), "allocs/node")
}

// TestNodeAllocsBudget guards the pooling win: without the per-worker bound
// pool, every branched node costs two fresh []float64 copies of the full
// bound box plus whatever fathomed siblings leaked. With it, the whole-solve
// allocation count divided by nodes must stay small.
// nodeAllocBudget sits above the measured steady state on the 75-node tree
// below — 249 allocations, 3.32 per node: the node structs, the shared
// basis holders and a fixed per-solve state (the pseudocost table, the
// local queue, per-worker scratch, the LP problem header) — and well below
// the 7.52 per node the tree cost while every node LP returned a fresh
// Solution, X and Basis (lp.Problem.Recycle, nodeBasis), and the 9.05 with
// the bound pool reverted to per-child copies. The LP workspace and the
// bound slices come from the previous solve's (lp.Problem.Release,
// spareBounds), which AllocsPerRun's warm-up run provides. Allocation
// counts are exact and deterministic here (one worker, presolve off), so
// the margin is for Go releases, not for noise.
const nodeAllocBudget = 3.6

func TestNodeAllocsBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is slow under -short")
	}
	m := knapsack(18, 9)
	p := Params{Workers: 1, disablePresolve: true}
	res, err := m.Solve(p)
	if err != nil || res.Nodes == 0 {
		t.Fatalf("warmup solve: %v (nodes %d)", err, res.Nodes)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := m.Solve(p); err != nil {
			t.Fatal(err)
		}
	})
	perNode := allocs / float64(res.Nodes)
	t.Logf("%.0f allocs over %d nodes = %.2f allocs/node", allocs, res.Nodes, perNode)
	if perNode > nodeAllocBudget {
		t.Fatalf("allocations per node %.2f exceed budget %.1f — bound-slice pooling regressed?", perNode, nodeAllocBudget)
	}
}

// TestBoundPoolReuse: the per-worker free list returns recycled slices with
// the requested contents and caps its size.
func TestBoundPoolReuse(t *testing.T) {
	var p boundPool
	a := p.get([]float64{1, 2, 3})
	p.put(a)
	b := p.get([]float64{4, 5, 6})
	if &a[0] != &b[0] {
		t.Fatal("pool did not recycle the slice")
	}
	if b[0] != 4 || b[1] != 5 || b[2] != 6 {
		t.Fatalf("recycled slice has stale contents %v", b)
	}
	for i := 0; i < 2*poolCap; i++ {
		p.put(make([]float64, 3))
	}
	if len(p.free) > poolCap {
		t.Fatalf("free list grew to %d, cap is %d", len(p.free), poolCap)
	}
}

// TestPresolvedSame: two models presolve to the Same reduction exactly when
// the search would see the same problem. A right-hand side that leaves a
// row redundant either way (a count row no point can reach) changes
// nothing; one that moves a row the search keeps does, and so does one that
// moves a bound presolve derives.
func TestPresolvedSame(t *testing.T) {
	knapsack := func(capacity, count float64) *Model {
		m := NewModel()
		var w, n, obj Expr
		for i := 0; i < 6; i++ {
			x := m.BinaryVar()
			w.Add(float64(2+i), x)
			n.Add(1, x)
			obj.Add(float64(3+i%4), x)
		}
		m.Add(w, LE, capacity)
		m.Add(n, LE, count)
		m.SetObjective(obj, Maximize)
		return m
	}
	base := knapsack(12, 10).Presolve()
	for _, c := range []struct {
		name     string
		m        *Model
		wantSame bool
	}{
		{"same model", knapsack(12, 10), true},
		{"count row redundant either way", knapsack(12, 20), true},
		{"binding capacity moved", knapsack(13, 10), false},
		{"count row binds", knapsack(12, 2), false},
	} {
		if got := base.Same(c.m.Presolve()); got != c.wantSame {
			t.Errorf("%s: Same %v, want %v", c.name, got, c.wantSame)
		}
	}
	m := knapsack(12, 10)
	pre := m.Presolve()
	m.SetRHS(0, 13)
	if !pre.Same(base) || m.Presolve().Same(base) {
		t.Error("an edit after Presolve changed the reduction it returned, or an edited model kept the old one")
	}
	if infeasible := knapsack(-1, 10).Presolve(); infeasible.Same(infeasible) {
		t.Error("a presolve that proved infeasibility is Same as itself")
	}
}
