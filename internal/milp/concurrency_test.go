package milp

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"raha/internal/lp"
	"raha/internal/obs"
)

// wideKnapsack builds a knapsack wide enough that the search tree has real
// depth, so parallel workers and cancellation have something to bite on.
func wideKnapsack(seed int64, n int) *Model {
	rng := rand.New(rand.NewSource(seed))
	m := NewModel()
	var wExpr, vExpr Expr
	for i := 0; i < n; i++ {
		b := m.BinaryVar()
		wExpr.Add(1+rng.Float64()*9, b)
		vExpr.Add(1+rng.Float64()*9, b)
	}
	m.Add(wExpr, LE, float64(n))
	m.SetObjective(vExpr, Maximize)
	return m
}

// TestParallelMatchesSerial solves the same instances at Workers:1 and
// Workers:8 and demands equal objectives. Run under -race this also
// exercises the deques, the incumbent, and the bound bookkeeping.
func TestParallelMatchesSerial(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		m := wideKnapsack(seed, 22)
		serial := solveOK(t, m, Params{Workers: 1})
		par := solveOK(t, m, Params{Workers: 8, fixedWidth: true})
		if serial.Status != Optimal || par.Status != Optimal {
			t.Fatalf("seed %d: status %v/%v", seed, serial.Status, par.Status)
		}
		if math.Abs(serial.Objective-par.Objective) > 1e-6 {
			t.Fatalf("seed %d: serial %g != parallel %g", seed, serial.Objective, par.Objective)
		}
	}
}

// waitGoroutines polls until the goroutine count drops back to the baseline
// (tolerating runtime helpers) or the deadline passes.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines did not settle: %d > baseline %d", runtime.NumGoroutine(), baseline)
}

// TestCancellationReturnsIncumbent cancels a large solve mid-flight: the
// solver must return promptly, report Feasible (or Unknown if nothing was
// found yet), and leave no worker or watcher goroutines behind.
func TestCancellationReturnsIncumbent(t *testing.T) {
	baseline := runtime.NumGoroutine()
	m := wideKnapsack(17, 44)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := m.SolveContext(ctx, Params{Workers: 4, fixedWidth: true})
	elapsed := time.Since(start)
	cancel()
	if err != nil {
		t.Fatalf("SolveContext: %v", err)
	}
	if res.Status == Optimal {
		t.Skip("instance solved before the cancel fired")
	}
	if res.Status != Feasible && res.Status != Unknown {
		t.Fatalf("status = %v, want Feasible or Unknown", res.Status)
	}
	if res.Status == Feasible && res.X == nil {
		t.Fatal("Feasible result without a solution vector")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
	waitGoroutines(t, baseline)
}

// TestPreCancelledContext: a context that is already cancelled must not
// explore the tree at all.
func TestPreCancelledContext(t *testing.T) {
	m := wideKnapsack(23, 30)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := m.SolveContext(ctx, Params{Workers: 4, fixedWidth: true})
	if err != nil {
		t.Fatalf("SolveContext: %v", err)
	}
	if res.Status != Unknown && res.Status != Feasible {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Nodes > 1 {
		t.Fatalf("explored %d nodes under a dead context", res.Nodes)
	}
}

// TestContextDeadlineActsAsTimeLimit: a deadline on the context behaves like
// Params.TimeLimit — stop, keep the incumbent.
func TestContextDeadlineActsAsTimeLimit(t *testing.T) {
	m := wideKnapsack(29, 44)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	res, err := m.SolveContext(ctx, Params{Workers: 2, fixedWidth: true})
	if err != nil {
		t.Fatalf("SolveContext: %v", err)
	}
	if res.Status == Optimal {
		t.Skip("instance solved inside the deadline")
	}
	if res.Status != Feasible && res.Status != Unknown {
		t.Fatalf("status = %v", res.Status)
	}
}

// TestConcurrentSolves runs independent solves of distinct models from many
// goroutines; under -race this checks Solve is re-entrant.
func TestConcurrentSolves(t *testing.T) {
	done := make(chan float64, 8)
	for g := 0; g < 8; g++ {
		go func(seed int64) {
			m := wideKnapsack(seed, 16)
			res, err := m.Solve(Params{Workers: 2, fixedWidth: true})
			if err != nil || res.Status != Optimal {
				done <- math.NaN()
				return
			}
			done <- res.Objective
		}(int64(g + 100))
	}
	for g := 0; g < 8; g++ {
		if v := <-done; math.IsNaN(v) {
			t.Fatal("concurrent solve failed")
		}
	}
}

// TestGapInfiniteWithoutIncumbent: with no incumbent there is nothing to
// measure a gap against; Gap() must report +Inf, not NaN or a garbage ratio.
func TestGapInfiniteWithoutIncumbent(t *testing.T) {
	r := &Result{Status: Unknown, Objective: math.Inf(-1), Bound: 50}
	if g := r.Gap(); !math.IsInf(g, 1) {
		t.Fatalf("no-incumbent gap = %g, want +Inf", g)
	}
	r2 := &Result{Status: Unknown, Objective: math.NaN(), Bound: 50}
	if g := r2.Gap(); !math.IsInf(g, 1) {
		t.Fatalf("NaN-incumbent gap = %g, want +Inf", g)
	}
	r3 := &Result{Status: Feasible, Objective: 10, Bound: math.Inf(1)}
	if g := r3.Gap(); !math.IsInf(g, 1) {
		t.Fatalf("no-bound gap = %g, want +Inf", g)
	}
}

// TestWorkersDefault: the zero value must resolve to GOMAXPROCS, and
// explicit widths pass through when no probe narrows them.
func TestWorkersDefault(t *testing.T) {
	for _, tt := range []struct{ workers, want int }{{0, runtime.GOMAXPROCS(0)}, {3, 3}} {
		pl, err := NewModel().prepare(&Params{Workers: tt.workers, fixedWidth: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if pl.workers != tt.want {
			t.Errorf("Workers %d resolves to a %d-wide pool, want %d", tt.workers, pl.workers, tt.want)
		}
	}
}

// blockKnapsacks builds n independent three-item knapsacks. Each block's
// LP relaxation takes its best item whole and the next one in part, so the
// root has one fractional binary per block.
func blockKnapsacks(n int) *Model {
	m := NewModel()
	var obj Expr
	for k := 0; k < n; k++ {
		a, b, c := m.BinaryVar(), m.BinaryVar(), m.BinaryVar()
		obj.Add(5, a)
		obj.Add(6, b)
		obj.Add(7, c)
		m.Add(NewExpr(T(3, a), T(4, b), T(5, c)), LE, 6)
	}
	m.SetObjective(obj, Maximize)
	return m
}

// TestAutoWidthProbeWarmStartsRoot: a solve above width 1 runs the
// auto-width probe, which solves the root relaxation once, and the search's
// own root LP re-solves from the probe's optimal basis — a warm start with
// no pivot left to make — instead of solving the same LP cold a second
// time. With fixedWidth no probe runs, and the width stays as asked, even
// above GOMAXPROCS.
func TestAutoWidthProbeWarmStartsRoot(t *testing.T) {
	m := blockKnapsacks(6)
	fixed := runtime.GOMAXPROCS(0) + 1
	pl, err := m.prepare(&Params{Workers: fixed, fixedWidth: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pl.workers != fixed || pl.autoRequested != 0 || pl.rootBasis != nil {
		t.Fatalf("fixedWidth: width %d, probe asked %d, basis %v; want %d, no probe", pl.workers, pl.autoRequested, pl.rootBasis != nil, fixed)
	}

	p := Params{Workers: 2}
	pl, err = m.prepare(&p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pl.autoRequested != 2 || pl.autoFrac <= autoWidthMinFrac || pl.rootBasis == nil {
		t.Fatalf("probe asked %d, root has %d fractional binaries, basis %v; want 2, more than %d, a basis",
			pl.autoRequested, pl.autoFrac, pl.rootBasis != nil, autoWidthMinFrac)
	}
	s := newSearch(m, p, pl, time.Now())
	root, _ := s.claim(0)
	if root == nil || root.depth != 0 {
		t.Fatalf("first claim %+v, want the root", root)
	}
	sol, _, err := s.solveLP(0, root.lo, root.hi, root.basis.get())
	if err != nil || sol.Status != lp.Optimal {
		t.Fatalf("root LP: %v, %v", sol, err)
	}
	if st := s.wstats[0].stats; st.WarmStarts != 1 || st.WarmIters != 0 || st.LPIterations != 0 {
		t.Fatalf("root LP: %d warm starts, %d warm iterations, %d iterations; want 1, 0, 0",
			st.WarmStarts, st.WarmIters, st.LPIterations)
	}
}

// widthTracer records the width the auto-width probe chose.
type widthTracer struct{ chosen int }

func (w *widthTracer) Emit(layer, ev string, f obs.F) {
	if layer == "milp" && ev == "auto_width" {
		w.chosen = f["chosen"].(int)
	}
}

// TestAutoWidthProbeLowersOnce: the probe's lowering is worker 0's, so a
// Workers-2 solve lowers the search model once per worker that solves, never
// once more for the probe. A root with enough fractional binaries keeps both
// workers (two lowerings); a one-row knapsack's root has one, so the probe
// makes the search serial (one lowering).
func TestAutoWidthProbeLowersOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	lowerings := obs.Default.Counter("lp.lowerings")
	for _, tc := range []struct {
		name  string
		m     *Model
		width int
	}{
		{"wide", blockKnapsacks(6), 2},
		{"serial", wideKnapsack(3, 12), 1},
	} {
		tr := &widthTracer{}
		before := lowerings.Value()
		res, err := tc.m.Solve(Params{Workers: 2, Tracer: tr})
		if err != nil || res.Status != Optimal {
			t.Fatalf("%s: %v, %v", tc.name, res, err)
		}
		if got := lowerings.Value() - before; tr.chosen != tc.width || got != int64(tc.width) {
			t.Errorf("%s: width %d, %d lowerings; want width %d, %d lowerings", tc.name, tr.chosen, got, tc.width, tc.width)
		}
	}
}
