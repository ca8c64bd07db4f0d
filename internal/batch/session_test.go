package batch

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"raha/internal/alert"
	"raha/internal/metaopt"
	"raha/internal/milp"
	"raha/internal/obs"
	"raha/internal/topology"
)

// answer is one phase question a sweep asked its sessions, with the answer
// and where it came from.
type answer struct {
	cell  string
	phase int
	q     metaopt.Config
	res   *metaopt.Result
	reuse metaopt.Reuse
}

// askGrid runs top's grid through one memo, loosest cell first as a sweep
// does, each solve width wide, and hands every phase answer to check.
func askGrid(t *testing.T, top *topology.Topology, name string, grid Grid, width int, check func(answer)) *topoMemo {
	t.Helper()
	cfg := &Config{Tolerance: 0.05}
	cells := grid.Cells()
	memo := newTopoMemo(name)
	for _, i := range solveOrder(cells) {
		cell := cells[i]
		acfg, err := memo.alertConfig(cfg, top, cell, 0, width)
		if err != nil {
			t.Fatalf("%s %s: %v", name, cell.Name(), err)
		}
		phase := 0
		_, err = alert.RunWith(context.Background(), acfg, func(ctx context.Context, q metaopt.Config) (*metaopt.Result, error) {
			res, reuse, err := memo.sessions.Analyze(ctx, q, cell.Name())
			phase++
			if err == nil {
				check(answer{cell: cell.Name(), phase: phase, q: q, res: res, reuse: reuse})
			}
			return res, err
		})
		if err != nil {
			t.Fatalf("%s %s: %v", name, cell.Name(), err)
		}
	}
	return memo
}

// TestSessionAnswersMatchFreshAnalyses is the referee of the sessions
// (metaopt.Sessions): every phase answer a default-grid sweep of the
// built-in topologies and eight synthetic WANs gets from them — a search on
// an edited model, a looser question's proof, or the identity rule — must be
// the answer a fresh metaopt.AnalyzeContext of the same question gives: the
// same status and degradation within 1e-9 relative, with a scenario its own
// failure budget admits. Both at one worker and at two. The default grid has
// one k > 0, so a third pass over k = 1, 2, 3 has the sessions edit the
// count row too. The identity rule must answer somewhere, or the test
// proves nothing about it.
func TestSessionAnswersMatchFreshAnalyses(t *testing.T) {
	sources := append(Builtins(), Synthetic(8, 7)...)
	counts, err := ParseGrid("k=3,2,1")
	if err != nil {
		t.Fatal(err)
	}
	for _, pass := range []struct {
		grid  Grid
		width int
	}{{DefaultGrid(), 1}, {DefaultGrid(), 2}, {counts, 1}} {
		var asked, reused, identical int
		for _, src := range sources {
			top, err := loadSource(src)
			if err != nil {
				t.Fatalf("%s: %v", src.Name, err)
			}
			askGrid(t, top, src.Name, pass.grid, pass.width, func(a answer) {
				asked++
				if a.reuse.From != "" {
					reused++
				}
				if a.reuse.Identical {
					identical++
				}
				where := fmt.Sprintf("grid k=%v, workers %d, %s %s phase %d", pass.grid.MaxFailures, pass.width, src.Name, a.cell, a.phase)
				want, err := metaopt.AnalyzeContext(context.Background(), a.q)
				if err != nil {
					t.Fatalf("%s: fresh analysis: %v", where, err)
				}
				got := a.res
				if got.Status != want.Status || math.Abs(got.Degradation-want.Degradation) > 1e-9*math.Max(1, math.Abs(want.Degradation)) {
					t.Errorf("%s (reuse %+v): %v at %.12g; fresh %v at %.12g", where, a.reuse, got.Status, got.Degradation, want.Status, want.Degradation)
				}
				if got.Scenario == nil {
					return
				}
				budget, err := a.q.FailureBudget()
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if !budget.Admits(got.Scenario) {
					t.Errorf("%s (reuse %+v): the question's own budget refuses its scenario", where, a.reuse)
				}
			})
		}
		t.Logf("grid k=%v, workers %d: %d phase answers, %d from earlier proofs, %d by the identity rule",
			pass.grid.MaxFailures, pass.width, asked, reused, identical)
		if identical == 0 {
			t.Errorf("grid k=%v, workers %d: the identity rule answered no phase", pass.grid.MaxFailures, pass.width)
		}
	}
}

// TestIdenticalPresolveAnswersWithoutSearch is the named instance of the
// identity rule. On synthetic-n22-s9, the elastic cells k0/p1e-03 and
// k2/p1e-04 ask phase-2 questions neither budget of which is looser than the
// other; the first's search proves degradation ≈ 0, and both models
// presolve to the same reduction. The second must take that answer with no
// node of its own and the same verified degradation.
func TestIdenticalPresolveAnswersWithoutSearch(t *testing.T) {
	src := Synthetic(3, 7)[2]
	if src.Name != "synthetic-n22-s9" {
		t.Fatalf("source %s, want synthetic-n22-s9", src.Name)
	}
	top, err := loadSource(src)
	if err != nil {
		t.Fatal(err)
	}
	phase2 := make(map[string]answer)
	askGrid(t, top, src.Name, DefaultGrid(), 1, func(a answer) {
		if a.phase == 2 {
			phase2[a.cell] = a
		}
	})
	first, second := phase2["k0/p1e-03/elastic"], phase2["k2/p1e-04/elastic"]
	if first.res == nil || second.res == nil {
		t.Fatalf("phase 2 asked by %v", phase2)
	}
	if first.reuse.From != "" || first.res.Status != milp.Optimal || first.res.Nodes == 0 {
		t.Fatalf("k0/p1e-03/elastic phase 2: %v after %d nodes (reuse %+v); want its own search to prove it",
			first.res.Status, first.res.Nodes, first.reuse)
	}
	if want := (metaopt.Reuse{From: first.cell, Identical: true}); second.reuse != want {
		t.Errorf("k2/p1e-04/elastic phase 2 reuse %+v, want %+v", second.reuse, want)
	}
	if second.res.Status != milp.Optimal || second.res.Nodes != 0 ||
		math.Float64bits(second.res.Degradation) != math.Float64bits(first.res.Degradation) {
		t.Errorf("k2/p1e-04/elastic phase 2: %v at %g after %d nodes; want optimal at %g after 0",
			second.res.Status, second.res.Degradation, second.res.Nodes, first.res.Degradation)
	}
}

// panicAtSolve panics at the first main solve it sees once armed: after the
// session edited its model's budget rows and presolved, before any node. It
// notes how many LP workspaces had been released by then.
type panicAtSolve struct {
	armed    bool
	released int64
}

const injectedPanic = "injected between the budget edit and the solve"

func (p *panicAtSolve) Emit(layer, ev string, _ obs.F) {
	if p.armed && layer == "milp" && ev == "solve_start" {
		p.armed = false
		p.released = obs.Default.Counter("lp.workspace_releases").Value()
		panic(injectedPanic)
	}
}

// TestCellPanicDropsSession: a panic inside a phase analysis, after its
// session edited the model's budget rows and before the search, is the
// cell's recorded failure (runCell recovers it); the session it was editing
// is dropped, so the next question of its shape builds afresh, and that
// next cell's answer is the one a fresh analysis gives. The solve runs two
// wide, so the auto-width probe's LP holds a lowered workspace when the
// panic comes: none may reach the free list while the panic unwinds.
func TestCellPanicDropsSession(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	top := topology.B4()
	tr := &panicAtSolve{}
	cfg := &Config{Tolerance: 0.05, Tracer: tr}
	memo := newTopoMemo("b4")
	g := DefaultGrid()
	loose := Cell{MaxFailures: 0, Threshold: g.Thresholds[0], Demand: g.Demands[0]}
	tight := Cell{MaxFailures: 0, Threshold: g.Thresholds[1], Demand: g.Demands[0]}
	ctx := context.Background()

	if cr := runCell(ctx, cfg, top, loose, 0, 2, memo); cr.Err != "" {
		t.Fatalf("%s: %s", loose.Name(), cr.Err)
	}
	shapes := memo.sessions.Len()
	tr.armed = true
	cr := runCell(ctx, cfg, top, tight, 0, 2, memo)
	if tr.armed || !strings.Contains(cr.Err, injectedPanic) {
		t.Fatalf("%s: no injected panic recorded (err %q)", tight.Name(), cr.Err)
	}
	if got := obs.Default.Counter("lp.workspace_releases").Value(); got != tr.released {
		t.Errorf("%d LP workspaces released while the panic unwound, want none", got-tr.released)
	}
	if got := memo.sessions.Len(); got != shapes-1 {
		t.Errorf("%d sessions after the panic, %d before; want the panicking one dropped", got, shapes)
	}

	got := runCell(ctx, cfg, top, tight, 0, 2, memo)
	acfg, err := memo.alertConfig(cfg, top, tight, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	acfg.Tracer = nil
	want, err := alert.Run(ctx, acfg)
	if err != nil {
		t.Fatal(err)
	}
	last := want.Phase1
	if want.Phase2 != nil {
		last = want.Phase2
	}
	if got.Err != "" || got.Raised != want.Raised || got.Phase != want.Phase || got.Status != last.Status.String() ||
		math.Abs(got.Normalized-want.NormalizedDegradation) > 1e-9*math.Max(1, want.NormalizedDegradation) {
		t.Errorf("%s after the panic: %s raised %v phase %d at %.12g (err %q); fresh %s raised %v phase %d at %.12g",
			tight.Name(), got.Status, got.Raised, got.Phase, got.Normalized, got.Err,
			last.Status, want.Raised, want.Phase, want.NormalizedDegradation)
	}
}
