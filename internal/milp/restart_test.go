package milp

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"raha/internal/obs"
)

// enumerateBinaries returns the best objective of a pure-binary Maximize
// model over every 0/1 assignment, -Inf when none is feasible.
func enumerateBinaries(m *Model) float64 {
	n := m.NumVars()
	x := make([]float64, n)
	best := math.Inf(-1)
	for mask := 0; mask < 1<<n; mask++ {
		for j := range x {
			x[j] = float64(mask >> j & 1)
		}
		ok := true
		for i := 0; i < m.NumConstraints() && ok; i++ {
			e, rel, rhs := m.ConstraintAt(i)
			v := Value(e, x)
			ok = !(rel == LE && v > rhs+1e-9 || rel == GE && v < rhs-1e-9 || rel == EQ && math.Abs(v-rhs) > 1e-9)
		}
		if v := Value(m.obj, x); ok && v > best {
			best = v
		}
	}
	return best
}

// TestRestartAfterIntegerCountNodes: a knapsack over 16 binaries whose
// serial tree outgrows 16 nodes restarts exactly once, drops the open nodes
// it had, keeps the node-outcome partition over both passes, and still
// proves the enumerated optimum. The serial search stays deterministic
// through the restart: two runs agree on every count.
func TestRestartAfterIntegerCountNodes(t *testing.T) {
	const n = 16
	m := knapsack(n, 9)
	want := enumerateBinaries(m)
	a := solveOK(t, m, Params{Workers: 1})
	b := solveOK(t, m, Params{Workers: 1})
	st := a.Stats
	if st.Restarts != 1 || st.RestartDiscarded == 0 || a.Nodes <= n {
		t.Fatalf("%d nodes, %d restarts, %d discarded; want a tree past %d nodes, one restart, open nodes dropped",
			a.Nodes, st.Restarts, st.RestartDiscarded, n)
	}
	if got := statsOutcomes(st); got != int64(a.Nodes) || st.QueuePops != int64(a.Nodes) {
		t.Fatalf("outcomes %d, queue pops %d, nodes %d: the partition broke across the restart", got, st.QueuePops, a.Nodes)
	}
	if a.Status != Optimal || math.Abs(a.Objective-want) > 1e-6 || math.Abs(a.Bound-want) > 1e-6 {
		t.Fatalf("%v objective %g bound %g, enumeration %g", a.Status, a.Objective, a.Bound, want)
	}
	sa, sb := a.Stats, b.Stats
	scrubTimingStats(&sa)
	scrubTimingStats(&sb)
	if a.Nodes != b.Nodes || !reflect.DeepEqual(sa, sb) {
		t.Fatalf("two serial runs diverged: %d / %d nodes\n%+v\n%+v", a.Nodes, b.Nodes, sa, sb)
	}
}

// TestNoRestartWhenTreeEndsFirst: a tree that ends before it has claimed as
// many nodes as there are integer variables is searched once — here a
// 30-binary knapsack whose serial tree ends at node 29.
func TestNoRestartWhenTreeEndsFirst(t *testing.T) {
	const n = 30
	res := solveOK(t, knapsack(n, 4), Params{Workers: 1})
	if res.Status != Optimal || res.Nodes >= n {
		t.Fatalf("%v after %d nodes, want optimal inside %d", res.Status, res.Nodes, n)
	}
	if res.Stats.Restarts != 0 || res.Stats.RestartDiscarded != 0 {
		t.Fatalf("%d restarts, %d discarded on a tree that ended first", res.Stats.Restarts, res.Stats.RestartDiscarded)
	}
}

// restartGate is a Tracer that holds the solve until the sampler has taken
// a snapshot at three points — the first node, the restart (the state the
// barrier resets, read while it is being reset), and the second node of the
// second pass, when the re-opened root's children, queued at the root LP's
// bound, are open — so the progress stream always spans the restart
// however fast the solve is. Each wait is bounded, like nodeGate's.
type restartGate struct {
	mu        sync.Mutex
	samples   int
	waitFor   int // hold until samples exceeds this
	restarts  int
	pass2     int // second-pass nodes seen
	sampled   chan struct{}
	holds     int // points held so far
	firstNode sync.Once
}

func (g *restartGate) progressed() {
	g.mu.Lock()
	g.samples++
	if g.samples > g.waitFor {
		select {
		case g.sampled <- struct{}{}:
		default:
		}
	}
	g.mu.Unlock()
}

func (g *restartGate) hold() {
	g.mu.Lock()
	g.waitFor = g.samples
	g.holds++
	select {
	case <-g.sampled: // a token from before this hold
	default:
	}
	g.mu.Unlock()
	select {
	case <-g.sampled:
	case <-time.After(10 * time.Second):
	}
}

func (g *restartGate) Emit(_, ev string, _ obs.F) {
	switch ev {
	case "restart":
		g.mu.Lock()
		g.restarts++
		g.mu.Unlock()
		g.hold()
	case "node":
		g.mu.Lock()
		restarted := g.restarts > 0
		if restarted {
			g.pass2++
		}
		pass2 := g.pass2
		g.mu.Unlock()
		switch {
		case !restarted:
			g.firstNode.Do(g.hold)
		case pass2 == 2:
			g.hold()
		}
	}
}

// TestProgressBoundNeverWeakensAcrossRestart: the serial search reports a
// dual bound that only ever tightens, and the restart — which re-opens the
// root, whose children inherit the root LP's weaker bound — must not move it
// back: every sample, including those taken while the barrier resets the
// queues and after the second pass starts, is sound and no weaker than the
// one before it, and the final bound is no weaker than the last sample.
func TestProgressBoundNeverWeakensAcrossRestart(t *testing.T) {
	const seed, n = 7, 24
	opt := trueOptimum(t, seed, n)
	gate := &restartGate{sampled: make(chan struct{}, 1)}
	var (
		mu     sync.Mutex
		bounds []float64
	)
	res, err := wideKnapsack(seed, n).Solve(Params{
		Workers:       1,
		ProgressEvery: time.Millisecond,
		Tracer:        gate,
		OnProgress: func(p Progress) {
			mu.Lock()
			bounds = append(bounds, p.Bound)
			mu.Unlock()
			gate.progressed()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Restarts != 1 || gate.holds != 3 {
		t.Fatalf("%d restarts, %d held points; want the restart and all three holds", res.Stats.Restarts, gate.holds)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(bounds) < 3 {
		t.Fatalf("%d progress samples, want one at each held point", len(bounds))
	}
	prev := math.Inf(1)
	for i, b := range bounds {
		checkDualSide(t, "progress bound", b, opt)
		if b > prev+boundTol {
			t.Fatalf("sample %d: bound %.9f weaker than the previous %.9f", i, b, prev)
		}
		prev = b
	}
	if res.Bound > prev+boundTol {
		t.Fatalf("final bound %.9f weaker than the last sample %.9f", res.Bound, prev)
	}
}

// stopInPass2 is a Tracer that records the restart's bound and, at the
// given node of the second pass, cancels the solve and waits for the halt
// to land, so the stop falls at a fixed point of the serial search.
type stopInPass2 struct {
	s       *search
	cancel  context.CancelFunc
	after   int
	restart float64
	at      int // claim number of the restart's first second-pass node, 0 before it
}

func (g *stopInPass2) Emit(_, ev string, f obs.F) {
	switch ev {
	case "restart":
		g.restart = f["bound"].(float64)
		g.at = int(f["nodes"].(int64)) + 1
	case "node":
		if g.at > 0 && f["node"].(int) == g.at+g.after {
			g.cancel()
			for !g.s.stop.Load() {
				runtime.Gosched()
			}
		}
	}
}

// TestStopInSecondPassKeepsIncumbentAndBound: a cancellation or a node limit
// that lands in the second pass returns the incumbent with a sound bound —
// the first pass's incumbent is kept, and the bound is no weaker than what
// the first pass proved before the restart.
func TestStopInSecondPassKeepsIncumbentAndBound(t *testing.T) {
	const seed, n = 7, 24
	opt := trueOptimum(t, seed, n)
	check := func(what string, res *Result, restartBound float64) {
		t.Helper()
		if res.Status != Feasible || res.Stats.Restarts != 1 {
			t.Fatalf("%s: %v with %d restarts, want feasible after the restart", what, res.Status, res.Stats.Restarts)
		}
		checkDualSide(t, what, res.Bound, opt)
		if res.Objective > opt+boundTol || res.Bound < res.Objective-boundTol {
			t.Fatalf("%s: objective %g bound %g around optimum %g", what, res.Objective, res.Bound, opt)
		}
		if res.Bound > restartBound+boundTol {
			t.Fatalf("%s: bound %g weaker than the %g proved at the restart", what, res.Bound, restartBound)
		}
		if got := statsOutcomes(res.Stats); got != int64(res.Nodes) {
			t.Fatalf("%s: outcomes %d != nodes %d", what, got, res.Nodes)
		}
	}

	// Cancellation, ten nodes into the second pass, through SolveContext's
	// own steps so the tracer can see the halt land.
	m := wideKnapsack(seed, n)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := &stopInPass2{cancel: cancel, after: 10}
	p := Params{Workers: 1, Tracer: tr}
	pl, err := m.prepare(&p, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := newSearch(m, p, pl, time.Now())
	tr.s = s
	if err := s.runPool(ctx); err != nil {
		t.Fatal(err)
	}
	res := s.fold()
	if tr.at == 0 || res.Nodes != tr.at+tr.after {
		t.Fatalf("cancelled at node %d, want %d nodes into the second pass (restart at %d)", res.Nodes, tr.after, tr.at)
	}
	check("cancel", res, tr.restart)

	// The node limit, counted over both passes: it lands ten nodes past the
	// restart point.
	limit := n + 10
	res = solveOK(t, wideKnapsack(seed, n), Params{Workers: 1, NodeLimit: limit})
	if res.Nodes != limit {
		t.Fatalf("node limit %d: %d nodes", limit, res.Nodes)
	}
	check("node limit", res, tr.restart)
}

// TestAutoWidthProbeHonoursStop: a solve above width 1 runs the auto-width
// probe before the search's cancellation watcher exists, so its root LP
// polls a stop flag of its own. With the flag already set, the probe gives
// up within one poll interval of the LP — on a root that takes more than
// that unstopped — and reports no estimate: frac -1, no basis, and the width
// as asked capped at GOMAXPROCS.
func TestAutoWidthProbeHonoursStop(t *testing.T) {
	// A 20×20 assignment: every row sums to one, every column to at most
	// one, seeded costs, so the root LP needs a pivot per row at least.
	const k = 20
	m := NewModel()
	x := make([]Var, k*k)
	var obj Expr
	rng := uint64(12345)
	for j := range x {
		x[j] = m.BinaryVar()
		rng = rng*6364136223846793005 + 1442695040888963407
		obj.Add(float64(1+rng>>59), x[j])
	}
	for i := 0; i < k; i++ {
		var row, col Expr
		for j := 0; j < k; j++ {
			row.Add(1, x[i*k+j])
			col.Add(1, x[j*k+i])
		}
		m.Add(row, EQ, 1)
		m.Add(col, LE, 1)
	}
	m.SetObjective(obj, Maximize)

	iters := obs.Default.Counter("lp.iterations")
	const pollIters = 32
	width := min(4, runtime.GOMAXPROCS(0))

	before := iters.Value()
	pl, err := m.prepare(&Params{Workers: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pl.autoFrac < 0 || pl.rootBasis == nil || iters.Value()-before <= pollIters {
		t.Fatalf("unstopped probe: frac %d, basis %v, %d iterations; want a solved root past %d iterations",
			pl.autoFrac, pl.rootBasis != nil, iters.Value()-before, pollIters)
	}
	var stop atomic.Bool
	stop.Store(true)
	before = iters.Value()
	if pl, err = m.prepare(&Params{Workers: 4}, &stop); err != nil {
		t.Fatal(err)
	}
	if n := iters.Value() - before; pl.workers != width || pl.autoFrac != -1 || pl.rootBasis != nil || n > pollIters {
		t.Fatalf("stopped probe: width %d, frac %d, basis %v after %d iterations; want %d, -1, none within %d",
			pl.workers, pl.autoFrac, pl.rootBasis != nil, n, width, pollIters)
	}
}
