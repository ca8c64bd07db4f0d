package milp

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"raha/internal/obs"
)

// statsOutcomes sums the six mutually-exclusive node outcomes.
func statsOutcomes(st Stats) int64 {
	return st.NodesBranched + st.PrunedInfeasible + st.PrunedBound +
		st.PrunedIterLimit + st.Integral + st.UnboundedNodes
}

// TestStatsNodeAccounting is the stats regression test: on a fixed seed
// corpus, every explored node must land in exactly one outcome counter, at
// Workers 1 and at Workers 4 — and the same partition must hold per worker:
// the per-worker node counts sum to Nodes, and each worker's busy +
// queue-wait + idle time adds up to its wall clock (observed, so timed).
func TestStatsNodeAccounting(t *testing.T) {
	for _, workers := range []int{1, 4} {
		rng := rand.New(rand.NewSource(2025))
		for i := 0; i < 40; i++ {
			inst := genMILP(rng)
			res, err := inst.m.Solve(Params{Workers: workers, OnProgress: func(Progress) {}})
			if err != nil {
				t.Fatalf("workers=%d inst=%d: %v", workers, i, err)
			}
			st := res.Stats
			if got := statsOutcomes(st); got != int64(res.Nodes) {
				t.Fatalf("workers=%d inst=%d: outcome sum %d != Nodes %d (%+v)",
					workers, i, got, res.Nodes, st)
			}
			if st.LPSolves < int64(res.Nodes) {
				t.Fatalf("workers=%d inst=%d: LPSolves %d < Nodes %d",
					workers, i, st.LPSolves, res.Nodes)
			}
			if st.LPIterations < 0 || st.DegeneratePivots > st.LPIterations {
				t.Fatalf("workers=%d inst=%d: pivot accounting %+v", workers, i, st)
			}
			if res.Status == Optimal && st.IncumbentUpdates == 0 {
				t.Fatalf("workers=%d inst=%d: optimal with no incumbent updates", workers, i)
			}
			if res.Status == Infeasible && st.IncumbentUpdates != 0 {
				t.Fatalf("workers=%d inst=%d: infeasible with incumbent updates", workers, i)
			}

			// Per-worker extension of the node-accounting invariant.
			if len(st.PerWorker) == 0 {
				// Presolve proved infeasibility before any worker started.
				if res.Nodes != 0 || res.Status != Infeasible {
					t.Fatalf("workers=%d inst=%d: no PerWorker on a searched solve (%v, %d nodes)",
						workers, i, res.Status, res.Nodes)
				}
				continue
			}
			if len(st.PerWorker) != workers {
				t.Fatalf("workers=%d inst=%d: PerWorker has %d entries",
					workers, i, len(st.PerWorker))
			}
			var wNodes int64
			for wid, w := range st.PerWorker {
				wNodes += w.Nodes
				if w.BusyNs < 0 || w.QueueWaitNs < 0 || w.IdleNs < 0 || w.WallNs <= 0 {
					t.Fatalf("workers=%d inst=%d worker=%d: negative or empty accounting %+v",
						workers, i, wid, w)
				}
				if got := w.BusyNs + w.QueueWaitNs + w.IdleNs; got != w.WallNs {
					t.Fatalf("workers=%d inst=%d worker=%d: busy+wait+idle %d != wall %d",
						workers, i, wid, got, w.WallNs)
				}
			}
			if wNodes != int64(res.Nodes) {
				t.Fatalf("workers=%d inst=%d: per-worker nodes sum %d != Nodes %d",
					workers, i, wNodes, res.Nodes)
			}
			if st.QueuePops != int64(res.Nodes) {
				t.Fatalf("workers=%d inst=%d: QueuePops %d != Nodes %d",
					workers, i, st.QueuePops, res.Nodes)
			}
		}
	}
}

// knapsack builds a deterministic maximization knapsack whose LP relaxation
// is fractional, forcing a real branch-and-bound tree with several
// incumbent improvements.
func knapsack(n int, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	m := NewModel()
	var obj, wt Expr
	for i := 0; i < n; i++ {
		v := m.BinaryVar("x")
		obj.Add(float64(1+rng.Intn(40)), v)
		wt.Add(float64(1+rng.Intn(20)), v)
	}
	m.SetObjective(obj, Maximize)
	m.Add(wt, LE, float64(5*n), "cap")
	return m
}

// TestSolveTraceJSONL checks the -trace acceptance criteria at the solver
// layer: the event stream starts with solve_start, ends with solve_end,
// has one node event per explored node, a monotone incumbent timeline, and
// a final record matching the returned Result.
func TestSolveTraceJSONL(t *testing.T) {
	m := knapsack(16, 11)
	var buf bytes.Buffer
	tr := obs.NewJSONLTracer(&buf)
	res, err := m.Solve(Params{Workers: 4, Tracer: tr, ProgressEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Err(); err != nil {
		t.Fatalf("tracer error: %v", err)
	}
	if res.Status != Optimal {
		t.Fatalf("status %v", res.Status)
	}

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	var events []obs.Event
	for i, ln := range lines {
		var e obs.Event
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatalf("line %d is not JSON (%v): %q", i, err, ln)
		}
		if e.Layer != "milp" {
			t.Fatalf("line %d: layer %q", i, e.Layer)
		}
		events = append(events, e)
	}
	if events[0].Ev != "solve_start" {
		t.Fatalf("first event %q, want solve_start", events[0].Ev)
	}
	last := events[len(events)-1]
	if last.Ev != "solve_end" {
		t.Fatalf("last event %q, want solve_end", last.Ev)
	}

	nodeEvents := 0
	incumbents := []float64(nil)
	prevT := -1.0
	for _, e := range events {
		if e.T < prevT {
			t.Fatalf("timestamps went backwards: %v after %v", e.T, prevT)
		}
		prevT = e.T
		switch e.Ev {
		case "node":
			nodeEvents++
		case "incumbent":
			incumbents = append(incumbents, e.Fields["obj"].(float64))
		}
	}
	if nodeEvents != res.Nodes {
		t.Fatalf("%d node events, Result.Nodes = %d", nodeEvents, res.Nodes)
	}
	if len(incumbents) == 0 {
		t.Fatal("no incumbent events on an optimal solve")
	}
	if int64(len(incumbents)) != res.Stats.IncumbentUpdates {
		t.Fatalf("%d incumbent events, Stats.IncumbentUpdates = %d",
			len(incumbents), res.Stats.IncumbentUpdates)
	}
	for i := 1; i < len(incumbents); i++ {
		if incumbents[i] <= incumbents[i-1] { // maximization: strictly improving
			t.Fatalf("incumbent timeline not monotone: %v", incumbents)
		}
	}
	if got := incumbents[len(incumbents)-1]; math.Abs(got-res.Objective) > 1e-9 {
		t.Fatalf("final incumbent event %v != Result.Objective %v", got, res.Objective)
	}

	// Every node event carries its tree depth; the ones whose LP stopped at
	// the incumbent say so, under the reason their Stats counter has.
	var cutoffs int64
	for _, e := range events {
		if e.Ev != "node" {
			continue
		}
		d, ok := e.Fields["depth"]
		if !ok {
			t.Fatalf("node event missing depth: %v", e.Fields)
		}
		if d.(float64) < 0 {
			t.Fatalf("negative node depth %v", d)
		}
		if e.Fields["cutoff"] == true {
			cutoffs++
			if e.Fields["reason"] != "bound" {
				t.Fatalf("cut-off node with reason %v, want bound", e.Fields["reason"])
			}
		}
	}
	if cutoffs != res.Stats.LPCutoffs {
		t.Fatalf("%d node events marked cutoff, Stats.LPCutoffs = %d", cutoffs, res.Stats.LPCutoffs)
	}

	// solve_end mirrors the Result.
	f := last.Fields
	if f["status"].(string) != res.Status.String() {
		t.Fatalf("solve_end status %v != %v", f["status"], res.Status)
	}
	if int(f["nodes"].(float64)) != res.Nodes {
		t.Fatalf("solve_end nodes %v != %d", f["nodes"], res.Nodes)
	}
	if math.Abs(f["obj"].(float64)-res.Objective) > 1e-9 {
		t.Fatalf("solve_end obj %v != %v", f["obj"], res.Objective)
	}
	if math.Abs(f["bound"].(float64)-res.Bound) > 1e-9 {
		t.Fatalf("solve_end bound %v != %v", f["bound"], res.Bound)
	}

	if int64(f["lp_cutoffs"].(float64)) != res.Stats.LPCutoffs ||
		int64(f["lp_objlimit_stops"].(float64)) != res.Stats.LPObjLimitStops {
		t.Fatalf("solve_end cutoffs %v / %v != Stats %d / %d", f["lp_cutoffs"], f["lp_objlimit_stops"],
			res.Stats.LPCutoffs, res.Stats.LPObjLimitStops)
	}

	// A traced solve is a timed solve: solve_end carries the phase
	// attribution and the per-worker utilization array raha-trace consumes.
	for _, k := range []string{
		"presolve_ns", "lp_warm_ns", "lp_cold_ns", "heur_ns", "branch_ns",
		"queue_pop_ns", "queue_pops", "queue_push_ns", "queue_pushes",
	} {
		if _, ok := f[k]; !ok {
			t.Fatalf("solve_end missing %q: %v", k, f)
		}
	}
	pw, ok := f["per_worker"].([]any)
	if !ok {
		t.Fatalf("solve_end per_worker missing or not an array: %v", f["per_worker"])
	}
	if len(pw) != 4 {
		t.Fatalf("per_worker has %d entries, want 4", len(pw))
	}
	var pwNodes int
	for wid, raw := range pw {
		w := raw.(map[string]any)
		pwNodes += int(w["nodes"].(float64))
		busy := int64(w["busy_ns"].(float64))
		wait := int64(w["wait_ns"].(float64))
		idle := int64(w["idle_ns"].(float64))
		wall := int64(w["wall_ns"].(float64))
		if busy+wait+idle != wall {
			t.Fatalf("per_worker[%d]: busy+wait+idle %d != wall %d",
				wid, busy+wait+idle, wall)
		}
	}
	if pwNodes != res.Nodes {
		t.Fatalf("per_worker nodes sum %d != Nodes %d", pwNodes, res.Nodes)
	}
	if len(res.Stats.PerWorker) != 4 {
		t.Fatalf("Stats.PerWorker has %d entries, want 4", len(res.Stats.PerWorker))
	}
	lpNs := res.Stats.LPWarmNs + res.Stats.LPColdNs
	if lpNs <= 0 {
		t.Fatalf("timed solve attributed no LP time: %+v", res.Stats)
	}
}

// TestTraceConcurrentWorkers runs a parallel solve under -race with all
// workers emitting into one JSONL tracer and checks no line is torn.
func TestTraceConcurrentWorkers(t *testing.T) {
	m := knapsack(18, 3)
	var buf bytes.Buffer
	tr := obs.NewJSONLTracer(&buf)
	if _, err := m.Solve(Params{Workers: 8, Tracer: tr, ProgressEvery: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	for i, ln := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if !json.Valid([]byte(ln)) {
			t.Fatalf("line %d torn by concurrent emit: %q", i, ln)
		}
	}
}

// nodeGate is a Tracer that holds the first worker to report a node until
// the first progress sample has been taken, so a solve that would finish
// inside one sampler period still delivers a snapshot taken mid-search.
// The wait is bounded: a sampler that never ticks shows up as zero
// snapshots, not as a hung test.
type nodeGate struct {
	sampled    chan struct{}
	sampleOnce sync.Once
	nodeOnce   sync.Once
}

func (g *nodeGate) Emit(layer, ev string, _ obs.F) {
	if ev != "node" {
		return
	}
	g.nodeOnce.Do(func() {
		select {
		case <-g.sampled:
		case <-time.After(10 * time.Second):
		}
	})
}

func (g *nodeGate) progressed() { g.sampleOnce.Do(func() { close(g.sampled) }) }

// TestOnProgress checks the sampler delivers plausible snapshots and that
// the Gurobi-style String renders without panicking on partial data.
func TestOnProgress(t *testing.T) {
	m := knapsack(18, 5)
	gate := &nodeGate{sampled: make(chan struct{})}
	got := make(chan Progress, 1024)
	_, err := m.Solve(Params{
		Workers:       2,
		ProgressEvery: time.Millisecond,
		Tracer:        gate,
		OnProgress: func(p Progress) {
			select {
			case got <- p:
			default:
			}
			gate.progressed()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	close(got)
	n := 0
	for p := range got {
		n++
		if p.Workers != 2 || p.Nodes < 0 || p.Open < 0 {
			t.Fatalf("bad snapshot %+v", p)
		}
		if p.String() == "" {
			t.Fatal("empty progress line")
		}
	}
	if n == 0 {
		t.Fatal("no progress snapshot delivered while the search was held at its first node")
	}
}

// emitGuard is the disabled-tracing fast path in isolation: the one branch
// each emit site pays when Params.Tracer is nil. //go:noinline keeps the
// compiler from deleting the loop in the overhead test below.
//
//go:noinline
func emitGuard(tr obs.Tracer) int {
	if tr != nil {
		return 1
	}
	return 0
}

// timedGuard is the disabled-timing fast path in isolation: the one bool
// branch each timing site pays when the solve is unobserved (no tracer, no
// progress callback).
//
//go:noinline
func timedGuard(timed bool) int {
	if timed {
		return 1
	}
	return 0
}

//go:noinline
func atomicAddCost(p *int64) {
	atomic.AddInt64(p, 1)
}

//go:noinline
func plainAddCost(p *int64) {
	*p++
}

// TestNilTracerOverhead is the benchmark-guarded regression test for the
// nil-tracer fast path: the cost an unobserved node pays for the
// observability hooks must stay under 2% of per-node solve time. The
// hooks are (a) the nil-tracer branch at each emit site, (b) the s.timed
// branch at each clock-read site (the clock reads and histogram observes
// themselves are gated off), (c) the always-on atomic add of the per-worker
// node count the sampler reads, and (d) the queue pop/push counts, plain
// writes to the worker's own Stats. Measured directly
// (primitive cost × sites per node vs. per-node solve time) rather than by
// comparing two full solves, which would drown the signal in scheduler
// noise.
func TestNilTracerOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	m := knapsack(18, 7)
	res, err := m.Solve(Params{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes == 0 {
		t.Fatal("no nodes explored")
	}
	if len(res.Stats.PerWorker) != 0 || res.Stats.LPWarmNs != 0 || res.Stats.BranchNs != 0 {
		t.Fatalf("unobserved solve attributed time: %+v", res.Stats)
	}
	perNode := res.Runtime.Seconds() / float64(res.Nodes)

	const iters = 50_000_000
	start := time.Now()
	sink := 0
	for i := 0; i < iters; i++ {
		sink += emitGuard(nil)
	}
	guard := time.Since(start).Seconds() / iters
	if sink != 0 {
		t.Fatal("guard fired on nil tracer")
	}

	start = time.Now()
	for i := 0; i < iters; i++ {
		sink += timedGuard(false)
	}
	tguard := time.Since(start).Seconds() / iters
	if sink != 0 {
		t.Fatal("guard fired on untimed solve")
	}

	var counter int64
	const addIters = 10_000_000
	start = time.Now()
	for i := 0; i < addIters; i++ {
		atomicAddCost(&counter)
	}
	add := time.Since(start).Seconds() / addIters

	start = time.Now()
	for i := 0; i < addIters; i++ {
		plainAddCost(&counter)
	}
	plain := time.Since(start).Seconds() / addIters

	// A node touches at most a handful of emit sites (claim, outcome,
	// incumbent, heuristic) — call it 8 to be safe — plus the timing
	// guards in claim, publish, process, solveLP, and tryRound (again 8 to
	// be safe), 1 uncontended atomic add (Workers=1 here) and 2 plain adds.
	const guardsPerNode, timedPerNode, addsPerNode, plainPerNode = 8, 8, 1, 2
	overhead := (guardsPerNode*guard + timedPerNode*tguard + addsPerNode*add + plainPerNode*plain) / perNode
	t.Logf("per-node %.3gs, emit guard %.3gns, timed guard %.3gns, atomic add %.3gns, plain add %.3gns, overhead %.4f%%",
		perNode, guard*1e9, tguard*1e9, add*1e9, plain*1e9, overhead*100)
	if overhead > 0.02 {
		t.Fatalf("unobserved-solve instrumentation overhead %.2f%% exceeds 2%% budget", overhead*100)
	}
}

// BenchmarkSolveNilTracer and BenchmarkSolveJSONLTracer bracket the cost of
// tracing on the same instance.
func BenchmarkSolveNilTracer(b *testing.B) {
	m := knapsack(14, 9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Solve(Params{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveJSONLTracer(b *testing.B) {
	m := knapsack(14, 9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		tr := obs.NewJSONLTracer(&buf)
		if _, err := m.Solve(Params{Workers: 1, Tracer: tr}); err != nil {
			b.Fatal(err)
		}
	}
}
