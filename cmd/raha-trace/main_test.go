package main

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"raha/internal/milp"
	"raha/internal/obs"
)

// writeTrace solves a deterministic knapsack at the given worker count and
// returns the path of the JSONL trace it produced.
func writeTrace(t *testing.T, workers int, seed int64) string {
	t.Helper()
	path, _ := writeKnapsackTrace(t, workers, seed, false)
	return path
}

// writeKnapsackTrace is writeTrace, with the knapsack's own row handed to
// the solve as its per-node bound (milp.Params.Knapsack) when budget is set,
// that also returns the solve's Result. Above one worker the 16 items form
// four 4-item knapsacks instead of one, so the root LP has a fractional item
// in each and the solver keeps the width asked; the solve runs at
// GOMAXPROCS 4, since the solver caps its width there. The single-row total
// still bounds every box, so the knapsack stays valid.
func writeKnapsackTrace(t *testing.T, workers int, seed int64, budget bool) (string, *milp.Result) {
	t.Helper()
	rows := 1
	if workers > 1 {
		rows = 4
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	rng := rand.New(rand.NewSource(seed))
	m := milp.NewModel()
	var objE milp.Expr
	wt := make([]milp.Expr, rows)
	k := &milp.Knapsack{RHS: -80}
	for i := 0; i < 16; i++ {
		v, value, weight := m.BinaryVar(), float64(1+rng.Intn(40)), float64(1+rng.Intn(20))
		objE.Add(value, v)
		wt[i*rows/16].Add(weight, v)
		k.Vars, k.Weight, k.Coef = append(k.Vars, v), append(k.Weight, value), append(k.Coef, -weight)
	}
	m.SetObjective(objE, milp.Maximize)
	for _, row := range wt {
		m.Add(row, milp.LE, float64(80/rows))
	}
	if !budget {
		k = nil
	}

	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewJSONLTracer(f)
	res, err := m.Solve(milp.Params{Workers: workers, Knapsack: k, Tracer: tr, ProgressEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes == 0 {
		t.Fatal("trivial solve, no tree to analyze")
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, res
}

// TestTraceRoundTripsStats: the solve_end a traced solve writes decodes back
// into exactly its Result.Stats — every counter field for field, and
// per_worker into Stats.PerWorker — at one worker and at four.
func TestTraceRoundTripsStats(t *testing.T) {
	for _, workers := range []int{1, 4} {
		path, res := writeKnapsackTrace(t, workers, 11, true)
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := parseTraceFrom(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if tr.solves != 1 || tr.nodes != int64(res.Nodes) {
			t.Fatalf("workers=%d: %d solves, %d nodes; want 1, %d", workers, tr.solves, tr.nodes, res.Nodes)
		}
		if len(res.Stats.PerWorker) != workers {
			t.Fatalf("workers=%d: Result has %d PerWorker entries", workers, len(res.Stats.PerWorker))
		}
		if !reflect.DeepEqual(tr.stats, res.Stats) {
			t.Fatalf("workers=%d: decoded stats differ from Result.Stats:\ngot  %+v\nwant %+v", workers, tr.stats, res.Stats)
		}
	}
}

func TestSummarizeAttributesWorkerTime(t *testing.T) {
	path := writeTrace(t, 4, 11)
	tr, err := parseTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := summarize(&buf, tr); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"presolve", "LP warm", "LP cold", "heuristic", "branching", "queue wait", "idle", "nodes/sec"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summarize output missing %q:\n%s", want, out)
		}
	}
	if tr.attributedNs() <= 0 {
		t.Fatal("traced solve attributed no time")
	}
	// The objective-cutoff line reports solve_end's two counters against the
	// node events' own count of bound prunes.
	st := tr.stats
	if st.LPObjLimitStops == 0 || st.LPCutoffs > st.LPObjLimitStops || st.LPCutoffs > tr.reasons["bound"] {
		t.Fatalf("cutoff counters: %d LPs stopped, %d nodes cut off, %d bound prunes",
			st.LPObjLimitStops, st.LPCutoffs, tr.reasons["bound"])
	}
	if !strings.Contains(out, "objective cutoff:") {
		t.Fatalf("summarize output missing the objective cutoff line:\n%s", out)
	}
	// The disjoint buckets plus idle must cover the worker wall clock:
	// busy == lp + heur + branch by construction, so attribution + idle
	// lands within rounding of presolve + wall.
	denom := st.PresolveNs + tr.workerWallNs()
	covered := tr.attributedNs() + tr.idleNs()
	if covered > denom || float64(covered) < 0.95*float64(denom) {
		t.Fatalf("attribution covers %d of %d ns (%.1f%%), want ~100%%",
			covered, denom, 100*float64(covered)/float64(denom))
	}
}

// TestSummarizeReportsBudgetPrunes: solve_end's budget_prunes reaches the
// summary as its own line, absent when nothing was discarded that way.
func TestSummarizeReportsBudgetPrunes(t *testing.T) {
	for _, budget := range []bool{false, true} {
		path, _ := writeKnapsackTrace(t, 1, 2, budget)
		tr, err := parseTrace(path)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := summarize(&buf, tr); err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(buf.String(), "budget bound:"); got != budget || budget != (tr.stats.BudgetPrunes > 0) {
			t.Fatalf("knapsack %v: %d budget prunes, summary line %v:\n%s", budget, tr.stats.BudgetPrunes, got, buf.String())
		}
	}
}

func TestWorkersReportSharesSum(t *testing.T) {
	path := writeTrace(t, 4, 11)
	tr, err := parseTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.stats.PerWorker) != 4 {
		t.Fatalf("got %d workers, want 4", len(tr.stats.PerWorker))
	}
	var nodes int64
	for i, w := range tr.stats.PerWorker {
		nodes += w.Nodes
		if got := w.BusyNs + w.QueueWaitNs + w.IdleNs; got != w.WallNs {
			t.Fatalf("worker %d: busy+wait+idle %d != wall %d", i, got, w.WallNs)
		}
	}
	if nodes != tr.nodes {
		t.Fatalf("per-worker nodes %d != trace nodes %d", nodes, tr.nodes)
	}
	var buf bytes.Buffer
	if err := workersReport(&buf, tr, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "worker") || !strings.Contains(out, "total") {
		t.Fatalf("workers output missing table:\n%s", out)
	}
	if !strings.Contains(out, "queue:") {
		t.Fatalf("workers output missing queue latencies:\n%s", out)
	}
}

// TestWorkersStealColumnsAndAssertions: steal counters from solve_end and
// per_worker must survive parsing, render in the workers table, and drive
// the -require-steals / -max-idle CI assertions. The trace is a literal so
// the counter values are deterministic regardless of scheduling.
func TestWorkersStealColumnsAndAssertions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "steal.jsonl")
	line := `{"t":0.5,"layer":"milp","ev":"solve_end","fields":{` +
		`"runtime_s":0.5,"nodes":100,"lp_solves":100,"max_open":9,` +
		`"presolve_ns":1000,"lp_warm_ns":400000,"lp_cold_ns":1000,"heur_ns":0,"branch_ns":1000,` +
		`"queue_pop_ns":100,"queue_pops":100,"queue_push_ns":100,"queue_pushes":100,` +
		`"warm_starts":99,"cold_fallbacks":1,` +
		`"steals":3,"failed_steals":7,"stolen_nodes":12,"steal_ns":9000,` +
		`"per_worker":[` +
		`{"nodes":60,"busy_ns":300000,"wait_ns":100,"idle_ns":99900,"wall_ns":400000,"steals":0,"stolen_nodes":0},` +
		`{"nodes":40,"busy_ns":200000,"wait_ns":100,"idle_ns":199900,"wall_ns":400000,"steals":3,"stolen_nodes":12}]}}` + "\n"
	if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := parseTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if st := tr.stats; st.Steals != 3 || st.FailedSteals != 7 || st.StolenNodes != 12 || st.StealNs != 9000 {
		t.Fatalf("steal aggregates = %d/%d/%d/%d, want 3/7/12/9000",
			st.Steals, st.FailedSteals, st.StolenNodes, st.StealNs)
	}
	if w := tr.stats.PerWorker[1]; w.Steals != 3 || w.StolenNodes != 12 {
		t.Fatalf("worker 1 steals = %d/%d, want 3/12", w.Steals, w.StolenNodes)
	}
	var buf bytes.Buffer
	if err := workersReport(&buf, tr, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"steals", "stolen", "3 ok (12 nodes moved", "7 failed scans"} {
		if !strings.Contains(out, want) {
			t.Fatalf("workers output missing %q:\n%s", want, out)
		}
	}

	// Idle is 299800 of 800000 worker-ns (~37.5%): inside a 50%% ceiling,
	// outside a 30%% one.
	if err := assertWorkers(tr, true, 50); err != nil {
		t.Fatalf("assertions should pass on a stealing, mostly-busy trace: %v", err)
	}
	if err := assertWorkers(tr, false, 30); err == nil || !strings.Contains(err.Error(), "idle share") {
		t.Fatalf("want idle-ceiling failure, got %v", err)
	}
}

// TestWorkersRequireStealsFailsOnSerialTrace: a Workers=1 solve
// deterministically records zero steals, so -require-steals must reject
// its trace — the gate that catches ci.sh accidentally tracing a solve
// too small (or too serial) to exercise the scheduler.
func TestWorkersRequireStealsFailsOnSerialTrace(t *testing.T) {
	tr, err := parseTrace(writeTrace(t, 1, 11))
	if err != nil {
		t.Fatal(err)
	}
	if tr.stats.Steals != 0 {
		t.Fatalf("serial trace records %d steals, want 0", tr.stats.Steals)
	}
	if err := assertWorkers(tr, true, -1); err == nil || !strings.Contains(err.Error(), "no successful steals") {
		t.Fatalf("want require-steals failure, got %v", err)
	}
	if err := assertWorkers(tr, false, -1); err != nil {
		t.Fatalf("assertions disabled must pass: %v", err)
	}
}

func TestTreeReport(t *testing.T) {
	path := writeTrace(t, 2, 11)
	tr, err := parseTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := treeReport(&buf, tr); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"depth histogram", "fathom reasons", "incumbent timeline", "branched"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tree output missing %q:\n%s", want, out)
		}
	}
	var total int64
	for _, c := range tr.depths {
		total += c
	}
	if total != tr.nodes {
		t.Fatalf("depth histogram holds %d nodes, trace has %d", total, tr.nodes)
	}
}

func TestDiffReport(t *testing.T) {
	a, err := parseTrace(writeTrace(t, 1, 11))
	if err != nil {
		t.Fatal(err)
	}
	b, err := parseTrace(writeTrace(t, 4, 11))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := diffReport(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"metric", "nodes/sec", "queue wait", "idle"} {
		if !strings.Contains(out, want) {
			t.Fatalf("diff output missing %q:\n%s", want, out)
		}
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	dir := t.TempDir()

	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte("{\"t\":0,\"layer\":\"milp\",\"ev\":\"node\",\"fields\":{\"depth\":0,\"reason\":\"bound\"}}\nnot json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := parseTrace(bad); err == nil || !strings.Contains(err.Error(), ":2:") {
		t.Fatalf("want line-2 parse error, got %v", err)
	}

	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := parseTrace(empty); err == nil {
		t.Fatal("empty trace accepted")
	}

	if _, err := parseTrace(filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestReportsRejectUnattributedTraces(t *testing.T) {
	// A trace with events but no solve_end / node data must fail every
	// subcommand, not print an empty report — CI gates on the exit code.
	path := filepath.Join(t.TempDir(), "nosolve.jsonl")
	line := "{\"t\":0.1,\"layer\":\"batch\",\"ev\":\"sweep_topo_start\",\"fields\":{\"topo\":\"b4\"}}\n"
	if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := parseTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := summarize(io.Discard, tr); err == nil {
		t.Fatal("summarize accepted a solver-free trace")
	}
	if err := workersReport(io.Discard, tr, false); err == nil {
		t.Fatal("workers accepted a solver-free trace")
	}
	if err := treeReport(io.Discard, tr); err == nil {
		t.Fatal("tree accepted a solver-free trace")
	}
	if err := diffReport(io.Discard, tr, tr); err == nil {
		t.Fatal("diff accepted a solver-free trace")
	}
}
