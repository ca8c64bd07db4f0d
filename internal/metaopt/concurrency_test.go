package metaopt

import (
	"context"
	"sync"
	"testing"
	"time"

	"raha/internal/conc"
	"raha/internal/demand"
	"raha/internal/milp"
	"raha/internal/obs"
)

// routeTracer records the worker-routing events of an analysis: every
// metaopt/parallelism split and every milp/solve_start width.
type routeTracer struct {
	mu     sync.Mutex
	splits [][3]int // units, fanout, solver_workers
	widths []int    // solve_start workers
}

func (r *routeTracer) Emit(layer, ev string, f obs.F) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch layer + "/" + ev {
	case "metaopt/parallelism":
		r.splits = append(r.splits, [3]int{f["units"].(int), f["fanout"].(int), f["solver_workers"].(int)})
	case "milp/solve_start":
		r.widths = append(r.widths, f["workers"].(int))
	}
}

// TestAnalyzeClusteredParallelMatchesSerial: the wave-snapshot scheme pins
// every solve's inputs at wave start, so the clustered result must be
// bit-identical at any worker budget — the budget decides WHERE workers go
// (conc.Split per wave), never WHAT is computed — and no wave may spend
// more than the budget (the zero-value config once ran GOMAXPROCS pair
// solves × GOMAXPROCS workers each). Run under -race this also exercises
// the wave fan-out feeding the work-stealing search underneath.
func TestAnalyzeClusteredParallelMatchesSerial(t *testing.T) {
	top, dps := tiny()
	base := demand.Matrix{
		{Src: dps[0].Src, Dst: dps[0].Dst, Volume: 12},
		{Src: dps[1].Src, Dst: dps[1].Dst, Volume: 10},
	}
	var ref *Result
	for _, workers := range []int{1, 2, 4} {
		tr := &routeTracer{}
		got, err := AnalyzeClustered(ClusterConfig{
			Config: Config{
				Topo: top, Demands: dps, Envelope: demand.Around(base, 0.5),
				QuantBits: 2, MaxFailures: 2,
				Solver: milp.Params{Workers: workers, Tracer: tr},
			},
			Clusters: 2,
		})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if ref == nil {
			ref = got
		}
		//raha:lint-allow float-cmp solves that prove optimality are bit-identical at any budget
		if got.Degradation != ref.Degradation || got.Status != ref.Status {
			t.Fatalf("workers %d: %v/%g != workers 1 %v/%g", workers, got.Status, got.Degradation, ref.Status, ref.Degradation)
		}

		if len(tr.splits) == 0 {
			t.Fatalf("workers %d: no metaopt/parallelism event", workers)
		}
		parallel := false
		for _, sp := range tr.splits {
			fanout, perSolve := conc.Split(workers, sp[0])
			if sp[1] != fanout || sp[2] != perSolve || fanout*perSolve > workers {
				t.Errorf("workers %d: wave of %d routed %d × %d, want %d × %d within the budget",
					workers, sp[0], sp[1], sp[2], fanout, perSolve)
			}
			parallel = parallel || sp[1] > 1 || sp[2] > 1
		}
		if parallel != (workers > 1) {
			t.Errorf("workers %d: splits %v, some wave parallel = %v", workers, tr.splits, parallel)
		}
		for _, w := range tr.widths {
			if w > workers {
				t.Errorf("workers %d: a solve started %d wide", workers, w)
			}
		}
	}
}

// TestHintSolvesKeepMainWidth: the fixed-demand hint solves of a
// variable-demand analysis run at the main solve's width (they once
// re-listed the solver fields and dropped the width settings).
func TestHintSolvesKeepMainWidth(t *testing.T) {
	top, dps := tiny()
	base := demand.Matrix{
		{Src: dps[0].Src, Dst: dps[0].Dst, Volume: 12},
		{Src: dps[1].Src, Dst: dps[1].Dst, Volume: 10},
	}
	tr := &routeTracer{}
	analyzeOK(t, Config{
		Topo: top, Demands: dps, Envelope: demand.Around(base, 0.5),
		QuantBits: 2, MaxFailures: 2,
		Solver: milp.Params{Workers: 1, Tracer: tr},
	})
	if len(tr.widths) < 3 {
		t.Fatalf("%d solve_start events, want the two hint solves and the main solve", len(tr.widths))
	}
	for i, w := range tr.widths {
		if w != 1 {
			t.Errorf("solve %d of a Workers: 1 analysis started %d wide", i, w)
		}
	}
}

// TestAnalyzeContextCancellation: a cancelled analysis must stop promptly
// and surface either the best scenario so far or a clean non-optimal status
// — never an error, matching the solver's timeout semantics.
func TestAnalyzeContextCancellation(t *testing.T) {
	top, dps := tiny()
	base := demand.Matrix{
		{Src: dps[0].Src, Dst: dps[0].Dst, Volume: 12},
		{Src: dps[1].Src, Dst: dps[1].Dst, Volume: 10},
	}
	cfg := Config{
		Topo: top, Demands: dps, Envelope: demand.Around(base, 0.5),
		QuantBits: 4, MaxFailures: 3,
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := AnalyzeContext(ctx, cfg)
	elapsed := time.Since(start)
	cancel()
	if err != nil {
		t.Fatalf("AnalyzeContext: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancelled analysis took %v", elapsed)
	}
	switch res.Status {
	case milp.Optimal, milp.Feasible, milp.Unknown:
	default:
		t.Fatalf("status = %v", res.Status)
	}
}

// TestAnalyzeContextBackgroundMatchesAnalyze: the context entry point with a
// background context is the plain API.
func TestAnalyzeContextBackgroundMatchesAnalyze(t *testing.T) {
	top, dps := tiny()
	base := demand.Matrix{
		{Src: dps[0].Src, Dst: dps[0].Dst, Volume: 12},
		{Src: dps[1].Src, Dst: dps[1].Dst, Volume: 10},
	}
	cfg := Config{
		Topo: top, Demands: dps, Envelope: demand.Around(base, 0.5),
		QuantBits: 2, MaxFailures: 2,
	}
	a := analyzeOK(t, cfg)
	b, err := AnalyzeContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	//raha:lint-allow float-cmp a background-context analysis is bit-identical to Analyze
	if b.Status != milp.Optimal || b.Degradation != a.Degradation {
		t.Fatalf("AnalyzeContext %v/%g != Analyze optimal/%g", b.Status, b.Degradation, a.Degradation)
	}
}

// TestAnalyzeWithParallelSolverMatchesSerial: the analyzer's verified
// degradation must not depend on the solver's worker count.
func TestAnalyzeWithParallelSolverMatchesSerial(t *testing.T) {
	top, dps := tiny()
	base := demand.Matrix{
		{Src: dps[0].Src, Dst: dps[0].Dst, Volume: 12},
		{Src: dps[1].Src, Dst: dps[1].Dst, Volume: 10},
	}
	mk := func(workers int) Config {
		return Config{
			Topo: top, Demands: dps, Envelope: demand.Around(base, 0.5),
			QuantBits: 2, MaxFailures: 2,
			Solver: milp.Params{Workers: workers},
		}
	}
	serial := analyzeOK(t, mk(1))
	par := analyzeOK(t, mk(8))
	if diff := serial.Degradation - par.Degradation; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("workers=8 degradation %g != workers=1 %g", par.Degradation, serial.Degradation)
	}
}
