package metaopt

import (
	"context"
	"testing"
	"time"

	"raha/internal/conc"
	"raha/internal/demand"
	"raha/internal/milp"
)

// TestAnalyzeClusteredParallelMatchesSerial: the wave-snapshot scheme pins
// every solve's inputs at wave start, so the clustered result must be
// bit-identical at any Parallel width. Run under -race this also exercises
// the fan-out plus the parallel branch-and-bound underneath it.
func TestAnalyzeClusteredParallelMatchesSerial(t *testing.T) {
	top, dps := tiny()
	base := demand.Matrix{
		{Src: dps[0].Src, Dst: dps[0].Dst, Volume: 12},
		{Src: dps[1].Src, Dst: dps[1].Dst, Volume: 10},
	}
	cfg := ClusterConfig{
		Config: Config{
			Topo: top, Demands: dps, Envelope: demand.Around(base, 0.5),
			QuantBits: 2, MaxFailures: 2,
		},
		Clusters: 2,
	}
	serial, err := AnalyzeClustered(cfg)
	if err != nil {
		t.Fatal(err)
	}

	par := cfg
	par.Parallel = 4
	par.Solver = milp.Params{Workers: 2}
	got, err := AnalyzeClustered(par)
	if err != nil {
		t.Fatal(err)
	}
	//raha:lint-allow float-cmp parallel solves that prove optimality are bit-identical to serial
	if got.Degradation != serial.Degradation {
		t.Fatalf("parallel clustered %g != serial %g", got.Degradation, serial.Degradation)
	}
	if got.Status != serial.Status {
		t.Fatalf("status %v != %v", got.Status, serial.Status)
	}
}

// TestAnalyzeClusteredPortfolioEquivalence: the worker-routing policy
// decides WHERE parallelism goes, never WHAT is computed — every mode of
// the portfolio tier (serial, scenario fan-out, intra-solve, auto) must
// reproduce the no-policy result bit for bit, since each cluster-pair
// solve proves optimality regardless of how workers are routed into it.
// Run under -race this also exercises the metaopt wave fan-out feeding
// the work-stealing search underneath.
func TestAnalyzeClusteredPortfolioEquivalence(t *testing.T) {
	top, dps := tiny()
	base := demand.Matrix{
		{Src: dps[0].Src, Dst: dps[0].Dst, Volume: 12},
		{Src: dps[1].Src, Dst: dps[1].Dst, Volume: 10},
	}
	cfg := ClusterConfig{
		Config: Config{
			Topo: top, Demands: dps, Envelope: demand.Around(base, 0.5),
			QuantBits: 2, MaxFailures: 2,
		},
		Clusters: 2,
	}
	ref, err := AnalyzeClustered(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []conc.Policy{
		{Mode: conc.PolicySerial},
		{Mode: conc.PolicyScenarios, Workers: 4},
		{Mode: conc.PolicyIntraSolve, Workers: 4},
		{Mode: conc.PolicyAuto, Workers: 4},
	} {
		c := cfg
		c.Parallelism = pol
		got, err := AnalyzeClustered(c)
		if err != nil {
			t.Fatalf("policy %v: %v", pol.Mode, err)
		}
		//raha:lint-allow float-cmp routing policies that prove optimality are bit-identical
		if got.Degradation != ref.Degradation {
			t.Fatalf("policy %v degradation %g != no-policy %g", pol.Mode, got.Degradation, ref.Degradation)
		}
		if got.Status != ref.Status {
			t.Fatalf("policy %v status %v != %v", pol.Mode, got.Status, ref.Status)
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
