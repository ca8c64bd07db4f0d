package metaopt

import (
	"math"
	"testing"
	"time"

	"raha/internal/demand"
	"raha/internal/milp"
	"raha/internal/paths"
	"raha/internal/te"
	"raha/internal/topology"
)

func TestNaiveGateMapping(t *testing.T) {
	h := &te.Result{PathFlows: [][]float64{{5, 3}}}
	// Two primaries (flows 5 and 3), then backups.
	cases := []struct {
		j    int
		want float64
	}{
		{0, 5}, // primary 0 capped at its own healthy flow
		{1, 3}, // primary 1
		{2, 5}, // backup 0 ← primary 0
		{3, 3}, // backup 1 ← primary 1
		{4, 0}, // backup 2 has no matching primary
	}
	for _, c := range cases {
		//raha:lint-allow float-cmp the gate copies healthy values verbatim; exact equality expected
		if got := naiveGate(h, 0, c.j, 2); got != c.want {
			t.Fatalf("naiveGate(j=%d) = %g, want %g", c.j, got, c.want)
		}
	}
	if naiveGate(nil, 0, 0, 2) != 0 {
		t.Fatal("nil healthy must gate to 0")
	}
}

func TestZeroDemandEnvelope(t *testing.T) {
	// An all-zero envelope: nothing to degrade; analysis returns 0.
	top, dps := tiny()
	env := demand.Envelope{Pairs: make([][2]topology.Node, 2), Lo: []float64{0, 0}, Hi: []float64{0, 0}}
	res := analyzeOK(t, Config{Topo: top, Demands: dps, Envelope: env, MaxFailures: 2})
	if res.Degradation != 0 {
		t.Fatalf("degradation %g on zero demand", res.Degradation)
	}
}

func TestTimeLimitReturnsVerifiedIncumbent(t *testing.T) {
	// Even with a tiny budget the result must be a *verified* degradation
	// (healthy/failed re-solved as LPs), never an unverified model value.
	top := topology.SmallWAN()
	pairs := demand.TopPairs(top, 6, 4)
	base := demand.Gravity(top, pairs, top.MeanLAGCapacity()*0.2, 4)
	dps, err := paths.Compute(top, pairs, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	budget := 500 * time.Millisecond
	if raceEnabled {
		budget *= 10 // race instrumentation slows the LP kernel ~10x
	}
	res, err := Analyze(Config{
		Topo: top, Demands: dps, Envelope: demand.UpTo(base, 0.5),
		ProbThreshold: 1e-5, QuantBits: 3,
		Solver: milp.Params{TimeLimit: budget},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario == nil {
		t.Fatalf("expected an incumbent scenario (status %v)", res.Status)
	}
	h, err := te.MaxTotalFlow(top, dps, res.Demands, te.FullCapacities(top), te.HealthyActive(dps))
	if err != nil {
		t.Fatal(err)
	}
	f, err := te.MaxTotalFlow(top, dps, res.Demands, res.Scenario.Capacities(top), res.Scenario.ActivePaths(dps))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs((h.Objective-f.Objective)-res.Degradation) > 1e-6 {
		t.Fatalf("reported degradation %g does not match re-solve %g", res.Degradation, h.Objective-f.Objective)
	}
}

// TestAnalysisEndsAtItsTimeLimit: Solver.TimeLimit bounds the whole
// analysis — the budget bound, the two fixed-demand hint solves and the
// main solve — so only the verification runs past it. The fixed-demand hint
// solves of this B4 instance take about a fifth of the budget; they used to
// run outside the main solve's own full TimeLimit.
func TestAnalysisEndsAtItsTimeLimit(t *testing.T) {
	top := topology.B4()
	pairs := demand.TopPairs(top, 30, 5)
	base := demand.Gravity(top, pairs, top.MeanLAGCapacity(), 5)
	dps, err := paths.Compute(top, pairs, 4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// slack covers the node in flight at the deadline and the unwinding.
	budget, slack := 400*time.Millisecond, 25*time.Millisecond
	if raceEnabled {
		budget, slack = 10*budget, 10*slack
	}
	res, err := Analyze(Config{
		Topo: top, Demands: dps, Envelope: demand.UpTo(base, 0.5),
		ProbThreshold: 1e-4, QuantBits: 3,
		Solver: milp.Params{Workers: 1, TimeLimit: budget},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != milp.Feasible || res.HintRuntime == 0 {
		t.Fatalf("%v with %v of hint solves: the instance must run out its budget after hinting", res.Status, res.HintRuntime)
	}
	if limit := budget + res.VerifyRuntime + slack; res.Runtime > limit {
		t.Fatalf("analysis took %v on a %v budget (hints %v, solve %v, verify %v), over %v",
			res.Runtime, budget, res.HintRuntime, res.SolveRuntime, res.VerifyRuntime, limit)
	}
}

func TestWarmStartAcceptedAndHarmless(t *testing.T) {
	// A warm start from a narrower envelope must never make results worse,
	// and a nonsense warm start must not break anything.
	top, dps := tiny()
	base := demand.Matrix{
		{Src: dps[0].Src, Dst: dps[0].Dst, Volume: 12},
		{Src: dps[1].Src, Dst: dps[1].Dst, Volume: 10},
	}
	narrow := analyzeOK(t, Config{Topo: top, Demands: dps, Envelope: demand.UpTo(base, 0.2), QuantBits: 2, MaxFailures: 2})
	wide := analyzeOK(t, Config{
		Topo: top, Demands: dps, Envelope: demand.UpTo(base, 0.6), QuantBits: 2, MaxFailures: 2,
		WarmStart: narrow,
	})
	if wide.Degradation < narrow.Degradation-1e-6 {
		t.Fatalf("wide %g below narrow %g", wide.Degradation, narrow.Degradation)
	}
	// Wrong-length warm-start demands are ignored.
	res := analyzeOK(t, Config{
		Topo: top, Demands: dps, Envelope: demand.UpTo(base, 0.6), QuantBits: 2, MaxFailures: 2,
		WarmStart: &Result{Scenario: narrow.Scenario, Demands: []float64{1}},
	})
	if res.Scenario == nil {
		t.Fatal("analysis with malformed warm start must still work")
	}
}
