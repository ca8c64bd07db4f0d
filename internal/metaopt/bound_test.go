package metaopt

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"raha/internal/demand"
	"raha/internal/failures"
	"raha/internal/milp"
	"raha/internal/obs"
	"raha/internal/paths"
	"raha/internal/topology"
)

// randomTiny is tiny()'s graph — two demands into D, each with one primary
// and one backup — with everything the lost-capacity bound leans on drawn at
// random: one or two member links per LAG, capacities that include zero, and
// failure probabilities that include links more likely down than up.
func randomTiny(rng *rand.Rand) (*topology.Topology, []paths.DemandPaths) {
	t := topology.New()
	a, b, c, d := t.AddNode("A"), t.AddNode("B"), t.AddNode("C"), t.AddNode("D")
	links := func() []topology.Link {
		ls := make([]topology.Link, 1+rng.Intn(2))
		for i := range ls {
			ls[i] = topology.Link{Capacity: float64(4 * rng.Intn(4)), FailProb: 0.005 + 0.3*rng.Float64()}
			if rng.Intn(8) == 0 {
				ls[i].FailProb = 0.6
			}
		}
		return ls
	}
	for _, ends := range [][2]topology.Node{{b, d}, {b, a}, {a, d}, {c, d}, {c, a}} {
		t.MustAddLAG(ends[0], ends[1], links())
	}
	dps, err := paths.Compute(t, [][2]topology.Node{{b, d}, {c, d}}, 1, 1, nil)
	if err != nil {
		panic(err)
	}
	return t, dps
}

// randomTotalFlowCases draws n budgeted analyses over randomTiny topologies:
// random thresholds, k ∈ {0, 1, 2} (at least one of the two set), CE on and
// off, fixed and variable envelopes, naive fail-over on some fixed ones.
func randomTotalFlowCases(n int) []totalFlowCase {
	rng := rand.New(rand.NewSource(24))
	var cases []totalFlowCase
	for len(cases) < n {
		top, dps := randomTiny(rng)
		if top.NumLinks() > 8 {
			continue // keep the enumeration at ≤ 256 scenarios
		}
		base := demand.Matrix{
			{Src: dps[0].Src, Dst: dps[0].Dst, Volume: float64(2 + rng.Intn(12))},
			{Src: dps[1].Src, Dst: dps[1].Dst, Volume: float64(2 + rng.Intn(12))},
		}
		cfg := Config{Topo: top, Demands: dps, QuantBits: 2, ConnectivityEnforced: rng.Intn(2) == 0}
		if cfg.MaxFailures = rng.Intn(3); cfg.MaxFailures == 0 || rng.Intn(2) == 0 {
			cfg.ProbThreshold = math.Pow(10, -4*rng.Float64())
		}
		switch rng.Intn(3) {
		case 0:
			cfg.Envelope = demand.UpTo(base, 0.5)
		case 1:
			cfg.Envelope = demand.Fixed(base)
		default:
			cfg.Envelope, cfg.NaiveFailover = demand.Fixed(base), true
		}
		cases = append(cases, totalFlowCase{fmt.Sprintf("random-%d", len(cases)), cfg})
	}
	return cases
}

// TestBudgetBoundDominatesBruteForce is the lost-capacity bound's referee: it
// is the one thing in the tree that can end a search on outside information,
// so it is held to enumeration rather than to the solver it steers. On every
// budgeted instance TestTotalFlowGapMatchesBruteForce enumerates and on the
// random ones above:
//
//   - the bound is at least the brute-force worst degradation;
//   - a bound ≤ 0 means the brute-force worst degradation is 0;
//   - an infeasible knapsack means enumeration found no allowed scenario;
//   - the analysis steered by the bound still returns the brute-force answer,
//     reports the bound, and never reports a dual bound weaker than it.
func TestBudgetBoundDominatesBruteForce(t *testing.T) {
	var closed, infeasible, met int
	for _, c := range append(totalFlowCases(), randomTotalFlowCases(100)...) {
		cfg := c.cfg
		if cfg.ProbThreshold <= 0 && cfg.MaxFailures <= 0 {
			continue
		}
		want, _ := bruteForceTotalFlow(t, &cfg)
		b, err := failures.NewBudget(cfg.Topo, cfg.Demands, cfg.Envelope.Hi, cfg.ProbThreshold, cfg.assumeUnusedWorst(), cfg.MaxFailures)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		bb, err := failures.LostCapacityBound(context.Background(), b)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res, err := Analyze(cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if math.IsInf(want, -1) {
			// No scenario is allowed (a threshold nothing reaches, or CE on
			// top of a budget that forces a disconnection).
			if res.Status != milp.Infeasible {
				t.Fatalf("%s: status %v, enumeration found no allowed scenario", c.name, res.Status)
			}
			if bb.Infeasible {
				infeasible++
			}
			continue
		}
		switch {
		case bb.Infeasible:
			t.Fatalf("%s: knapsack infeasible, enumeration found degradation %g", c.name, want)
		case bb.Value < want-1e-6:
			t.Fatalf("%s: bound %g below the brute-force degradation %g", c.name, bb.Value, want)
		case bb.Value <= 0 && math.Abs(want) > 1e-9:
			t.Fatalf("%s: bound %g says nothing can be lost, brute force loses %g", c.name, bb.Value, want)
		}
		if res.Status != milp.Optimal || math.Abs(res.Degradation-want) > 1e-5 {
			t.Fatalf("%s: %v at degradation %g, brute force %g (bound %g)", c.name, res.Status, res.Degradation, want, bb.Value)
		}
		if !scenarioAllowed(&cfg, res.Scenario) {
			t.Fatalf("%s: returned scenario violates the §5.1 constraints", c.name)
		}
		//raha:lint-allow float-cmp the analysis reports the knapsack's value verbatim
		if res.BudgetBound == nil || *res.BudgetBound != bb.Value {
			t.Fatalf("%s: result reports budget bound %v, knapsack says %g", c.name, res.BudgetBound, bb.Value)
		}
		// An optimal result reports its own objective as the bound, which the
		// LP tolerance may leave a hair above the knapsack's.
		if res.Bound > bb.Value+1e-6*(1+math.Abs(bb.Value)) {
			t.Fatalf("%s: dual bound %g weaker than the budget bound %g", c.name, res.Bound, bb.Value)
		}
		if res.ClosedByBound {
			if res.Nodes == 0 && res.Stats.LPSolves == 0 {
				closed++
			} else {
				met++
			}
		}
	}
	t.Logf("bound closed %d analyses outright, ended %d searches, proved %d infeasible", closed, met, infeasible)
	if closed == 0 || met == 0 || infeasible == 0 {
		t.Error("the cases do not exercise every way the bound can end an analysis")
	}
}

// TestBudgetBoundTraceAndScope: a closed analysis explains itself in the
// trace — a budget_bound event, the verification, no MILP — and the analyses
// the inequality does not cover compute no bound at all.
func TestBudgetBoundTraceAndScope(t *testing.T) {
	top, dps := tiny()
	base := demand.Matrix{
		{Src: dps[0].Src, Dst: dps[0].Dst, Volume: 12},
		{Src: dps[1].Src, Dst: dps[1].Dst, Volume: 10},
	}
	// All five links up has probability ≈ 0.82 and the likeliest single
	// failure ≈ 0.09: a threshold of 0.5 admits all-up and nothing else.
	var buf bytes.Buffer
	cfg := Config{Topo: top, Demands: dps, Envelope: demand.UpTo(base, 0.3), QuantBits: 2, ProbThreshold: 0.5}
	cfg.Solver.Tracer = obs.NewJSONLTracer(&buf)
	res := analyzeOK(t, cfg)
	if !res.ClosedByBound || res.Nodes != 0 || res.Degradation != 0 || res.Scenario.NumFailedLinks() != 0 {
		t.Fatalf("closed=%v nodes=%d degradation=%g failed links=%d; want the all-up scenario at zero nodes",
			res.ClosedByBound, res.Nodes, res.Degradation, res.Scenario.NumFailedLinks())
	}
	for k, d := range res.Demands {
		if math.Abs(d-cfg.Envelope.Hi[k]) > 1e-12 {
			t.Fatalf("demand %d = %g, want the envelope's top %g", k, d, cfg.Envelope.Hi[k])
		}
	}
	trace := buf.String()
	if !strings.Contains(trace, `"ev":"budget_bound"`) || !strings.Contains(trace, `"closed":true`) ||
		!strings.Contains(trace, `"ev":"verify"`) || strings.Contains(trace, `"layer":"milp"`) {
		t.Fatalf("closed analysis trace:\n%s", trace)
	}

	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		want   bool
	}{
		{"threshold", func(*Config) {}, true},
		{"k-only", func(c *Config) { c.ProbThreshold, c.MaxFailures = 0, 1 }, true},
		{"failedonly", func(c *Config) { c.Mode = FailedOnly }, false},
		{"no-budget", func(c *Config) { c.ProbThreshold = 0 }, false},
		{"mlu", func(c *Config) { c.Objective, c.ConnectivityEnforced = MLU, true }, false},
		{"maxmin", func(c *Config) { c.Objective = MaxMin }, false},
	} {
		c := Config{Topo: top, Demands: dps, Envelope: demand.Fixed(base), ProbThreshold: 1e-3}
		tc.mutate(&c)
		res, err := Analyze(c)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := res.BudgetBound != nil; got != tc.want {
			t.Errorf("%s: budget bound computed = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestNodeBoundDominatesBruteForce is the referee of the bound branch and
// bound caps every child with: the failure budget handed to the solve as a
// milp.Knapsack over the model's link binaries. On the cases above, over
// random boxes that fix some links down, some up and leave the rest free,
// its bound is never below the worst degradation of any allowed scenario
// inside the box. The cases include links more likely down than up whose
// failure the probability row needs (RHS > 0), multi-link LAGs, k ∈ {0, 1,
// 2}, CE, naive fail-over, and fixed and variable envelopes.
func TestNodeBoundDominatesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var boxes, tighter, emptied, likelyDown int
	for _, c := range append(totalFlowCases(), randomTotalFlowCases(100)...) {
		cfg := c.cfg
		if cfg.ProbThreshold <= 0 && cfg.MaxFailures <= 0 {
			continue
		}
		f, err := cfg.validate()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		m, enc, _, err := build(&cfg, f)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		b, err := failures.NewBudget(cfg.Topo, cfg.Demands, cfg.Envelope.Hi, cfg.ProbThreshold, cfg.assumeUnusedWorst(), cfg.MaxFailures)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if b.Coef != nil && b.RHS > 0 {
			likelyDown++
		}
		k := enc.Knapsack(b)

		type scored struct {
			s   *failures.Scenario
			gap float64
		}
		var all []scored
		bruteForceScenarios(t, &cfg, func(s *failures.Scenario, gap, _ float64) { all = append(all, scored{s, gap}) })

		lo, hi := make([]float64, m.NumVars()), make([]float64, m.NumVars())
		for v := range lo {
			lo[v], hi[v] = m.Bounds(milp.Var(v))
		}
		root := k.Bound(lo, hi)
		for box := 0; box < 24; box++ {
			for v := range lo {
				lo[v], hi[v] = m.Bounds(milp.Var(v))
			}
			for _, links := range enc.LinkDown {
				for _, v := range links {
					switch rng.Intn(3) {
					case 0:
						lo[v] = 1
					case 1:
						hi[v] = 0
					}
				}
			}
			inBox := func(s *failures.Scenario) bool {
				for e, links := range enc.LinkDown {
					for l, v := range links {
						if s.LinkDown[e][l] && hi[v] < 0.5 || !s.LinkDown[e][l] && lo[v] > 0.5 {
							return false
						}
					}
				}
				return true
			}
			want := math.Inf(-1)
			for _, sc := range all {
				if inBox(sc.s) {
					want = math.Max(want, sc.gap)
				}
			}
			got := k.Bound(lo, hi)
			if got < want-1e-6 {
				t.Fatalf("%s box %d: node bound %g below the brute-force degradation %g in the box", c.name, box, got, want)
			}
			boxes++
			switch {
			case math.IsInf(got, -1):
				emptied++
			case got < root-1e-9:
				tighter++
			}
		}
	}
	t.Logf("%d boxes: %d bounded below the root's knapsack, %d emptied; %d budgets need a likely-down link", boxes, tighter, emptied, likelyDown)
	if tighter == 0 || emptied == 0 || likelyDown == 0 {
		t.Error("the boxes do not exercise the node bound")
	}
}
