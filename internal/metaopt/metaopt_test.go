package metaopt

import (
	"math"
	"strings"
	"testing"

	"raha/internal/demand"
	"raha/internal/failures"
	"raha/internal/milp"
	"raha/internal/paths"
	"raha/internal/te"
	"raha/internal/topology"
)

// tiny builds a 4-node topology with two demands, each with one primary and
// one backup path, small enough for exhaustive verification.
func tiny() (*topology.Topology, []paths.DemandPaths) {
	t := topology.New()
	a := t.AddNode("A")
	b := t.AddNode("B")
	c := t.AddNode("C")
	d := t.AddNode("D")
	mk := func(cp, p float64) []topology.Link { return []topology.Link{{Capacity: cp, FailProb: p}} }
	t.MustAddLAG(b, d, mk(8, 0.05))  // 0
	t.MustAddLAG(b, a, mk(12, 0.01)) // 1
	t.MustAddLAG(a, d, mk(9, 0.10))  // 2
	t.MustAddLAG(c, d, mk(8, 0.02))  // 3
	t.MustAddLAG(c, a, mk(12, 0.01)) // 4
	dps, err := paths.Compute(t, [][2]topology.Node{{b, d}, {c, d}}, 1, 1, nil)
	if err != nil {
		panic(err)
	}
	return t, dps
}

// enumerate iterates over every link-failure scenario of the topology.
func enumerate(t *topology.Topology, fn func(s *failures.Scenario)) {
	type linkRef struct{ e, l int }
	var links []linkRef
	for e := 0; e < t.NumLAGs(); e++ {
		for l := range t.LAG(e).Links {
			links = append(links, linkRef{e, l})
		}
	}
	for mask := 0; mask < 1<<len(links); mask++ {
		s := failures.NewScenario(t)
		for i, lr := range links {
			if mask&(1<<i) != 0 {
				s.LinkDown[lr.e][lr.l] = true
			}
		}
		fn(s)
	}
}

// demandGrid iterates over the quantized demand grid of the envelope.
func demandGrid(e demand.Envelope, bits int, fn func(d []float64)) {
	q, err := demand.NewQuantizer(e, bits)
	if err != nil {
		panic(err)
	}
	levels := q.Levels()
	d := make([]float64, len(e.Lo))
	var rec func(k int)
	rec = func(k int) {
		if k == len(d) {
			fn(append([]float64(nil), d...))
			return
		}
		if q.Unit[k] == 0 {
			d[k] = e.Lo[k]
			rec(k + 1)
			return
		}
		for lv := 0; lv < levels; lv++ {
			d[k] = e.Lo[k] + float64(lv)*q.Unit[k]
			rec(k + 1)
		}
	}
	rec(0)
}

// scenarioAllowed mirrors the §5.1 constraint checks for brute force.
func scenarioAllowed(cfg *Config, s *failures.Scenario) bool {
	if cfg.MaxFailures > 0 && s.NumFailedLinks() > cfg.MaxFailures {
		return false
	}
	if cfg.ProbThreshold > 0 && s.LogProb(cfg.Topo) < math.Log(cfg.ProbThreshold)-1e-9 {
		return false
	}
	if cfg.ConnectivityEnforced {
		for _, dp := range cfg.Demands {
			down := 0
			for _, p := range dp.Paths {
				if s.PathDown(p) {
					down++
				}
			}
			if down == len(dp.Paths) {
				return false
			}
		}
	}
	return true
}

// bruteForceScenarios calls fn with every allowed scenario, its worst
// degradation and its worst failed flow over the quantized demand grid.
func bruteForceScenarios(t *testing.T, cfg *Config, fn func(s *failures.Scenario, gap, failed float64)) {
	t.Helper()
	caps := te.FullCapacities(cfg.Topo)
	healthyActive := te.HealthyActive(cfg.Demands)
	enumerate(cfg.Topo, func(s *failures.Scenario) {
		if !scenarioAllowed(cfg, s) {
			return
		}
		failedCaps := s.Capacities(cfg.Topo)
		act := s.ActivePaths(cfg.Demands)
		gap, failed := math.Inf(-1), math.Inf(1)
		demandGrid(cfg.Envelope, cfg.quantBits(), func(d []float64) {
			h, err := te.MaxTotalFlow(cfg.Topo, cfg.Demands, d, caps, healthyActive)
			if err != nil {
				t.Fatal(err)
			}
			var f *te.Result
			if cfg.NaiveFailover {
				f, err = naiveFailoverFlow(cfg, d, failedCaps, act, h)
			} else {
				f, err = te.MaxTotalFlow(cfg.Topo, cfg.Demands, d, failedCaps, act)
			}
			if err != nil {
				t.Fatal(err)
			}
			gap = math.Max(gap, h.Objective-f.Objective)
			failed = math.Min(failed, f.Objective)
		})
		fn(s, gap, failed)
	})
}

// bruteForceTotalFlow computes the exact worst degradation over all allowed
// scenarios and grid demands.
func bruteForceTotalFlow(t *testing.T, cfg *Config) (bestGap float64, bestFailedOnly float64) {
	t.Helper()
	bestGap, bestFailedOnly = math.Inf(-1), math.Inf(1)
	bruteForceScenarios(t, cfg, func(_ *failures.Scenario, gap, failed float64) {
		bestGap = math.Max(bestGap, gap)
		bestFailedOnly = math.Min(bestFailedOnly, failed)
	})
	return bestGap, bestFailedOnly
}

func analyzeOK(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Analyze(cfg)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if res.Status != milp.Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	return res
}

// totalFlowCase is one named total-flow analysis small enough to enumerate.
type totalFlowCase struct {
	name string
	cfg  Config
}

// totalFlowCases are the instances TestTotalFlowGapMatchesBruteForce
// enumerates; TestBudgetBoundDominatesBruteForce referees the lost-capacity
// bound on the same ones.
func totalFlowCases() []totalFlowCase {
	top, dps := tiny()
	base := demand.Matrix{
		{Src: dps[0].Src, Dst: dps[0].Dst, Volume: 12},
		{Src: dps[1].Src, Dst: dps[1].Dst, Volume: 10},
	}
	return []totalFlowCase{
		{"variable-unconstrained", Config{
			Topo: top, Demands: dps, Envelope: demand.Around(base, 0.5), QuantBits: 2,
		}},
		{"variable-max2", Config{
			Topo: top, Demands: dps, Envelope: demand.Around(base, 0.5), QuantBits: 2, MaxFailures: 2,
		}},
		{"variable-threshold", Config{
			Topo: top, Demands: dps, Envelope: demand.Around(base, 0.5), QuantBits: 2, ProbThreshold: 1e-3,
		}},
		{"variable-CE", Config{
			Topo: top, Demands: dps, Envelope: demand.Around(base, 0.5), QuantBits: 2, ConnectivityEnforced: true,
		}},
		{"variable-upto", Config{
			Topo: top, Demands: dps, Envelope: demand.UpTo(base, 0.3), QuantBits: 2, MaxFailures: 3,
		}},
		{"fixed", Config{
			Topo: top, Demands: dps, Envelope: demand.Fixed(base), MaxFailures: 2,
		}},
		{"fixed-threshold", Config{
			Topo: top, Demands: dps, Envelope: demand.Fixed(base), ProbThreshold: 1e-4,
		}},
		{"fixed-naive-failover", Config{
			Topo: top, Demands: dps, Envelope: demand.Fixed(base), MaxFailures: 2, NaiveFailover: true,
		}},
	}
}

func TestTotalFlowGapMatchesBruteForce(t *testing.T) {
	for _, c := range totalFlowCases() {
		t.Run(c.name, func(t *testing.T) {
			res := analyzeOK(t, c.cfg)
			wantGap, _ := bruteForceTotalFlow(t, &c.cfg)
			if math.Abs(res.Degradation-wantGap) > 1e-5 {
				t.Fatalf("degradation = %g, brute force %g", res.Degradation, wantGap)
			}
			if math.Abs(res.ModelObjective-res.Degradation) > 1e-5 {
				t.Fatalf("model objective %g disagrees with verified degradation %g", res.ModelObjective, res.Degradation)
			}
			// The returned scenario must satisfy the constraints it was
			// found under.
			if !scenarioAllowed(&c.cfg, res.Scenario) {
				t.Fatalf("returned scenario violates the §5.1 constraints")
			}
		})
	}
}

func TestFailedOnlyModeFindsTrivialDemands(t *testing.T) {
	// The paper's Figure 1 middle panel: naively minimizing the failed
	// network's performance drives demands toward zero; the model objective
	// equals −(worst failed performance).
	top, dps := tiny()
	base := demand.Matrix{
		{Src: dps[0].Src, Dst: dps[0].Dst, Volume: 12},
		{Src: dps[1].Src, Dst: dps[1].Dst, Volume: 10},
	}
	cfg := Config{
		Topo: top, Demands: dps, Envelope: demand.Around(base, 0.5),
		QuantBits: 2, Mode: FailedOnly, MaxFailures: 1,
	}
	res := analyzeOK(t, cfg)
	_, wantFailed := bruteForceTotalFlow(t, &cfg)
	if math.Abs(res.ModelObjective-(-wantFailed)) > 1e-5 {
		t.Fatalf("model objective %g, want %g", res.ModelObjective, -wantFailed)
	}
	// The adversary should have chosen the smallest demands available.
	for k, d := range res.Demands {
		if math.Abs(d-cfg.Envelope.Lo[k]) > 1e-9 {
			t.Fatalf("demand %d = %g, expected the trivial lower bound %g", k, d, cfg.Envelope.Lo[k])
		}
	}
	// Raha's Gap mode must find a larger degradation than the naive
	// baseline's implied gap at its chosen point.
	gapCfg := cfg
	gapCfg.Mode = Gap
	gapRes := analyzeOK(t, gapCfg)
	naiveGap := res.Healthy.Objective - res.Failed.Objective
	if gapRes.Degradation < naiveGap-1e-9 {
		t.Fatalf("gap mode %g must dominate the naive baseline's gap %g", gapRes.Degradation, naiveGap)
	}
}

func TestUnconstrainedAdversaryDropsEverything(t *testing.T) {
	// With no probability/k/CE constraint the adversary fails every link
	// and the failed network routes nothing.
	top, dps := tiny()
	base := demand.Matrix{
		{Src: dps[0].Src, Dst: dps[0].Dst, Volume: 12},
		{Src: dps[1].Src, Dst: dps[1].Dst, Volume: 10},
	}
	cfg := Config{Topo: top, Demands: dps, Envelope: demand.Fixed(base)}
	res := analyzeOK(t, cfg)
	if res.Failed.Objective > 1e-6 {
		t.Fatalf("failed network routes %g, want 0", res.Failed.Objective)
	}
	if math.Abs(res.Degradation-res.Healthy.Objective) > 1e-6 {
		t.Fatalf("degradation %g, want full healthy flow %g", res.Degradation, res.Healthy.Objective)
	}
}

func TestMoreFailuresNeverHurtTheAdversary(t *testing.T) {
	// Degradation must be nondecreasing in the failure budget k — the
	// monotonicity behind the paper's ">2x higher than k≤2" headline.
	top, dps := tiny()
	base := demand.Matrix{
		{Src: dps[0].Src, Dst: dps[0].Dst, Volume: 12},
		{Src: dps[1].Src, Dst: dps[1].Dst, Volume: 10},
	}
	prev := -1.0
	for _, k := range []int{1, 2, 3, 4} {
		cfg := Config{Topo: top, Demands: dps, Envelope: demand.Around(base, 0.5), QuantBits: 2, MaxFailures: k}
		res := analyzeOK(t, cfg)
		if res.Degradation < prev-1e-6 {
			t.Fatalf("k=%d degradation %g < k=%d's %g", k, res.Degradation, k-1, prev)
		}
		prev = res.Degradation
	}
}

func TestWiderEnvelopeNeverHurts(t *testing.T) {
	// Figure 7's monotonicity: more slack ⇒ at least as much degradation.
	top, dps := tiny()
	base := demand.Matrix{
		{Src: dps[0].Src, Dst: dps[0].Dst, Volume: 10},
		{Src: dps[1].Src, Dst: dps[1].Dst, Volume: 8},
	}
	prev := -1.0
	for _, slack := range []float64{0, 0.5, 1.0} {
		cfg := Config{Topo: top, Demands: dps, Envelope: demand.UpTo(base, slack), QuantBits: 2, MaxFailures: 2}
		res := analyzeOK(t, cfg)
		if res.Degradation < prev-1e-6 {
			t.Fatalf("slack %g degradation %g decreased from %g", slack, res.Degradation, prev)
		}
		prev = res.Degradation
	}
}

func TestConfigValidation(t *testing.T) {
	top, dps := tiny()
	base := demand.Matrix{
		{Src: dps[0].Src, Dst: dps[0].Dst, Volume: 12},
		{Src: dps[1].Src, Dst: dps[1].Dst, Volume: 10},
	}
	if _, err := Analyze(Config{}); err == nil {
		t.Fatal("empty config must error")
	}
	if _, err := Analyze(Config{Topo: top, Demands: dps}); err == nil {
		t.Fatal("envelope shape mismatch must error")
	}
	if _, err := Analyze(Config{Topo: top, Demands: dps, Envelope: demand.Around(base, 0.5), NaiveFailover: true}); err == nil {
		t.Fatal("naive fail-over with variable demand must error")
	}
	if _, err := Analyze(Config{Topo: top, Demands: dps, Envelope: demand.Fixed(base), Objective: MLU}); err == nil {
		t.Fatal("MLU without CE must error")
	}
	// Only the total-flow model carries the naive fail-over gates.
	for _, o := range []Objective{MLU, MaxMin} {
		cfg := Config{Topo: top, Demands: dps, Envelope: demand.Fixed(base), Objective: o, ConnectivityEnforced: true, NaiveFailover: true}
		if _, err := Analyze(cfg); err == nil {
			t.Fatalf("naive fail-over with the %v objective must error", o)
		}
	}
	bad := Config{Topo: top, Demands: dps, Envelope: demand.Fixed(base), Objective: Objective(99)}
	if _, err := Analyze(bad); err == nil {
		t.Fatal("unknown objective must error")
	}
	// Non-finite and out-of-range input is refused up front, the envelope
	// naming its demand, rather than solved into a wrong status or failing
	// deep inside the solver.
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"infinite hi", func(c *Config) { c.Envelope.Hi[1] = math.Inf(1) }, "demand 1"},
		{"lo above hi", func(c *Config) { c.Envelope.Lo[1], c.Envelope.Hi[1] = 10, 1 }, "demand 1"},
		{"NaN lo", func(c *Config) { c.Envelope.Lo[1] = math.NaN() }, "demand 1"},
		{"NaN hi", func(c *Config) { c.Envelope.Hi[1] = math.NaN() }, "demand 1"},
		{"negative lo", func(c *Config) { c.Envelope.Lo[1] = -1 }, "demand 1"},
		{"short hi", func(c *Config) { c.Envelope.Hi = c.Envelope.Hi[:1] }, "envelope covers"},
		{"NaN threshold", func(c *Config) { c.ProbThreshold = math.NaN() }, "probability threshold"},
		{"negative threshold", func(c *Config) { c.ProbThreshold = -1e-3 }, "probability threshold"},
		{"threshold one", func(c *Config) { c.ProbThreshold = 1 }, "probability threshold"},
	} {
		cfg := Config{Topo: top, Demands: dps, Envelope: demand.UpTo(base, 0.5)}
		tc.mutate(&cfg)
		if _, err := Analyze(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}
