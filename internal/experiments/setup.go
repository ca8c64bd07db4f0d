package experiments

import (
	"fmt"
	"time"

	"raha/internal/conc"
	"raha/internal/demand"
	"raha/internal/metaopt"
	"raha/internal/obs"
	"raha/internal/paths"
	"raha/internal/topology"
)

// Setup bundles a topology with a demand population for one experiment.
type Setup struct {
	Topo  *topology.Topology
	Pairs [][2]topology.Node
	Base  demand.Matrix // the "average over a month" matrix
	Norm  float64       // mean LAG capacity (the paper's normalizer)

	Primary, Backup int
	Weight          paths.Weight

	// Budget is the solver time limit per analysis (the paper's Gurobi
	// timeout). Zero means no limit.
	Budget time.Duration

	// QuantBits for variable-demand analyses.
	QuantBits int

	// Workers is the worker budget of a sweep (0 uses all cores). Each
	// stage splits it over its own count of independent analyses (plan):
	// a wide stage fans out serial solves, a narrow one routes the
	// leftover inside each solve, and a clustered analysis hands its share
	// to metaopt, which re-splits it per wave. Row order is identical at
	// any setting, and so are values for solves that prove optimality;
	// analyses stopped by a wall-clock Budget return timing-dependent
	// incumbents (as with any anytime solver), and concurrent analyses
	// competing for cores reach the limit with less work done.
	Workers int

	// Tracer, when non-nil, receives the sweep's event stream: the
	// figure-level sweep_start/sweep_point events plus everything the
	// metaopt and milp layers below emit (see internal/obs).
	Tracer obs.Tracer

	// Check runs the internal/modelcheck diagnostic pass before every solve
	// of the sweep (milp.Params.Check). An error-severity diagnostic aborts
	// that analysis with a *milp.CheckError instead of solving.
	Check bool

	// OnProgress, when non-nil, is called after every completed analysis
	// of a sweep with the running count and an ETA — the CLI's live
	// per-figure progress line. Called from sweep worker goroutines; must
	// be safe for concurrent use.
	OnProgress func(SweepProgress)
}

// plan splits the worker budget over a sweep stage of units independent
// analyses: the stage runs fanout of them at once on the returned setup,
// whose Workers is each analysis's share. A figure with stages of
// different widths plans each from the original setup; the split is
// trace-visible as an experiments/"parallelism" event.
func (s *Setup) plan(units int) (stage *Setup, fanout int) {
	fanout, perSolve := conc.Split(s.Workers, units)
	c := *s
	c.Workers = perSolve
	if s.Tracer != nil {
		s.Tracer.Emit("experiments", "parallelism", obs.F{
			"units":          units,
			"fanout":         fanout,
			"solver_workers": perSolve,
		})
	}
	return &c, fanout
}

// Paths computes the tunnel sets for the current path policy.
func (s *Setup) Paths() ([]paths.DemandPaths, error) {
	return paths.Compute(s.Topo, s.Pairs, s.Primary, s.Backup, s.Weight)
}

// Figure1Setup returns the §2.1 motivating example: demands B→D (12) and
// C→D (10) on the four-node Figure 1 network, two paths each, no backups.
// Norm is 1: the figure reports raw volumes.
func Figure1Setup(budget time.Duration) *Setup {
	top := topology.Figure1()
	b, _ := top.NodeByName("B")
	c, _ := top.NodeByName("C")
	d, _ := top.NodeByName("D")
	return &Setup{
		Topo:      top,
		Pairs:     [][2]topology.Node{{b, d}, {c, d}},
		Base:      demand.Matrix{{Src: b, Dst: d, Volume: 12}, {Src: c, Dst: d, Volume: 10}},
		Norm:      1,
		Primary:   2,
		Budget:    budget,
		QuantBits: 3,
	}
}

// Production returns the default production-like setup: the SmallWAN
// stand-in (multi-link LAGs, production failure mixture), gravity demands
// scaled so the average matrix is demand-limited under failures while the
// maximum matrix saturates failed capacity (separating the paper's
// fixed-avg / fixed-max / variable panels), 2 primary + 1 backup paths.
func Production(budget time.Duration) *Setup {
	top := topology.SmallWAN()
	pairs := demand.TopPairs(top, 6, 4)
	base := demand.Gravity(top, pairs, top.MeanLAGCapacity()*0.2, 4)
	return &Setup{
		Topo:      top,
		Pairs:     pairs,
		Base:      base,
		Norm:      top.MeanLAGCapacity(),
		Primary:   2,
		Backup:    1,
		Budget:    budget,
		QuantBits: 3,
	}
}

// Africa returns the full-size production stand-in (76 nodes / 334 LAGs /
// 382 links); used by the fixed-demand runtime experiments where the MILP
// carries only failure variables.
func Africa(budget time.Duration) *Setup {
	top := topology.AfricaWAN()
	pairs := demand.TopPairs(top, 8, 1)
	base := demand.Gravity(top, pairs, top.MeanLAGCapacity()*1.5, 1)
	return &Setup{
		Topo:      top,
		Pairs:     pairs,
		Base:      base,
		Norm:      top.MeanLAGCapacity(),
		Primary:   2,
		Backup:    1,
		Budget:    budget,
		QuantBits: 2,
	}
}

// Uninett returns the Figure 8 setup: the Uninett2010 stand-in with 4
// primary + 1 backup paths and demands capped at half the mean LAG capacity
// so no single demand bottlenecks the analysis.
func Uninett(budget time.Duration) *Setup {
	top := topology.Uninett2010()
	pairs := demand.TopPairs(top, 6, 2010)
	base := demand.Gravity(top, pairs, top.MeanLAGCapacity(), 2010)
	return &Setup{
		Topo:      top,
		Pairs:     pairs,
		Base:      base,
		Norm:      top.MeanLAGCapacity(),
		Primary:   4,
		Backup:    1,
		Budget:    budget,
		QuantBits: 2,
	}
}

// B4 returns the Table 3 setup (normalization constant ≈ 5000).
func B4(budget time.Duration) *Setup {
	top := topology.B4()
	pairs := demand.TopPairs(top, 6, 4)
	base := demand.Gravity(top, pairs, top.MeanLAGCapacity(), 4)
	return &Setup{
		Topo:      top,
		Pairs:     pairs,
		Base:      base,
		Norm:      top.MeanLAGCapacity(),
		Primary:   4,
		Backup:    1,
		Budget:    budget,
		QuantBits: 2,
	}
}

// CogentcoSetup returns the Table 4 setup (197 nodes, 4+1 paths).
func CogentcoSetup(budget time.Duration) *Setup {
	top := topology.Cogentco()
	pairs := demand.TopPairs(top, 6, 486)
	base := demand.Gravity(top, pairs, top.MeanLAGCapacity(), 486)
	return &Setup{
		Topo:      top,
		Pairs:     pairs,
		Base:      base,
		Norm:      top.MeanLAGCapacity(),
		Primary:   4,
		Backup:    1,
		Budget:    budget,
		QuantBits: 2,
	}
}

// analyze runs one analysis under the setup's budget. k == 0 means no
// failure-count limit; threshold == 0 means no probability constraint.
// prev, when non-nil, warm-starts the search with an earlier sweep point's
// solution (valid when the earlier point's feasible set is a subset of this
// one's — e.g. a stricter threshold or a narrower envelope).
func (s *Setup) analyze(dps []paths.DemandPaths, env demand.Envelope, threshold float64, k int, ce bool, prev *metaopt.Result) (*metaopt.Result, error) {
	cfg := metaopt.Config{
		Topo:                 s.Topo,
		Demands:              dps,
		Envelope:             env,
		ProbThreshold:        threshold,
		MaxFailures:          k,
		ConnectivityEnforced: ce,
		QuantBits:            s.QuantBits,
		Solver:               s.solver(),
	}
	if prev != nil && prev.Scenario != nil {
		cfg.WarmStartScenario = prev.Scenario
		cfg.WarmStartDemands = prev.Demands
	}
	return metaopt.Analyze(cfg)
}

// KLabel renders a failure budget for table output (0 = ∞).
func KLabel(k int) string {
	if k == 0 {
		return "inf"
	}
	return fmt.Sprintf("%d", k)
}
