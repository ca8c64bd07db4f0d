package experiments

import (
	"context"
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
	// stage splits it over its own count of independent analyses (stage):
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

	// OnProgress, when non-nil, is called after every completed analysis
	// of a sweep with the running count and an ETA — the CLI's live
	// per-figure progress line. Called from sweep worker goroutines; must
	// be safe for concurrent use.
	OnProgress func(SweepProgress)
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

// question is one analysis of a sweep, in the setup's terms: the setup
// supplies the topology, quantizer, budget and tracer, a question the
// rest. Zero values are the defaults: the setup's own tunnels, no
// probability constraint, no failure-count limit, total flow in Gap mode,
// no clustering and a cold start.
type question struct {
	dps       []paths.DemandPaths // nil: computed from the setup's path policy
	env       demand.Envelope
	threshold float64 // 0: no probability constraint
	k         int     // 0: no failure-count limit
	ce        bool
	objective metaopt.Objective
	mode      metaopt.Mode
	clusters  int             // Algorithm 1's cluster count; < 2 runs one analysis
	warm      *metaopt.Result // an earlier sweep point's answer (see warmChain)
}

// analyze runs one question under the setup's budget and worker share.
// Every analysis of the evaluation goes through it: metaopt.AnalyzeClustered
// runs Algorithm 1 for two or more clusters and a plain analysis below.
func (s *Setup) analyze(q question) (*metaopt.Result, error) {
	if q.dps == nil {
		var err error
		if q.dps, err = s.Paths(); err != nil {
			return nil, err
		}
	}
	return metaopt.AnalyzeClustered(metaopt.ClusterConfig{
		Config: metaopt.Config{
			Topo: s.Topo, Demands: q.dps, Envelope: q.env,
			Objective: q.objective, Mode: q.mode,
			ProbThreshold: q.threshold, MaxFailures: q.k,
			ConnectivityEnforced: q.ce,
			QuantBits:            s.QuantBits,
			Solver:               s.solver(),
			WarmStart:            q.warm,
		},
		Clusters: q.clusters,
	})
}

// warmChain is the warm-start rule of a sweep that loosens its questions
// step by step (a stricter threshold or a narrower envelope first, so an
// earlier answer's scenario stays feasible): per chain key — a failure
// budget, or 0 for a single chain — the last answer that carried a
// scenario. An answer stopped before any incumbent has nothing to seed
// with, and keeping it would start the next question cold.
type warmChain map[int]*metaopt.Result

// keep records res as key's next warm start if it found a scenario. A
// sweep stage reads the chain and writes it only after the stage ends.
func (c warmChain) keep(key int, res *metaopt.Result) {
	if res.Scenario != nil {
		c[key] = res
	}
}

// stage runs one question per grid point as one stage of the setup's
// worker budget (conc.Stage, traced under layer "experiments"): fn gets a
// copy of the setup whose Workers is the point's share, and the rows come
// back in grid order at any budget. Each finished point steps tk.
func stage[C, R any](s *Setup, tk *sweepTracker, grid []C, fn func(s *Setup, c C) (R, error)) ([]R, error) {
	rows := make([]R, len(grid))
	err := conc.Stage(context.Background(), s.Tracer, "experiments", len(grid), s.Workers, func(_ context.Context, i, perSolve int) error {
		sub := *s
		sub.Workers = perSolve
		r, err := fn(&sub, grid[i])
		if err != nil {
			return err
		}
		rows[i] = r
		tk.step()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// KLabel renders a failure budget for table output (0 = ∞).
func KLabel(k int) string {
	if k == 0 {
		return "inf"
	}
	return fmt.Sprintf("%d", k)
}
