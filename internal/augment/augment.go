// Package augment implements Raha's capacity-augmentation loop (§7 and
// Appendix C): repeatedly find the worst probable degradation scenario with
// the bilevel analyzer, then solve a minimum-augment MILP that restores the
// failed network's ability to match the healthy network's per-demand flows
// under that scenario, until no probable failure degrades the network.
//
// Two augment forms are supported, matching the paper:
//
//   - AugmentExisting adds member links to existing LAGs (the form
//     operators prefer) using the path-form model — the paths available to
//     each demand do not change.
//
//   - AugmentNewLAGs adds new LAGs from an operator-supplied candidate set
//     using the edge-form multi-commodity flow restricted to each demand's
//     original-path LAGs plus the candidates (Appendix C), with
//     distance-based weights that prefer candidates near impacted demands.
//
// New capacity either can fail (its links get the average failure
// probability of the LAG it joins — Figure 11's setting) or cannot
// (Figure 17/18's setting, modeled as a negligible failure probability so
// the probability-threshold machinery keeps working).
package augment

import (
	"fmt"
	"math"

	"raha/internal/demand"
	"raha/internal/metaopt"
	"raha/internal/milp"
	"raha/internal/paths"
	"raha/internal/topology"
)

// negligibleFailProb models "this capacity cannot fail" while keeping link
// probabilities inside (0,1) for the log-linear threshold constraint.
const negligibleFailProb = 1e-12

// Config parameterizes an augmentation run.
type Config struct {
	Topo  *topology.Topology // cloned, never mutated
	Pairs [][2]topology.Node // demand endpoints
	// Envelope bounds the demands the network must survive. Fixed
	// envelopes reproduce the paper's fixed-demand augments.
	Envelope demand.Envelope

	Primary, Backup int          // path policy (k shortest paths)
	Weight          paths.Weight // nil = hop count

	// Analysis options forwarded to the analyzer. Solver's width, budget,
	// tracer and progress callback apply to the augment MILPs as well.
	ProbThreshold        float64
	MaxFailures          int
	ConnectivityEnforced bool
	QuantBits            int
	Solver               milp.Params

	// Tolerance: stop when the worst degradation is below this (absolute,
	// same unit as capacity).
	Tolerance float64

	// MaxSteps bounds the iteration count; 0 defaults to 10 (the paper
	// observes convergence within 6).
	MaxSteps int

	// LinkCapacity is the capacity c of each added link; 0 defaults to the
	// topology's mean member-link capacity.
	LinkCapacity float64

	// NewCapacityCanFail assigns realistic failure probabilities to added
	// links so later iterations can fail them too (§8.6 / Figure 11).
	NewCapacityCanFail bool
}

// Step records one iteration of the loop.
type Step struct {
	Degradation float64     // worst-case degradation found before augmenting
	Added       map[int]int // LAG id → member links added this step
	LinksAdded  int
}

// Result reports the full augmentation run.
type Result struct {
	Topo             *topology.Topology // the augmented topology
	Steps            []Step
	FinalDegradation float64
	TotalLinksAdded  int
	Converged        bool
}

func (c *Config) maxSteps() int {
	if c.MaxSteps <= 0 {
		return 10
	}
	return c.MaxSteps
}

func (c *Config) linkCapacity(t *topology.Topology) float64 {
	if c.LinkCapacity > 0 {
		return c.LinkCapacity
	}
	if n := t.NumLinks(); n > 0 {
		var s float64
		for _, l := range t.LAGs() {
			for _, ln := range l.Links {
				s += ln.Capacity
			}
		}
		return s / float64(n)
	}
	return 1
}

func (c *Config) analyze(t *topology.Topology, dps []paths.DemandPaths) (*metaopt.Result, error) {
	return metaopt.Analyze(metaopt.Config{
		Topo:                 t,
		Demands:              dps,
		Envelope:             c.Envelope,
		ProbThreshold:        c.ProbThreshold,
		MaxFailures:          c.MaxFailures,
		ConnectivityEnforced: c.ConnectivityEnforced,
		QuantBits:            c.QuantBits,
		Solver:               c.Solver,
	})
}

// augmentParams is the params of an augment MILP: the run's Solver, but
// without the inputs that belong to the analyzer's model. Override, never
// re-list, so a new Params field reaches these solves too.
func (c *Config) augmentParams() milp.Params {
	p := c.Solver
	p.Hints, p.Bound, p.Knapsack = nil, nil, nil
	return p
}

// AugmentExisting runs the §7 loop, adding member links to existing LAGs.
func AugmentExisting(cfg Config) (*Result, error) {
	t := cfg.Topo.Clone()
	unit := cfg.linkCapacity(t)
	out := &Result{Topo: t}

	for step := 0; step < cfg.maxSteps(); step++ {
		dps, err := paths.Compute(t, cfg.Pairs, cfg.Primary, cfg.Backup, cfg.Weight)
		if err != nil {
			return nil, err
		}
		res, err := cfg.analyze(t, dps)
		if err != nil {
			return nil, err
		}
		if res.Scenario == nil {
			return nil, fmt.Errorf("augment: analysis returned no scenario (status %v)", res.Status)
		}
		if res.Degradation <= cfg.Tolerance+1e-9 {
			out.FinalDegradation = res.Degradation
			out.Converged = true
			return out, nil
		}

		added, err := solveExistingAugment(t, dps, res, unit, cfg.augmentParams())
		if err != nil {
			return nil, err
		}
		st := Step{Degradation: res.Degradation, Added: added}
		for e, n := range added {
			applyLinks(t, e, n, unit, cfg.NewCapacityCanFail)
			st.LinksAdded += n
		}
		out.TotalLinksAdded += st.LinksAdded
		out.Steps = append(out.Steps, st)
		out.FinalDegradation = res.Degradation
		if st.LinksAdded == 0 {
			// The augment model could not improve on this scenario —
			// should not happen, but avoid a livelock.
			return out, fmt.Errorf("augment: no links added for a degrading scenario (degradation %g)", res.Degradation)
		}
	}
	// One final check so FinalDegradation reflects the augmented network.
	dps, err := paths.Compute(t, cfg.Pairs, cfg.Primary, cfg.Backup, cfg.Weight)
	if err != nil {
		return nil, err
	}
	res, err := cfg.analyze(t, dps)
	if err != nil {
		return nil, err
	}
	out.FinalDegradation = res.Degradation
	out.Converged = res.Degradation <= cfg.Tolerance+1e-9
	return out, nil
}

// applyLinks appends n member links of the given capacity to LAG e.
func applyLinks(t *topology.Topology, e, n int, unit float64, canFail bool) {
	lag := t.LAG(e)
	prob := negligibleFailProb
	if canFail {
		// Average failure probability of the LAG's existing links (§8.6).
		var s float64
		for _, ln := range lag.Links {
			s += ln.FailProb
		}
		prob = s / float64(len(lag.Links))
		if prob <= 0 || prob >= 1 {
			prob = negligibleFailProb
		}
	}
	for i := 0; i < n; i++ {
		lag.Links = append(lag.Links, topology.Link{Capacity: unit, FailProb: prob})
	}
}

// solveExistingAugment solves the per-scenario minimum-augment MILP: choose
// integer link counts n_e so the failed network (with its fail-over path
// availability) can carry each demand's healthy flow; minimize Σ n_e.
func solveExistingAugment(t *topology.Topology, dps []paths.DemandPaths, res *metaopt.Result, unit float64, params milp.Params) (map[int]int, error) {
	m := milp.NewModel()
	scenCaps := res.Scenario.Capacities(t)
	active := res.Scenario.ActivePaths(dps)

	// Upper bound on links any LAG could need: enough to carry all demand.
	var totalDemand float64
	for _, v := range res.Healthy.PerDemand {
		totalDemand += v
	}
	maxLinks := math.Ceil(totalDemand/unit) + 1

	nAdd := make([]milp.Var, t.NumLAGs())
	obj := milp.NewExpr()
	for e := range nAdd {
		nAdd[e] = m.NewVar(0, maxLinks, milp.Integer, fmt.Sprintf("n[%d]", e))
		obj.Add(1, nAdd[e])
	}

	byLAG := make([][]milp.Var, t.NumLAGs())
	for k, dp := range dps {
		row := milp.NewExpr()
		for j := range dp.Paths {
			if !active[k][j] {
				continue
			}
			f := m.ContinuousVar(0, res.Healthy.PerDemand[k], fmt.Sprintf("f[%d][%d]", k, j))
			row.Add(1, f)
			for _, e := range dp.Paths[j].LAGs {
				byLAG[e] = append(byLAG[e], f)
			}
		}
		// Failed-with-augment network must match the healthy flow (§7).
		m.Add(row, milp.GE, res.Healthy.PerDemand[k], fmt.Sprintf("match[%d]", k))
	}
	for e, vars := range byLAG {
		if len(vars) == 0 {
			continue
		}
		row := milp.NewExpr(milp.T(-unit, nAdd[e]))
		for _, f := range vars {
			row.Add(1, f)
		}
		m.Add(row, milp.LE, scenCaps[e], fmt.Sprintf("cap[%d]", e))
	}
	m.SetObjective(obj, milp.Minimize)
	sol, err := m.Solve(params)
	if err != nil {
		return nil, err
	}
	if sol.Status != milp.Optimal && sol.Status != milp.Feasible {
		return nil, fmt.Errorf("augment: augment MILP %v", sol.Status)
	}
	added := make(map[int]int)
	for e, v := range nAdd {
		if n := int(math.Round(sol.X[v])); n > 0 {
			added[e] = n
		}
	}
	return added, nil
}
