// Package augment implements Raha's capacity-augmentation loop (§7 and
// Appendix C): repeatedly find the worst probable degradation scenario with
// the bilevel analyzer, then solve a minimum-augment MILP that restores the
// failed network's ability to match the healthy network's per-demand flows
// under that scenario, until no probable failure degrades the network.
//
// Two augment forms share that one loop and its Result, matching the
// paper; each supplies the loop's augment step:
//
//   - AugmentExisting adds member links to existing LAGs (the form
//     operators prefer) using the path-form model — the paths available to
//     each demand do not change.
//
//   - AugmentNewLAGs adds new LAGs from an operator-supplied candidate set
//     using the edge-form multi-commodity flow restricted to each demand's
//     original-path LAGs plus the candidates (Appendix C), with
//     distance-based weights that prefer candidates near impacted demands.
//     A step the edge form cannot serve takes AugmentExisting's step.
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

	// NewCapacityCanFail assigns realistic failure probabilities to added
	// links so later iterations can fail them too (§8.6 / Figure 11).
	NewCapacityCanFail bool
}

// Step records one iteration of the loop.
type Step struct {
	Degradation float64     // worst-case degradation found before augmenting
	Added       map[int]int // LAG id → member links added this step (a new LAG under its new id)
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

// meanLinkCapacity is the capacity c of each added link: the topology's
// mean member-link capacity (1 on a topology without links).
func meanLinkCapacity(t *topology.Topology) float64 {
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

// worst analyzes t under the current path policy: the demands' tunnel
// sets and the worst probable degradation scenario.
func (c *Config) worst(t *topology.Topology) ([]paths.DemandPaths, *metaopt.Result, error) {
	dps, err := paths.Compute(t, c.Pairs, c.Primary, c.Backup, c.Weight)
	if err != nil {
		return nil, nil, err
	}
	res, err := metaopt.Analyze(metaopt.Config{
		Topo:                 t,
		Demands:              dps,
		Envelope:             c.Envelope,
		ProbThreshold:        c.ProbThreshold,
		MaxFailures:          c.MaxFailures,
		ConnectivityEnforced: c.ConnectivityEnforced,
		QuantBits:            c.QuantBits,
		Solver:               c.Solver,
	})
	if err != nil {
		return nil, nil, err
	}
	return dps, res, nil
}

// augmentParams is the params of an augment MILP: the run's Solver, but
// without the inputs that belong to the analyzer's model. Override, never
// re-list, so a new Params field reaches these solves too.
func (c *Config) augmentParams() milp.Params {
	p := c.Solver
	p.Hints, p.Bound, p.Knapsack = nil, nil, nil
	return p
}

// proposal is one form's augment step: solve its augment MILP against the
// worst scenario res of t, add the capacity it asks for to t, and return
// the member links added per LAG id.
type proposal func(t *topology.Topology, dps []paths.DemandPaths, res *metaopt.Result, unit float64) (map[int]int, error)

// AugmentExisting runs the §7 loop, adding member links to existing LAGs.
func AugmentExisting(cfg Config) (*Result, error) {
	return run(cfg, cfg.addToExisting)
}

// run is the loop both augment forms share (§7, Appendix C): analyze a
// clone of the topology, stop once the worst degradation is within
// tolerance, else let propose add capacity against that scenario, and
// repeat. Paths are recomputed every step, so new LAGs join the tunnel
// sets. A non-nil error comes with a nil Result.
func run(cfg Config, propose proposal) (*Result, error) {
	t := cfg.Topo.Clone()
	unit := meanLinkCapacity(t)
	out := &Result{Topo: t}

	for step := 0; step < cfg.maxSteps(); step++ {
		dps, res, err := cfg.worst(t)
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

		added, err := propose(t, dps, res, unit)
		if err != nil {
			return nil, err
		}
		st := Step{Degradation: res.Degradation, Added: added}
		for _, n := range added {
			st.LinksAdded += n
		}
		if st.LinksAdded == 0 {
			// The augment model could not improve on this scenario —
			// should not happen, but avoid a livelock.
			return nil, fmt.Errorf("augment: no links added for a degrading scenario (degradation %g)", res.Degradation)
		}
		out.TotalLinksAdded += st.LinksAdded
		out.Steps = append(out.Steps, st)
	}
	// One final check so FinalDegradation reflects the augmented network.
	_, res, err := cfg.worst(t)
	if err != nil {
		return nil, err
	}
	out.FinalDegradation = res.Degradation
	out.Converged = res.Degradation <= cfg.Tolerance+1e-9
	return out, nil
}

// addToExisting is §7's step: the path-form MILP over the existing LAGs,
// whose chosen member links join those LAGs.
func (c *Config) addToExisting(t *topology.Topology, dps []paths.DemandPaths, res *metaopt.Result, unit float64) (map[int]int, error) {
	added, err := solveExistingAugment(t, dps, res, unit, c.augmentParams())
	if err != nil {
		return nil, err
	}
	for e, n := range added {
		lag := t.LAG(e)
		lag.Links = append(lag.Links, newLinks(n, unit, c.NewCapacityCanFail, lag.Links)...)
	}
	return added, nil
}

// newLinks returns n member links of capacity unit. When they can fail,
// they take the average failure probability of the links like them
// (§8.6); otherwise, or when that average is outside (0,1), a negligible
// one.
func newLinks(n int, unit float64, canFail bool, like []topology.Link) []topology.Link {
	prob := negligibleFailProb
	if canFail && len(like) > 0 {
		var s float64
		for _, ln := range like {
			s += ln.FailProb
		}
		if p := s / float64(len(like)); p > 0 && p < 1 {
			prob = p
		}
	}
	links := make([]topology.Link, n)
	for i := range links {
		links[i] = topology.Link{Capacity: unit, FailProb: prob}
	}
	return links
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
		nAdd[e] = m.NewVar(0, maxLinks, milp.Integer)
		obj.Add(1, nAdd[e])
	}

	byLAG := make([][]milp.Var, t.NumLAGs())
	for k, dp := range dps {
		row := milp.NewExpr()
		for j := range dp.Paths {
			if !active[k][j] {
				continue
			}
			f := m.ContinuousVar(0, res.Healthy.PerDemand[k])
			row.Add(1, f)
			for _, e := range dp.Paths[j].LAGs {
				byLAG[e] = append(byLAG[e], f)
			}
		}
		// Failed-with-augment network must match the healthy flow (§7).
		m.Add(row, milp.GE, res.Healthy.PerDemand[k])
	}
	for e, vars := range byLAG {
		if len(vars) == 0 {
			continue
		}
		row := milp.NewExpr(milp.T(-unit, nAdd[e]))
		for _, f := range vars {
			row.Add(1, f)
		}
		m.Add(row, milp.LE, scenCaps[e])
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
