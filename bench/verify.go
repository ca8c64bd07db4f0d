package main

import (
	"fmt"
	"math"

	"raha"
	"raha/internal/te"
)

// oracle re-simulates one analysis result without going through metaopt or
// milp: it solves the healthy and the failed network as plain TE problems
// at the returned demands and compares. It shares the lp core with the
// solver (see README, "What the oracle cannot see").
type oracle struct {
	top       *raha.Topology
	dps       []raha.DemandPaths
	env       raha.Envelope
	threshold float64
}

const oracleTol = 1e-6

// check returns nil when res is a sound answer to the analysis the oracle
// describes. The two TE solves are recorded as te.resim spans on rec.
func (o oracle) check(res *raha.Result, rec *recorder) error {
	if res == nil || res.Scenario == nil {
		return fmt.Errorf("no scenario returned (status %v)", statusOf(res))
	}
	if len(res.Demands) != len(o.dps) {
		return fmt.Errorf("%d demands returned for %d pairs", len(res.Demands), len(o.dps))
	}
	for k, d := range res.Demands {
		tol := oracleTol * (1 + math.Abs(o.env.Hi[k]))
		if math.IsNaN(d) || d < o.env.Lo[k]-tol || d > o.env.Hi[k]+tol {
			return fmt.Errorf("demand %d = %g outside its envelope [%g, %g]", k, d, o.env.Lo[k], o.env.Hi[k])
		}
	}
	if got := len(res.Scenario.LinkDown); got != o.top.NumLAGs() {
		return fmt.Errorf("scenario covers %d LAGs, topology has %d", got, o.top.NumLAGs())
	}
	if lp, floor := res.Scenario.LogProb(o.top), math.Log(o.threshold); lp < floor-1e-9 {
		return fmt.Errorf("scenario log-probability %g below the threshold's %g", lp, floor)
	}

	sp := rec.begin("te.resim")
	healthy, err := te.MaxTotalFlow(o.top, o.dps, res.Demands, te.FullCapacities(o.top), te.HealthyActive(o.dps))
	var failed *te.Result
	if err == nil {
		failed, err = te.MaxTotalFlow(o.top, o.dps, res.Demands, res.Scenario.Capacities(o.top), res.Scenario.ActivePaths(o.dps))
	}
	rec.end(sp)
	if err != nil {
		return fmt.Errorf("re-simulation: %w", err)
	}
	if !healthy.Feasible || !failed.Feasible {
		return fmt.Errorf("re-simulation infeasible (healthy %v, failed %v)", healthy.Feasible, failed.Feasible)
	}
	tol := oracleTol * math.Max(1, math.Abs(res.Degradation))
	if resim := healthy.Objective - failed.Objective; math.Abs(resim-res.Degradation) > tol {
		return fmt.Errorf("re-simulated degradation %g, result claims %g", resim, res.Degradation)
	}
	if math.IsNaN(res.Bound) || res.Bound < res.Degradation-tol {
		return fmt.Errorf("dual bound %g below the verified degradation %g", res.Bound, res.Degradation)
	}
	return nil
}

func statusOf(res *raha.Result) string {
	if res == nil {
		return "nil result"
	}
	return res.Status.String()
}
