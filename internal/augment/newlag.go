package augment

import (
	"fmt"
	"math"

	"raha/internal/metaopt"
	"raha/internal/milp"
	"raha/internal/paths"
	"raha/internal/topology"
)

// AugmentNewLAGs runs the Appendix C loop: each step solves an edge-form
// multi-commodity flow restricted to each demand's original-path LAGs plus
// the operator's candidate new LAGs that are still absent, with
// distance-based weights, and places the chosen candidates as new LAGs.
//
// The edge form is not the TE the analyzer runs: it relaxes the configured
// tunnels, so it can find nothing to add while they still degrade, and it
// routes only over original-path LAGs and open candidates, so it is
// infeasible when none of them reconnects a cut demand. A step
// whose edge-form MILP is infeasible or places no link takes §7's step
// (AugmentExisting's) instead. Only an exhausted candidate list ends the
// run with an error.
func AugmentNewLAGs(cfg Config, candidates [][2]topology.Node) (*Result, error) {
	if len(candidates) == 0 {
		return nil, fmt.Errorf("augment: no candidate LAGs supplied")
	}
	return run(cfg, func(t *topology.Topology, dps []paths.DemandPaths, res *metaopt.Result, unit float64) (map[int]int, error) {
		open := openCandidates(t, candidates)
		if len(open) == 0 {
			return nil, fmt.Errorf("augment: degradation %g remains but every candidate LAG is already placed", res.Degradation)
		}
		counts, err := solveNewLAGAugment(t, dps, res, open, unit, cfg.augmentParams())
		if err != nil {
			return nil, err
		}
		var like []topology.Link // new LAGs' links fail like the network's average
		for _, l := range t.LAGs() {
			like = append(like, l.Links...)
		}
		added := make(map[int]int)
		for q, n := range counts {
			if n == 0 {
				continue
			}
			id, err := t.AddLAG(open[q][0], open[q][1], newLinks(n, unit, cfg.NewCapacityCanFail, like))
			if err != nil {
				return nil, err
			}
			added[id] = n
		}
		if len(added) == 0 {
			return cfg.addToExisting(t, dps, res, unit)
		}
		return added, nil
	})
}

// openCandidates filters out candidates that already exist as LAGs.
func openCandidates(t *topology.Topology, candidates [][2]topology.Node) [][2]topology.Node {
	var open [][2]topology.Node
	for _, c := range candidates {
		if c[0] != c[1] && t.LAGBetween(c[0], c[1]) < 0 {
			open = append(open, c)
		}
	}
	return open
}

// solveNewLAGAugment builds the Appendix C edge-form MILP. Per demand, flow
// may use (a) the LAGs of its configured paths at their scenario capacity
// and (b) any open candidate at capacity n_q·unit. Each demand must match
// its healthy flow; the objective minimizes distance-weighted link counts.
// An infeasible model returns nil counts: no candidate set can match every
// healthy flow.
func solveNewLAGAugment(t *topology.Topology, dps []paths.DemandPaths, res *metaopt.Result, open [][2]topology.Node, unit float64, params milp.Params) ([]int, error) {
	m := milp.NewModel()
	scenCaps := res.Scenario.Capacities(t)
	nl := t.NumLAGs()
	nq := len(open)
	nd := len(dps)

	// Impacted demands drive candidate weights (Appendix C's second
	// tightening): weight = 1 + min hop distance to an impacted endpoint.
	var impacted []topology.Node
	for k := range dps {
		if res.Failed.PerDemand[k] < res.Healthy.PerDemand[k]-1e-9 {
			impacted = append(impacted, dps[k].Src, dps[k].Dst)
		}
	}
	var impactDist []int
	if len(impacted) > 0 {
		impactDist = bfsHops(t, impacted)
	}
	weightOf := func(q int) float64 {
		if impactDist == nil {
			return 1
		}
		d := impactDist[open[q][0]]
		if impactDist[open[q][1]] < d {
			d = impactDist[open[q][1]]
		}
		return 1 + float64(d)
	}

	// Integer link counts per candidate.
	var totalDemand float64
	for _, v := range res.Healthy.PerDemand {
		totalDemand += v
	}
	maxLinks := math.Ceil(totalDemand/unit) + 1
	nAdd := make([]milp.Var, nq)
	obj := milp.NewExpr()
	for q := range nAdd {
		nAdd[q] = m.NewVar(0, maxLinks, milp.Integer, fmt.Sprintf("n[%d]", q))
		obj.Add(weightOf(q), nAdd[q])
	}

	// Per-demand allowed existing LAGs = the union of its configured paths'
	// LAGs (Appendix C's first tightening).
	allowed := make([][]bool, nd)
	for k, dp := range dps {
		allowed[k] = make([]bool, nl)
		for _, p := range dp.Paths {
			for _, e := range p.LAGs {
				allowed[k][e] = true
			}
		}
	}

	// Directed flow variables per demand on allowed existing LAGs and on
	// every candidate, created in LAG-id order so the model, and the
	// optimum it picks among ties, is the same run to run. fk is the
	// demand's total flow.
	type arc struct{ fwd, rev milp.Var }
	flows := make([][]arc, nd) // existing LAG id → arc, where allowed
	cand := make([][]arc, nd)  // candidate index → arc
	fk := make([]milp.Var, nd)
	inf := totalDemand + 1
	for k := range dps {
		flows[k] = make([]arc, nl)
		for e := range flows[k] {
			if !allowed[k][e] {
				continue
			}
			flows[k][e] = arc{
				fwd: m.ContinuousVar(0, inf, fmt.Sprintf("f[%d][%d]+", k, e)),
				rev: m.ContinuousVar(0, inf, fmt.Sprintf("f[%d][%d]-", k, e)),
			}
		}
		cand[k] = make([]arc, nq)
		for q := 0; q < nq; q++ {
			cand[k][q] = arc{
				fwd: m.ContinuousVar(0, inf, fmt.Sprintf("c[%d][%d]+", k, q)),
				rev: m.ContinuousVar(0, inf, fmt.Sprintf("c[%d][%d]-", k, q)),
			}
		}
		fk[k] = m.ContinuousVar(res.Healthy.PerDemand[k], inf, fmt.Sprintf("fk[%d]", k))
	}

	// Flow conservation at every node, per demand.
	for k, dp := range dps {
		for i := 0; i < t.NumNodes(); i++ {
			node := topology.Node(i)
			row := milp.NewExpr()
			touched := false
			for _, e := range t.Incident(node) {
				if !allowed[k][e] {
					continue
				}
				a, l := flows[k][e], t.LAG(e)
				switch node {
				case l.A:
					row.Add(1, a.fwd)
					row.Add(-1, a.rev)
					touched = true
				case l.B:
					row.Add(-1, a.fwd)
					row.Add(1, a.rev)
					touched = true
				}
			}
			for q := 0; q < nq; q++ {
				a := cand[k][q]
				switch node {
				case open[q][0]:
					row.Add(1, a.fwd)
					row.Add(-1, a.rev)
					touched = true
				case open[q][1]:
					row.Add(-1, a.fwd)
					row.Add(1, a.rev)
					touched = true
				}
			}
			switch node {
			case dp.Src:
				row.Add(-1, fk[k])
				touched = true
			case dp.Dst:
				row.Add(1, fk[k])
				touched = true
			}
			if touched {
				m.Add(row, milp.EQ, 0, fmt.Sprintf("cons[%d][%d]", k, i))
			}
		}
	}

	// Capacities: existing LAGs at scenario capacity, candidates at n_q·unit.
	for e := 0; e < nl; e++ {
		row := milp.NewExpr()
		any := false
		for k := range dps {
			if allowed[k][e] {
				row.Add(1, flows[k][e].fwd)
				row.Add(1, flows[k][e].rev)
				any = true
			}
		}
		if any {
			m.Add(row, milp.LE, scenCaps[e], fmt.Sprintf("cap[%d]", e))
		}
	}
	for q := 0; q < nq; q++ {
		row := milp.NewExpr(milp.T(-unit, nAdd[q]))
		for k := range dps {
			row.Add(1, cand[k][q].fwd)
			row.Add(1, cand[k][q].rev)
		}
		m.Add(row, milp.LE, 0, fmt.Sprintf("candcap[%d]", q))
	}

	m.SetObjective(obj, milp.Minimize)
	sol, err := m.Solve(params)
	if err != nil {
		return nil, err
	}
	if sol.Status == milp.Infeasible {
		return nil, nil
	}
	if sol.Status != milp.Optimal && sol.Status != milp.Feasible {
		return nil, fmt.Errorf("augment: new-LAG MILP %v", sol.Status)
	}
	added := make([]int, nq)
	for q, v := range nAdd {
		added[q] = int(math.Round(sol.X[v]))
	}
	return added, nil
}

// bfsHops returns hop distances from the given seed nodes.
func bfsHops(t *topology.Topology, from []topology.Node) []int {
	dist := make([]int, t.NumNodes())
	for i := range dist {
		dist[i] = 1 << 30
	}
	var queue []topology.Node
	for _, s := range from {
		if dist[s] != 0 {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range t.Incident(u) {
			v := t.LAG(e).Other(u)
			if dist[v] > dist[u]+1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// CandidateLAGs proposes the operator's "viable new edges" input for
// AugmentNewLAGs: up to n absent node pairs, highest degree sum first, then
// every absent demand pair not already proposed. Without a direct candidate
// per demand pair, a demand whose paths the worst scenario cuts may have no
// candidate that reconnects it, and the new-LAG MILP is infeasible by
// construction.
func CandidateLAGs(t *topology.Topology, pairs [][2]topology.Node, n int) [][2]topology.Node {
	type scored struct {
		p [2]topology.Node
		d int
	}
	var all []scored
	for a := 0; a < t.NumNodes(); a++ {
		for b := a + 1; b < t.NumNodes(); b++ {
			na, nb := topology.Node(a), topology.Node(b)
			if t.LAGBetween(na, nb) >= 0 {
				continue
			}
			all = append(all, scored{p: [2]topology.Node{na, nb}, d: len(t.Incident(na)) + len(t.Incident(nb))})
		}
	}
	n = min(n, len(all))
	for i := 0; i < n; i++ {
		best := i
		for j := i + 1; j < len(all); j++ {
			if all[j].d > all[best].d {
				best = j
			}
		}
		all[i], all[best] = all[best], all[i]
	}
	out := make([][2]topology.Node, 0, n)
	seen := make(map[[2]topology.Node]bool)
	add := func(p [2]topology.Node) {
		out = append(out, p)
		seen[p], seen[[2]topology.Node{p[1], p[0]}] = true, true
	}
	for _, c := range all[:n] {
		add(c.p)
	}
	for _, p := range pairs {
		if p[0] != p[1] && !seen[p] && t.LAGBetween(p[0], p[1]) < 0 {
			add(p)
		}
	}
	return out
}
