package augment

import (
	"fmt"
	"math"

	"raha/internal/metaopt"
	"raha/internal/milp"
	"raha/internal/paths"
	"raha/internal/topology"
)

// NewLAG describes a LAG added between two nodes.
type NewLAG struct {
	A, B  topology.Node
	Links int
}

// NewLAGStep records one iteration of the new-LAG augment loop.
type NewLAGStep struct {
	Degradation float64
	Added       []NewLAG
	LinksAdded  int
}

// NewLAGResult reports a full new-LAG augmentation run.
type NewLAGResult struct {
	Topo             *topology.Topology
	Steps            []NewLAGStep
	FinalDegradation float64
	TotalLinksAdded  int
	Converged        bool
}

// AugmentNewLAGs runs the Appendix C loop: each iteration analyzes the
// network, then solves an edge-form multi-commodity flow restricted to each
// demand's original-path LAGs plus the operator's candidate new LAGs, with
// distance-based weights, and materializes the chosen candidates. Paths are
// recomputed between iterations so new LAGs join the tunnel sets.
func AugmentNewLAGs(cfg Config, candidates [][2]topology.Node) (*NewLAGResult, error) {
	if len(candidates) == 0 {
		return nil, fmt.Errorf("augment: no candidate LAGs supplied")
	}
	t := cfg.Topo.Clone()
	unit := cfg.linkCapacity(t)
	out := &NewLAGResult{Topo: t}

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

		open := openCandidates(t, candidates)
		if len(open) == 0 {
			out.FinalDegradation = res.Degradation
			return out, fmt.Errorf("augment: degradation %g remains but every candidate LAG is already placed", res.Degradation)
		}
		added, err := solveNewLAGAugment(t, dps, res, open, unit, cfg.augmentParams())
		if err != nil {
			return nil, err
		}
		st := NewLAGStep{Degradation: res.Degradation}
		prob := negligibleFailProb
		if cfg.NewCapacityCanFail {
			prob = meanFailProb(t)
		}
		for qi, n := range added {
			if n == 0 {
				continue
			}
			links := make([]topology.Link, n)
			for i := range links {
				links[i] = topology.Link{Capacity: unit, FailProb: prob}
			}
			if _, err := t.AddLAG(open[qi][0], open[qi][1], links); err != nil {
				return nil, err
			}
			st.Added = append(st.Added, NewLAG{A: open[qi][0], B: open[qi][1], Links: n})
			st.LinksAdded += n
		}
		out.TotalLinksAdded += st.LinksAdded
		out.Steps = append(out.Steps, st)
		out.FinalDegradation = res.Degradation
		if st.LinksAdded == 0 {
			return out, fmt.Errorf("augment: no candidate helps the degrading scenario (degradation %g)", res.Degradation)
		}
	}
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

func meanFailProb(t *topology.Topology) float64 {
	var s float64
	n := 0
	for _, l := range t.LAGs() {
		for _, ln := range l.Links {
			s += ln.FailProb
			n++
		}
	}
	if n == 0 {
		return negligibleFailProb
	}
	p := s / float64(n)
	if p <= 0 || p >= 1 {
		return negligibleFailProb
	}
	return p
}

// solveNewLAGAugment builds the Appendix C edge-form MILP. Per demand, flow
// may use (a) the LAGs of its configured paths at their scenario capacity
// and (b) any open candidate at capacity n_q·unit. Each demand must match
// its healthy flow; the objective minimizes distance-weighted link counts.
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
	allowed := make([]map[int]bool, nd)
	for k, dp := range dps {
		allowed[k] = make(map[int]bool)
		for _, p := range dp.Paths {
			for _, e := range p.LAGs {
				allowed[k][e] = true
			}
		}
	}

	// Directed flow variables per demand on allowed existing LAGs and on
	// every candidate. fk is the demand's total flow.
	type arc struct{ fwd, rev milp.Var }
	flows := make([]map[int]arc, nd) // existing LAG id → arc
	cand := make([][]arc, nd)        // candidate index → arc
	fk := make([]milp.Var, nd)
	inf := totalDemand + 1
	for k := range dps {
		flows[k] = make(map[int]arc)
		for e := range allowed[k] {
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
			for e, a := range flows[k] {
				l := t.LAG(e)
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
			if a, ok := flows[k][e]; ok {
				row.Add(1, a.fwd)
				row.Add(1, a.rev)
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
