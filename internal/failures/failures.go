// Package failures models networks under failure the way Raha's §5 does.
//
// It has two halves that must agree with each other:
//
//   - Scenario: a concrete assignment of down links, with the fail-over
//     semantics of the paper's production WAN (a LAG is down when all its
//     member links are down; a path is down when any of its LAGs is down;
//     the r-th backup path activates only when at least r higher-priority
//     paths are down). This half drives simulation, verification, and the
//     brute-force references in tests.
//
//   - Encoding: the same semantics expressed as outer-problem MILP
//     constraints — Eq. 3 (LAG down ⇔ all links down), Eq. 4 (path down),
//     Eq. 5's fail-over indicator, the §5.1 probability-threshold and
//     max-k-failures constraints, and connectivity enforcement (CE).
//
// The agreement between the two halves is property-tested.
package failures

import (
	"fmt"
	"math"

	"raha/internal/milp"
	"raha/internal/paths"
	"raha/internal/topology"
)

// Scenario is a concrete failure assignment: LinkDown[e][l] marks member
// link l of LAG e as failed.
type Scenario struct {
	LinkDown [][]bool
}

// NewScenario returns an all-up scenario shaped for the topology.
func NewScenario(t *topology.Topology) *Scenario {
	s := &Scenario{LinkDown: make([][]bool, t.NumLAGs())}
	for e := 0; e < t.NumLAGs(); e++ {
		s.LinkDown[e] = make([]bool, len(t.LAG(e).Links))
	}
	return s
}

// FailLAG marks every member link of LAG e down.
func (s *Scenario) FailLAG(e int) {
	for l := range s.LinkDown[e] {
		s.LinkDown[e][l] = true
	}
}

// NumFailedLinks counts failed member links.
func (s *Scenario) NumFailedLinks() int {
	n := 0
	for _, ls := range s.LinkDown {
		for _, d := range ls {
			if d {
				n++
			}
		}
	}
	return n
}

// LAGCapacity is the LAG's surviving capacity: Σ c_le·(1−u_le).
func (s *Scenario) LAGCapacity(t *topology.Topology, e int) float64 {
	var c float64
	for l, ln := range t.LAG(e).Links {
		if !s.LinkDown[e][l] {
			c += ln.Capacity
		}
	}
	return c
}

// Capacities returns the surviving capacity of every LAG.
func (s *Scenario) Capacities(t *topology.Topology) []float64 {
	caps := make([]float64, t.NumLAGs())
	for e := range caps {
		caps[e] = s.LAGCapacity(t, e)
	}
	return caps
}

// LAGDown reports whether every member link of LAG e is down (Eq. 3).
func (s *Scenario) LAGDown(e int) bool {
	for _, d := range s.LinkDown[e] {
		if !d {
			return false
		}
	}
	return true
}

// PathDown reports whether any LAG of the path is down (Eq. 4).
func (s *Scenario) PathDown(p paths.Path) bool {
	for _, e := range p.LAGs {
		if s.LAGDown(e) {
			return true
		}
	}
	return false
}

// ActivePaths applies the fail-over semantics of Eq. 5: primary paths are
// always active; backup j (0-based position in the ordered path list)
// activates iff at least j−primary+1 of the higher-priority paths are down.
func (s *Scenario) ActivePaths(dps []paths.DemandPaths) [][]bool {
	act := make([][]bool, len(dps))
	for k, dp := range dps {
		act[k] = make([]bool, len(dp.Paths))
		downSoFar := 0
		for j, p := range dp.Paths {
			if j < dp.Primary {
				act[k][j] = true
			} else {
				act[k][j] = downSoFar >= j-dp.Primary+1
			}
			if s.PathDown(p) {
				downSoFar++
			}
		}
	}
	return act
}

// LogProb is the scenario's log-probability under independent link failures.
func (s *Scenario) LogProb(t *topology.Topology) float64 {
	var lp float64
	for e := 0; e < t.NumLAGs(); e++ {
		for l, ln := range t.LAG(e).Links {
			if s.LinkDown[e][l] {
				lp += math.Log(ln.FailProb)
			} else {
				lp += math.Log(1 - ln.FailProb)
			}
		}
	}
	return lp
}

// FailedLinkNames lists failed links as "node--node[/idx]" strings for
// reports.
func (s *Scenario) FailedLinkNames(t *topology.Topology) []string {
	var out []string
	for e := 0; e < t.NumLAGs(); e++ {
		lag := t.LAG(e)
		for l := range lag.Links {
			if s.LinkDown[e][l] {
				name := fmt.Sprintf("%s--%s", t.Name(lag.A), t.Name(lag.B))
				if len(lag.Links) > 1 {
					name = fmt.Sprintf("%s/%d", name, l)
				}
				out = append(out, name)
			}
		}
	}
	return out
}

// Encoding holds the outer-problem variables of the failure model.
//
// LAGs that appear on no configured path are pruned: no flow can ever
// traverse them, so their failure state is irrelevant to both networks and
// they get no variables (Used[e] == false, LinkDown[e] == nil). Only the
// §5.1 probability budget sees them — AddProbabilityThreshold accounts for
// them analytically and exactly.
type Encoding struct {
	topo *topology.Topology
	dps  []paths.DemandPaths

	Used     []bool       // whether LAG e appears on any path
	LinkDown [][]milp.Var // u_le per LAG per member link (nil when unused)
	LAGDown  []milp.Var   // u_e (undefined when unused)
	PathDown [][]milp.Var // u_kp per demand per path
	// Active[k][j] is the Eq. 5 fail-over indicator: nil for primary paths
	// (always active).
	Active [][]*milp.Var

	// assumedFailed lists unused links the probability accounting treats as
	// failed (down-probability > ½ with no failure-count budget); they are
	// reported as failed in ScenarioFromSolution for faithfulness.
	assumedFailed [][2]int
}

// Encode adds the failure model of §5 to the MILP: link/LAG/path down
// binaries with Eq. 3 and Eq. 4 coupling, and Eq. 5 fail-over indicators
// for backup paths.
func Encode(m *milp.Model, t *topology.Topology, dps []paths.DemandPaths) *Encoding {
	enc := &Encoding{
		topo:     t,
		dps:      dps,
		Used:     usedLAGs(t, dps),
		LinkDown: make([][]milp.Var, t.NumLAGs()),
		LAGDown:  make([]milp.Var, t.NumLAGs()),
		PathDown: make([][]milp.Var, len(dps)),
		Active:   make([][]*milp.Var, len(dps)),
	}
	for e := 0; e < t.NumLAGs(); e++ {
		if !enc.Used[e] {
			continue
		}
		lag := t.LAG(e)
		enc.LinkDown[e] = make([]milp.Var, len(lag.Links))
		for l := range lag.Links {
			enc.LinkDown[e][l] = m.BinaryVar(fmt.Sprintf("u_link[%d][%d]", e, l))
		}
		enc.LAGDown[e] = m.BinaryVar(fmt.Sprintf("u_lag[%d]", e))
		// Eq. 3: N_e·u_e + aux = Σ_l u_le with 0 ≤ aux ≤ N_e − 1 forces
		// u_e = 1 exactly when all member links are down.
		ne := float64(len(lag.Links))
		aux := m.ContinuousVar(0, ne-1, fmt.Sprintf("aux_lag[%d]", e))
		row := milp.NewExpr(milp.T(ne, enc.LAGDown[e]), milp.T(1, aux))
		for l := range lag.Links {
			row.Add(-1, enc.LinkDown[e][l])
		}
		m.Add(row, milp.EQ, 0, fmt.Sprintf("eq3[%d]", e))
	}

	for k, dp := range dps {
		enc.PathDown[k] = make([]milp.Var, len(dp.Paths))
		enc.Active[k] = make([]*milp.Var, len(dp.Paths))
		for j, p := range dp.Paths {
			u := m.BinaryVar(fmt.Sprintf("u_path[%d][%d]", k, j))
			enc.PathDown[k][j] = u
			// Eq. 4 plus its tightening: u_kp = 1 ⇔ some LAG on the path
			// is down.
			nkp := float64(len(p.LAGs))
			lower := milp.NewExpr(milp.T(nkp, u))
			upper := milp.NewExpr(milp.T(1, u))
			for _, e := range p.LAGs {
				lower.Add(-1, enc.LAGDown[e])
				upper.Add(-1, enc.LAGDown[e])
			}
			m.Add(lower, milp.GE, 0, fmt.Sprintf("eq4lo[%d][%d]", k, j))
			m.Add(upper, milp.LE, 0, fmt.Sprintf("eq4hi[%d][%d]", k, j))
		}
		// Eq. 5 indicators for backups: active ⇔ Σ_{i<j} u_ki ≥ j−primary+1.
		for j := dp.Primary; j < len(dp.Paths); j++ {
			sum := milp.NewExpr()
			for i := 0; i < j; i++ {
				sum.Add(1, enc.PathDown[k][i])
			}
			z := m.IndicatorGE(sum, float64(j-dp.Primary+1), 1, fmt.Sprintf("active[%d][%d]", k, j))
			enc.Active[k][j] = &z
		}
	}
	return enc
}

// AddProbabilityThreshold adds the §5.1 probability constraint in its
// log-linear form: Σ u·log π + Σ (1−u)·log(1−π) ≥ log T.
//
// Unused (pruned) links enter the budget analytically: when
// assumeUnusedWorst is true (no failure-count budget in force), an unused
// link with down-probability > ½ is taken as failed — its most probable
// state, which the adversary gets for free — and is reported as failed by
// ScenarioFromSolution; otherwise unused links are taken as up. Both
// treatments are exact for the optimization because no flow can traverse an
// unused LAG.
func (enc *Encoding) AddProbabilityThreshold(m *milp.Model, threshold float64, assumeUnusedWorst bool) error {
	b, err := probabilityBudget(enc.topo, enc.Used, threshold, assumeUnusedWorst)
	if err != nil {
		return err
	}
	enc.assumedFailed = b.assumedFailed
	expr := milp.NewExpr()
	for e := range enc.LinkDown {
		for l, v := range enc.LinkDown[e] {
			expr.Add(b.Coef[e][l], v)
		}
	}
	m.Add(expr, milp.GE, b.RHS, "probability-threshold")
	return nil
}

// Knapsack hands b, a budget of enc's topology and paths, to branch and
// bound as its per-node bound over enc's link binaries
// (milp.Params.Knapsack).
func (enc *Encoding) Knapsack(b *Budget) *milp.Knapsack {
	k := &milp.Knapsack{RHS: b.RHS, Count: b.K}
	for e, ws := range b.Weight {
		for l, w := range ws {
			k.Vars = append(k.Vars, enc.LinkDown[e][l])
			k.Weight = append(k.Weight, w)
			if b.Coef != nil {
				k.Coef = append(k.Coef, b.Coef[e][l])
			}
		}
	}
	return k
}

// AddMaxFailures caps the total number of failed links at k (§5.1, the
// prior-work baseline Raha compares against). Pruned links count as up —
// failing a LAG no path uses never helps the adversary.
func (enc *Encoding) AddMaxFailures(m *milp.Model, k int) {
	expr := milp.NewExpr()
	for e := range enc.LinkDown {
		for _, v := range enc.LinkDown[e] {
			expr.Add(1, v)
		}
	}
	m.Add(expr, milp.LE, float64(k), "max-failures")
}

// AddConnectivityEnforced adds the §5.1 CE constraint: for every demand, at
// least one path stays up. Demands whose endpoints are §9 virtual gateway
// nodes are exempt (the paper enforces CE on non-virtual nodes only).
func (enc *Encoding) AddConnectivityEnforced(m *milp.Model) {
	for k, dp := range enc.dps {
		if enc.topo.IsVirtual(dp.Src) || enc.topo.IsVirtual(dp.Dst) {
			continue
		}
		expr := milp.NewExpr()
		for _, u := range enc.PathDown[k] {
			expr.Add(1, u)
		}
		m.Add(expr, milp.LE, float64(len(enc.PathDown[k])-1), fmt.Sprintf("ce[%d]", k))
	}
}

// ScenarioFromSolution reads the link binaries out of a MILP solution,
// including any unused links the probability accounting assumed failed.
func (enc *Encoding) ScenarioFromSolution(x []float64) *Scenario {
	s := NewScenario(enc.topo)
	for e := range enc.LinkDown {
		for l, v := range enc.LinkDown[e] {
			s.LinkDown[e][l] = x[v] > 0.5
		}
	}
	for _, el := range enc.assumedFailed {
		s.LinkDown[el[0]][el[1]] = true
	}
	return s
}
