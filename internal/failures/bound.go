package failures

import (
	"context"
	"fmt"
	"math"

	"raha/internal/milp"
	"raha/internal/paths"
	"raha/internal/topology"
)

// usedLAGs marks the LAGs that appear on any configured path.
func usedLAGs(t *topology.Topology, dps []paths.DemandPaths) []bool {
	used := make([]bool, t.NumLAGs())
	for _, dp := range dps {
		for _, p := range dp.Paths {
			for _, e := range p.LAGs {
				used[e] = true
			}
		}
	}
	return used
}

// Budget is an analysis's §5.1 failure budget as numbers, over the member
// links of the used LAGs (index [e][l]; nil for a LAG no path uses), with
// each link's lost-capacity weight. The model's probability row
// (AddProbabilityThreshold), the budget knapsack (BoundModel) and the
// per-node bound (Encoding.Knapsack) are all read from what NewBudget and
// probabilityBudget produce, so the three cannot drift apart.
type Budget struct {
	// Weight[e][l] = min(c_le, Σ{hi[k] : LAG e lies on a primary path of
	// demand k}), w_le of the lost-capacity bound (BoundModel).
	Weight [][]float64
	// Coef and RHS are the probability row Σ Coef[e][l]·u_le ≥ RHS; Coef is
	// nil without a threshold.
	Coef [][]float64
	RHS  float64
	// K caps the failed links, Σ u_le ≤ K; 0 means no count row.
	K int

	topo          *topology.Topology
	assumedFailed [][2]int // unused links the probability row accounts as failed, (LAG, link)
	base          float64  // Σ log of every link's probability-row state at u = 0: RHS = log(threshold) − base
}

// probabilityBudget lowers threshold to its log-linear row, filling Coef,
// RHS and assumedFailed of a Budget. See AddProbabilityThreshold for the
// treatment of unused links.
func probabilityBudget(t *topology.Topology, used []bool, threshold float64, assumeUnusedWorst bool) (*Budget, error) {
	if threshold <= 0 || threshold >= 1 {
		return nil, fmt.Errorf("failures: probability threshold %g outside (0,1)", threshold)
	}
	b := &Budget{Coef: make([][]float64, t.NumLAGs())}
	base := 0.0
	for e := 0; e < t.NumLAGs(); e++ {
		links := t.LAG(e).Links
		if used[e] {
			b.Coef[e] = make([]float64, len(links))
		}
		for l, ln := range links {
			p := ln.FailProb
			if p <= 0 || p >= 1 {
				return nil, fmt.Errorf("failures: LAG %d link %d has failure probability %g outside (0,1)", e, l, p)
			}
			if !used[e] {
				if assumeUnusedWorst && p > 0.5 {
					base += math.Log(p)
					b.assumedFailed = append(b.assumedFailed, [2]int{e, l})
				} else {
					base += math.Log(1 - p)
				}
				continue
			}
			b.Coef[e][l] = math.Log(p) - math.Log(1-p)
			base += math.Log(1 - p)
		}
	}
	b.base = base
	b.RHS = math.Log(threshold) - base
	return b, nil
}

// Limit returns b under another threshold and failure count: the
// probability row's right-hand side and the count row's bound computed as
// NewBudget computes them, with b's weights, coefficients and unused-link
// accounting, which they share. b must carry a probability row exactly when
// threshold > 0 (a question of b's shape). It is the only difference between
// the budgets of two such questions.
func (b *Budget) Limit(threshold float64, maxFailures int) (*Budget, error) {
	if (b.Coef != nil) != (threshold > 0) {
		return nil, fmt.Errorf("failures: threshold %g does not match the budget's probability row", threshold)
	}
	l := *b
	if b.Coef != nil {
		if threshold >= 1 {
			return nil, fmt.Errorf("failures: probability threshold %g outside (0,1)", threshold)
		}
		l.RHS = math.Log(threshold) - b.base
	}
	l.K = max(maxFailures, 0)
	return &l, nil
}

// NewBudget builds the failure budget of a total-flow analysis over dps with
// demands up to hi: the probability row of threshold (assumeUnusedWorst as in
// AddProbabilityThreshold; threshold ≤ 0 leaves it out), the count row of
// maxFailures (≤ 0 leaves it out) and the lost-capacity weights.
func NewBudget(t *topology.Topology, dps []paths.DemandPaths, hi []float64, threshold float64, assumeUnusedWorst bool, maxFailures int) (*Budget, error) {
	used := usedLAGs(t, dps)
	b := &Budget{}
	if threshold > 0 {
		var err error
		if b, err = probabilityBudget(t, used, threshold, assumeUnusedWorst); err != nil {
			return nil, err
		}
	}
	b.topo = t
	b.K = max(maxFailures, 0)

	// load[e] = Σ hi[k] over the demands with a primary path across LAG e,
	// each demand once (counted[e] remembers the last demand added).
	load := make([]float64, t.NumLAGs())
	counted := make([]int, t.NumLAGs())
	for k, dp := range dps {
		for j := 0; j < dp.Primary; j++ {
			for _, e := range dp.Paths[j].LAGs {
				if counted[e] != k+1 {
					counted[e] = k + 1
					load[e] += hi[k]
				}
			}
		}
	}
	b.Weight = make([][]float64, t.NumLAGs())
	for e := range b.Weight {
		if !used[e] {
			continue
		}
		links := t.LAG(e).Links
		b.Weight[e] = make([]float64, len(links))
		for l, ln := range links {
			b.Weight[e][l] = math.Min(ln.Capacity, load[e])
		}
	}
	return b, nil
}

// Admits reports whether s satisfies b's rows as the model carries them: the
// probability row and the count row, read over the member links of the used
// LAGs only. Unused links are left out on purpose. A scenario found under a
// budget without a count row reports the unused links that budget assumed
// failed, and those are not variables of any model, so they count against
// neither row here. The probability row allows a 1e-9 relative slack for
// the rounding of its sum.
func (b *Budget) Admits(s *Scenario) bool {
	failed, logp := 0, 0.0
	for e, ws := range b.Weight {
		for l := range ws {
			if !s.LinkDown[e][l] {
				continue
			}
			failed++
			if b.Coef != nil {
				logp += b.Coef[e][l]
			}
		}
	}
	return (b.K == 0 || failed <= b.K) && (b.Coef == nil || logp >= b.RHS-1e-9*(1+math.Abs(b.RHS)))
}

// knapsackNodeCap bounds the branch and bound on the budget knapsack. The
// knapsacks of the paper's topologies take tens to a few hundred nodes (two
// rows, microseconds per node); one that runs into the cap still yields a
// sound bound, only a looser one.
const knapsackNodeCap = 4096

// BudgetBound is what the failure budget alone says about the total-flow
// degradation (see BoundModel).
type BudgetBound struct {
	// Value bounds the degradation of every demand in the envelope under
	// every scenario inside the budget, in flow units. +Inf when the knapsack
	// search was stopped before it proved anything.
	Value float64
	// Infeasible reports that no scenario satisfies the budget rows at all;
	// a model that carries them (and more) is infeasible too.
	Infeasible bool
	// AllUp is the scenario with no used link failed — plus the unused links
	// the probability accounting assumes failed, as ScenarioFromSolution
	// would report them — when that scenario is itself inside the budget,
	// nil otherwise.
	AllUp *Scenario

	Links int // binaries in the knapsack
	Nodes int // branch-and-bound nodes its solve explored
}

// BoundModel is the lost-capacity bound's knapsack for the budgets of one
// shape, built once: its binaries, weights and coefficients are the shape's,
// and each budget of the shape (Budget.Limit) moves only its two right-hand
// sides.
//
// The lost-capacity bound bounds the total-flow degradation from the failure
// budget alone. For every demand d with d_k ≤ hi[k] and every scenario u,
//
//	healthy(d) − failed(d, u) ≤ Σ_le w_le·u_le,
//	w_le = min(c_le, Σ{hi[k] : LAG e lies on a primary path of demand k}):
//
// take the healthy optimum (which routes on primaries only) and, LAG by LAG,
// reduce the flows crossing it until they fit what the scenario left — at
// most the capacity removed, and at most the load the LAG can carry at all.
// Primaries stay active in the failed network, so what remains is a feasible
// failed flow, also under naive fail-over, whose gates cap each primary at
// exactly the healthy flow it started from (DESIGN.md §2.1 has the proof).
//
// The bound is the optimum of that weight over the budget rows alone — the
// rows the model carries — a one- or two-row binary knapsack with no flows,
// no duals and no products, solved exactly by a serial, untraced branch and
// bound under a fixed node cap. Its LP relaxation would be sound too, but a
// fractional failure always loses some capacity, so it never proves the zero
// that closes an analysis outright; branch and bound uses that relaxation
// box by box instead (Encoding.Knapsack).
type BoundModel struct {
	m                 *milp.Model
	probRow, countRow int // −1 when the knapsack has no such row
}

// NewBoundModel builds the knapsack of b's shape.
func NewBoundModel(b *Budget) *BoundModel {
	k := &BoundModel{m: budgetKnapsack(b), probRow: -1, countRow: -1}
	if b.Coef != nil {
		k.probRow = 0
	}
	if b.K > 0 {
		k.countRow = k.m.NumConstraints() - 1
	}
	return k
}

// Bound is the lost-capacity bound of b, a budget of the model's shape: with
// a probability row and a count row exactly when the model has them.
func (k *BoundModel) Bound(ctx context.Context, b *Budget) (*BudgetBound, error) {
	if (k.probRow >= 0) != (b.Coef != nil) || (k.countRow >= 0) != (b.K > 0) {
		return nil, fmt.Errorf("failures: budget rows do not match the knapsack's")
	}
	m := k.m
	if k.probRow >= 0 {
		m.SetRHS(k.probRow, b.RHS)
	}
	if k.countRow >= 0 {
		m.SetRHS(k.countRow, float64(b.K))
	}
	res, err := m.SolveContext(ctx, milp.Params{Workers: 1, NodeLimit: knapsackNodeCap})
	if err != nil {
		return nil, fmt.Errorf("failures: budget knapsack: %w", err)
	}
	bb := &BudgetBound{Links: m.NumVars(), Nodes: res.Nodes}
	switch res.Status {
	case milp.Infeasible:
		bb.Infeasible = true
		return bb, nil
	case milp.Optimal:
		bb.Value = res.Objective
	default:
		bb.Value = res.Bound // +Inf until the root has solved
	}
	// All used links up: the probability row reads 0 ≥ RHS, the cardinality
	// row 0 ≤ k.
	if b.RHS <= 0 {
		bb.AllUp = NewScenario(b.topo)
		for _, el := range b.assumedFailed {
			bb.AllUp.LinkDown[el[0]][el[1]] = true
		}
	}
	return bb, nil
}

// budgetKnapsack builds BoundModel's knapsack: one binary per member link
// of every used LAG, in Encode's order, under b's rows.
func budgetKnapsack(b *Budget) *milp.Model {
	m := milp.NewModel()
	obj, prob, count := milp.NewExpr(), milp.NewExpr(), milp.NewExpr()
	for e, ws := range b.Weight {
		for l, w := range ws {
			u := m.BinaryVar()
			obj.Add(w, u)
			count.Add(1, u)
			if b.Coef != nil {
				prob.Add(b.Coef[e][l], u)
			}
		}
	}
	if b.Coef != nil {
		m.Add(prob, milp.GE, b.RHS)
	}
	if b.K > 0 {
		m.Add(count, milp.LE, float64(b.K))
	}
	m.SetObjective(obj, milp.Maximize)
	return m
}
