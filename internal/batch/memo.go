package batch

import (
	"context"
	"math"
	"sort"

	"raha/internal/demand"
	"raha/internal/metaopt"
	"raha/internal/milp"
)

// topoMemo is what one topology's cells share: the tunnels per pair count,
// the gravity matrices over them, and every phase analysis its grid has
// finished. DESIGN.md §2.10 has the monotonicity argument the phase memo
// rests on.
type topoMemo struct {
	name    string // the topology's, for trace events
	tunnels map[int]tunnels
	gravity map[gravityKey]demand.Matrix
	phases  []phaseRecord
}

// gravityKey names one demand.Gravity matrix of a topology: its pair count
// (the tunnels' pair set), scale and seed.
type gravityKey struct {
	pairs int
	scale float64
	seed  int64
}

func newTopoMemo(name string) *topoMemo {
	return &topoMemo{name: name, tunnels: make(map[int]tunnels), gravity: make(map[gravityKey]demand.Matrix)}
}

// phaseRecord is one finished phase analysis: the cell that asked, its
// question and the answer.
type phaseRecord struct {
	cell Cell
	q    metaopt.Config
	res  *metaopt.Result
}

// solve answers one phase's question for cell (the solve alert.RunWith
// takes) and records the answer. A question an earlier cell asked in
// identical form and proved, Optimal or Infeasible, is answered with that
// result, returned with its record. Otherwise the analysis runs, seeded by
// the records of looser questions of the same shape: the least finite dual
// bound among them becomes the solve's Solver.Bound, and the most degrading
// of their scenarios that q's own budget rows admit becomes its warm start.
func (m *topoMemo) solve(ctx context.Context, cell Cell, q metaopt.Config) (*metaopt.Result, *phaseRecord, error) {
	bound := math.Inf(1)
	var seeds []*metaopt.Result
	for i := range m.phases {
		r := &m.phases[i]
		if !sameShape(&r.q, &q) || !looser(&r.q, &q) {
			continue
		}
		if sameBudget(&r.q, &q) && (r.res.Status == milp.Optimal || r.res.Status == milp.Infeasible) {
			return r.res, r, nil
		}
		if b := r.res.Bound; b < bound && !math.IsInf(b, -1) { // NaN fails the comparison
			bound = b
		}
		if r.res.Scenario != nil {
			seeds = append(seeds, r.res)
		}
	}
	if !math.IsInf(bound, 1) {
		q.Solver.Bound = &bound
	}
	if len(seeds) > 0 {
		// A budget that fails to build fails the analysis below too.
		if budget, err := q.FailureBudget(); err == nil {
			var warm *metaopt.Result
			for _, s := range seeds {
				if (warm == nil || s.Degradation > warm.Degradation) && budget.Admits(s.Scenario) {
					warm = s
				}
			}
			if warm != nil {
				q.WarmStartScenario, q.WarmStartDemands = warm.Scenario, warm.Demands
			}
		}
	}
	res, err := metaopt.AnalyzeContext(ctx, q)
	if err != nil {
		return nil, nil, err
	}
	m.phases = append(m.phases, phaseRecord{cell: cell, q: q, res: res})
	return res, nil, nil
}

// sameShape reports whether a and b ask the same question up to the failure
// budget: the same topology, tunnels, demand envelope, quantization,
// connectivity rule, objective and mode. A topology's cells share one tunnel
// slice per pair count, so the slices are compared by identity.
func sameShape(a, b *metaopt.Config) bool {
	return a.Topo == b.Topo &&
		len(a.Demands) == len(b.Demands) && (len(a.Demands) == 0 || &a.Demands[0] == &b.Demands[0]) &&
		sameFloats(a.Envelope.Lo, b.Envelope.Lo) && sameFloats(a.Envelope.Hi, b.Envelope.Hi) &&
		a.QuantBits == b.QuantBits && a.ConnectivityEnforced == b.ConnectivityEnforced &&
		a.Objective == b.Objective && a.Mode == b.Mode
}

// sameFloats compares two vectors bit for bit.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// looser reports whether every scenario b's budget admits is admitted by a's
// too, for two questions of the same shape. A lower threshold relaxes the
// probability row. No count row (k = 0) relaxes it further, because only
// then are the unused links more likely down than up assumed failed, which
// raises every scenario's probability. A larger k relaxes the count row.
func looser(a, b *metaopt.Config) bool {
	return (a.MaxFailures == 0 || b.MaxFailures > 0 && a.MaxFailures >= b.MaxFailures) &&
		a.ProbThreshold <= b.ProbThreshold
}

// sameBudget reports whether a and b carry the same failure budget.
func sameBudget(a, b *metaopt.Config) bool {
	return a.MaxFailures == b.MaxFailures && math.Float64bits(a.ProbThreshold) == math.Float64bits(b.ProbThreshold)
}

// solveOrder returns the indices of cells, loosest budget first: no count
// row before any, larger k before smaller, then lower thresholds first. A
// cell looser than another sorts before it, so every looser neighbour has
// been solved when a cell starts. The sort is stable: cells of one budget
// keep their grid order.
func solveOrder(cells []Cell) []int {
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := cells[order[i]], cells[order[j]]
		if a.MaxFailures != b.MaxFailures {
			return a.MaxFailures == 0 || b.MaxFailures != 0 && a.MaxFailures > b.MaxFailures
		}
		return a.Threshold < b.Threshold
	})
	return order
}
