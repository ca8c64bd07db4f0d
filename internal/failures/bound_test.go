package failures

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"raha/internal/milp"
	"raha/internal/paths"
	"raha/internal/topology"
)

// rowByName returns the named row of m as variable name → coefficient.
func rowByName(t *testing.T, m *milp.Model, name string) (coef map[string]float64, rel milp.Rel, rhs float64) {
	t.Helper()
	for i := 0; i < m.NumConstraints(); i++ {
		expr, rel, rhs, n := m.ConstraintAt(i)
		if n != name {
			continue
		}
		coef = make(map[string]float64)
		for _, term := range expr.Terms {
			coef[m.Name(term.V)] += term.C
		}
		return coef, rel, rhs
	}
	t.Fatalf("model has no %q row", name)
	return nil, 0, 0
}

// TestKnapsackRowsEqualModelRows holds the lost-capacity knapsack to the
// budget rows the model carries: the same links, the same coefficients and
// the same right-hand side, bit for bit, for both treatments of unused links
// — on random topologies with multi-link LAGs, LAGs no path uses, and links
// more likely down than up.
func TestKnapsackRowsEqualModelRows(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := 5 + rng.Intn(6)
		top, err := topology.Generate(topology.GenConfig{
			Nodes: nodes, LAGs: nodes + rng.Intn(6), ExtraLinks: rng.Intn(5), Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		for e := 0; e < top.NumLAGs(); e++ {
			for l := range top.LAG(e).Links {
				if rng.Intn(4) == 0 {
					top.LAG(e).Links[l].FailProb = 0.5 + 0.4*rng.Float64()
				}
			}
		}
		a, b := topology.Node(0), topology.Node(1+rng.Intn(top.NumNodes()-1))
		dps, err := paths.Compute(top, [][2]topology.Node{{a, b}}, 1, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		threshold := math.Pow(10, -1-5*rng.Float64())
		k := 1 + rng.Intn(3)
		for _, assume := range []bool{true, false} {
			model := milp.NewModel()
			enc := Encode(model, top, dps)
			if err := enc.AddProbabilityThreshold(model, threshold, assume); err != nil {
				t.Fatal(err)
			}
			enc.AddMaxFailures(model, k)
			b, err := NewBudget(top, dps, []float64{1}, threshold, assume, k)
			if err != nil {
				t.Fatal(err)
			}
			knap := budgetKnapsack(b)
			for _, name := range []string{"probability-threshold", "max-failures"} {
				wantCoef, wantRel, wantRHS := rowByName(t, model, name)
				gotCoef, gotRel, gotRHS := rowByName(t, knap, name)
				if gotRel != wantRel || math.Float64bits(gotRHS) != math.Float64bits(wantRHS) {
					t.Fatalf("seed %d %s: knapsack row %v %v, model row %v %v", seed, name, gotRel, gotRHS, wantRel, wantRHS)
				}
				if len(gotCoef) != len(wantCoef) {
					t.Fatalf("seed %d %s: knapsack row has %d links, model row %d", seed, name, len(gotCoef), len(wantCoef))
				}
				for v, c := range wantCoef {
					if g, ok := gotCoef[v]; !ok || math.Float64bits(g) != math.Float64bits(c) {
						t.Fatalf("seed %d %s: %s has coefficient %v in the knapsack, %v in the model", seed, name, v, g, c)
					}
				}
			}
			if len(b.assumedFailed) != len(enc.assumedFailed) {
				t.Fatalf("seed %d: knapsack assumes %d unused links failed, the model %d", seed, len(b.assumedFailed), len(enc.assumedFailed))
			}
		}
	}
}

// TestLostCapacityBoundOutcomes walks the diamond (one demand A→D, primary
// A–B–D over the two-link LAG 0 and LAG 2, backup A–C–D) through the bound's
// three outcomes.
func TestLostCapacityBoundOutcomes(t *testing.T) {
	top, dps := diamond()
	ctx := context.Background()
	hi := []float64{15}

	// k = 1: the best single failure is LAG 2's only link — min(10, 15).
	bound := func(hi []float64, threshold float64, assume bool, k int) (*BudgetBound, error) {
		b, err := NewBudget(top, dps, hi, threshold, assume, k)
		if err != nil {
			return nil, err
		}
		return LostCapacityBound(ctx, b)
	}
	bb, err := bound(hi, 0, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bb.Infeasible || math.Abs(bb.Value-10) > 1e-9 || bb.AllUp == nil || bb.Links != 5 {
		t.Fatalf("k=1: %+v, want value 10 over 5 links with all-up inside the budget", bb)
	}
	// A load below the link capacity caps the weight: min(10, 4).
	if bb, err = bound([]float64{4}, 0, false, 1); err != nil || math.Abs(bb.Value-4) > 1e-9 {
		t.Fatalf("k=1 at load 4: %+v, %v; want value 4", bb, err)
	}

	// All five links up has probability ≈ 0.94: a threshold of 0.9 admits
	// that and nothing else, so nothing can be lost.
	if bb, err = bound(hi, 0.9, true, 0); err != nil {
		t.Fatal(err)
	}
	if bb.Infeasible || bb.Value != 0 || bb.AllUp == nil || bb.AllUp.NumFailedLinks() != 0 {
		t.Fatalf("threshold 0.9: %+v, want value 0 with all-up inside the budget", bb)
	}

	// No scenario is that probable.
	if bb, err = bound(hi, 0.99, true, 0); err != nil || !bb.Infeasible {
		t.Fatalf("threshold 0.99: %+v, %v; want infeasible", bb, err)
	}

	// A used link more likely down than up: all-up falls outside a budget
	// that failing it fits.
	top.LAG(1).Links[0].FailProb = 0.9
	if bb, err = bound(hi, 0.5, true, 0); err != nil {
		t.Fatal(err)
	}
	if bb.Infeasible || bb.AllUp != nil || bb.Value != 0 {
		t.Fatalf("likely-down backup link: %+v, want a feasible budget without all-up and nothing lost", bb)
	}

	if _, err = bound(hi, 1.5, true, 0); err == nil {
		t.Fatal("threshold 1.5 must error, as it does for the model row")
	}
}

// TestBudgetAdmits holds Budget.Admits to the rows the model carries. The
// diamond gets a fifth LAG, B–C, that no path uses, with two links more
// likely down than up: a budget without a count row assumes them failed, and
// a scenario found under it reports them failed. Every scenario over the five
// used links, with that unused pair failed, must be admitted exactly when the
// model's probability and count rows hold at it, under both treatments of
// unused links; the named cases pin which row refuses.
func TestBudgetAdmits(t *testing.T) {
	top, dps := diamond()
	b, c := topology.Node(1), topology.Node(2)
	top.MustAddLAG(b, c, []topology.Link{{Capacity: 10, FailProb: 0.9}, {Capacity: 10, FailProb: 0.9}})
	hi := []float64{15}
	// used lists the five used links as (LAG, link).
	used := [][2]int{{0, 0}, {0, 1}, {1, 0}, {2, 0}, {3, 0}}
	scenario := func(mask int) *Scenario {
		s := NewScenario(top)
		s.FailLAG(4) // what a k = 0 analysis reports for the unused pair
		for i, el := range used {
			if mask&(1<<i) != 0 {
				s.LinkDown[el[0]][el[1]] = true
			}
		}
		return s
	}

	for _, tc := range []struct {
		threshold float64
		assume    bool
		k         int
	}{
		{1e-5, true, 0}, {1e-5, false, 2}, {1e-9, false, 2}, {1e-3, false, 1}, {0, false, 2}, {1e-3, true, 0},
	} {
		budget, err := NewBudget(top, dps, hi, tc.threshold, tc.assume, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		model := milp.NewModel()
		enc := Encode(model, top, dps)
		if tc.threshold > 0 {
			if err := enc.AddProbabilityThreshold(model, tc.threshold, tc.assume); err != nil {
				t.Fatal(err)
			}
		}
		if tc.k > 0 {
			enc.AddMaxFailures(model, tc.k)
		}
		rowHolds := func(name string, s *Scenario) bool {
			if tc.threshold <= 0 && name == "probability-threshold" || tc.k == 0 && name == "max-failures" {
				return true
			}
			coef, rel, rhs := rowByName(t, model, name)
			lhs := 0.0
			for _, el := range used {
				if s.LinkDown[el[0]][el[1]] {
					lhs += coef[fmt.Sprintf("u_link[%d][%d]", el[0], el[1])]
				}
			}
			if rel == milp.GE {
				return lhs >= rhs
			}
			return lhs <= rhs
		}
		for mask := 0; mask < 1<<len(used); mask++ {
			s := scenario(mask)
			want := rowHolds("probability-threshold", s) && rowHolds("max-failures", s)
			if got := budget.Admits(s); got != want {
				t.Errorf("threshold %g assume %v k %d, failed links %v: Admits %v, model rows %v",
					tc.threshold, tc.assume, tc.k, s.LinkDown, got, want)
			}
		}
	}

	// One, two and three used failures (LAG 2, then LAG 1, then LAG 3), each
	// with the unused pair failed: 3, 4 and 5 failed links in all.
	one, two, three := scenario(1<<3), scenario(1<<3|1<<2), scenario(1<<3|1<<2|1<<4)
	admits := func(threshold float64, assume bool, k int, s *Scenario) bool {
		budget, err := NewBudget(top, dps, hi, threshold, assume, k)
		if err != nil {
			t.Fatal(err)
		}
		return budget.Admits(s)
	}
	// A k = 2 budget counts used links only: it admits the k = 0 scenarios
	// whose used failures fit, whatever the unused pair adds.
	if !admits(1e-9, false, 2, one) || !admits(1e-9, false, 2, two) || admits(1e-9, false, 2, three) {
		t.Error("k = 2 at 1e-9: want one and two used failures admitted, three refused by the count row")
	}
	// Two used failures fit the count row of k = 2 but not its probability
	// row at 1e-5, where the unused pair is taken as up (≈ 9.6e-7 in all).
	// Assumed failed, as without a count row, the same links reach ≈ 7.8e-5.
	if !admits(1e-5, false, 2, one) || admits(1e-5, false, 2, two) {
		t.Error("k = 2 at 1e-5: want one used failure admitted, two refused by the probability row alone")
	}
	if !admits(1e-5, true, 0, two) || admits(1e-5, true, 0, three) {
		t.Error("k = 0 at 1e-5: want two used failures admitted, three refused")
	}
}
