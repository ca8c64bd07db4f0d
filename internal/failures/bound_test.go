package failures

import (
	"context"
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
