package milp

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"raha/internal/lp"
	"raha/internal/obs"
)

// knapsackLP solves max Σ w·x over the box lo/hi under one optional row
// Σ coef·x rel rhs with the LP core: the referee for Knapsack.Bound's
// greedy relaxations. −Inf when the row leaves the box empty.
func knapsackLP(t *testing.T, w, lo, hi, coef []float64, rel lp.Rel, rhs float64) float64 {
	t.Helper()
	p := lp.NewProblem(len(w))
	copy(p.Lo, lo)
	copy(p.Hi, hi)
	for i := range w {
		p.Cost[i] = -w[i]
	}
	if coef != nil {
		idx := make([]int, len(coef))
		for i := range idx {
			idx[i] = i
		}
		p.AddRow(idx, append([]float64(nil), coef...), rel, rhs)
	}
	sol, err := lp.Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	switch sol.Status {
	case lp.Optimal:
		return -sol.Objective
	case lp.Infeasible:
		return math.Inf(-1)
	}
	t.Fatalf("knapsack LP ended %v", sol.Status)
	return 0
}

// TestKnapsackBoundIsTheRowRelaxations referees Knapsack.Bound on random
// knapsacks and random boxes: it is exactly the smaller of the LP optima
// over each budget row alone (an LP solve is the reference), and never
// below the best integer point of the box inside both rows (enumeration).
// The coefficients include positive ones — links more likely down than up
// — and right-hand sides above zero, which only those can meet; the
// right-hand sides sit half-way between integers, so no box is feasible by
// a hair.
func TestKnapsackBoundIsTheRowRelaxations(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var positiveRHS, emptied int
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(7)
		k := &Knapsack{Vars: make([]Var, n), Weight: make([]float64, n), Count: rng.Intn(4)}
		if rng.Intn(4) > 0 {
			k.Coef = make([]float64, n)
			k.RHS = float64(rng.Intn(9)-6) + 0.5
		}
		for i := range k.Vars {
			k.Vars[i] = Var(i)
			k.Weight[i] = float64(rng.Intn(11))
			if k.Coef != nil {
				k.Coef[i] = float64(-1 - rng.Intn(4))
				if rng.Intn(4) == 0 {
					k.Coef[i] = float64(rng.Intn(3))
				}
			}
		}
		if k.Coef == nil && k.Count == 0 {
			k.Count = 1 + rng.Intn(3)
		}
		if k.RHS > 0 {
			positiveRHS++
		}
		for box := 0; box < 8; box++ {
			lo, hi := make([]float64, n), make([]float64, n)
			for i := range hi {
				switch rng.Intn(4) {
				case 0:
					lo[i], hi[i] = 1, 1
				case 1:
					hi[i] = 0
				default:
					hi[i] = 1
				}
			}
			got := k.Bound(lo, hi)

			want := knapsackLP(t, k.Weight, lo, hi, nil, 0, 0)
			if k.Coef != nil {
				want = math.Min(want, knapsackLP(t, k.Weight, lo, hi, k.Coef, lp.GE, k.RHS))
			}
			if k.Count > 0 {
				ones := make([]float64, n)
				for i := range ones {
					ones[i] = 1
				}
				want = math.Min(want, knapsackLP(t, k.Weight, lo, hi, ones, lp.LE, float64(k.Count)))
			}
			if math.IsInf(want, -1) != math.IsInf(got, -1) || !math.IsInf(want, -1) && math.Abs(got-want) > 1e-5 {
				t.Fatalf("trial %d box %d: %+v over lo %v hi %v: Bound %g, row LPs %g", trial, box, k, lo, hi, got, want)
			}
			if math.IsInf(got, -1) {
				emptied++
			}

			best := math.Inf(-1)
			for mask := 0; mask < 1<<n; mask++ {
				val, prob, cnt := 0.0, 0.0, 0
				inBox := true
				for i := 0; i < n; i++ {
					x := float64(mask >> i & 1)
					inBox = inBox && x >= lo[i] && x <= hi[i]
					val += k.Weight[i] * x
					if k.Coef != nil {
						prob += k.Coef[i] * x
					}
					cnt += int(x)
				}
				if inBox && (k.Coef == nil || prob >= k.RHS) && (k.Count <= 0 || cnt <= k.Count) {
					best = math.Max(best, val)
				}
			}
			if got < best-1e-9 {
				t.Fatalf("trial %d box %d: %+v over lo %v hi %v: Bound %g below the integer optimum %g", trial, box, k, lo, hi, got, best)
			}
		}
	}
	if positiveRHS == 0 || emptied == 0 {
		t.Fatalf("%d knapsacks with RHS > 0, %d emptied boxes: the trials miss a case", positiveRHS, emptied)
	}
}

// TestKnapsackBoundTakesLikelyDownLinksFirst_Regression: a budget row with
// RHS > 0 is met only by taking a coefficient ≥ 0 — a link more likely down
// than up. A greedy that tests the row's slack before taking those finds
// it negative and declares the box empty, a bound of −Inf on a box holding
// the optimum; on AfricaWAN that cut the pinned degradations to 1.5048 /
// 3.3254 / 2.5259.
func TestKnapsackBoundTakesLikelyDownLinksFirst_Regression(t *testing.T) {
	k := &Knapsack{Vars: []Var{0, 1}, Weight: []float64{1, 10}, Coef: []float64{2, -1}, RHS: 1}
	if got := k.Bound([]float64{0, 0}, []float64{1, 1}); got != 11 {
		t.Fatalf("Bound = %g, want 11: both links fail inside the budget (2 − 1 ≥ 1)", got)
	}
	if got := k.Bound([]float64{0, 0}, []float64{0, 1}); !math.IsInf(got, -1) {
		t.Fatalf("Bound = %g with the likely-down link held up, want −Inf: nothing meets the row", got)
	}
}

// rowKnapsack is wideKnapsack's own capacity row as a Knapsack: the
// objective is Σ v·b, and Σ w·b ≤ cap is the probability-style row
// Σ −w·b ≥ −cap.
func rowKnapsack(m *Model) *Knapsack {
	obj, _ := m.Objective()
	row, _, rhs := m.ConstraintAt(0)
	k := &Knapsack{RHS: -rhs}
	for i, t := range obj.Terms {
		k.Vars = append(k.Vars, t.V)
		k.Weight = append(k.Weight, t.C)
		k.Coef = append(k.Coef, -row.Terms[i].C)
	}
	return k
}

// TestKnapsackPrunesChildren: handed a valid knapsack, the search still
// finds the optimum — at every width, with presolve on and off — and at
// width 1 it discards children at creation and explores no more nodes than
// without it. The trace's solve_end carries the count.
func TestKnapsackPrunesChildren(t *testing.T) {
	var pruned int64
	for seed := int64(1); seed <= 4; seed++ {
		m := wideKnapsack(seed, 18)
		k := rowKnapsack(m)
		for _, p := range []Params{{Workers: 1}, {Workers: 4, fixedWidth: true}, {Workers: 1, disablePresolve: true}} {
			base := solveOK(t, m, p)
			var buf bytes.Buffer
			p.Knapsack, p.Tracer = k, obs.NewJSONLTracer(&buf)
			res := solveOK(t, m, p)
			if res.Status != Optimal || math.Abs(res.Objective-base.Objective) > 1e-6 {
				t.Fatalf("seed %d %+v: %v at %g, %v at %g without the knapsack", seed, p, res.Status, res.Objective, base.Status, base.Objective)
			}
			nodeAccounting(t, int(seed), "knapsack", res, p)
			if p.Workers == 1 {
				if res.Nodes > base.Nodes {
					t.Fatalf("seed %d %+v: %d nodes with the knapsack, %d without", seed, p, res.Nodes, base.Nodes)
				}
				pruned += res.Stats.BudgetPrunes
			}
			if !strings.Contains(buf.String(), `"budget_prunes":`) {
				t.Fatalf("seed %d: solve_end has no budget_prunes field", seed)
			}
		}
	}
	if pruned == 0 {
		t.Fatal("no child was discarded on the knapsack: the test proves nothing")
	}
}

// TestKnapsackNeverBindingChangesNothing runs the brute-force corpus with a
// knapsack too heavy ever to cap a child: the serial search is bit for bit
// the one without it. A knapsack on a Minimize model is refused.
func TestKnapsackNeverBindingChangesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	compared := 0
	for trial := 0; trial < propCorpusSize(t); trial++ {
		inst := genMILP(rng)
		k := &Knapsack{Vars: inst.bins, Weight: make([]float64, len(inst.bins))}
		for i := range k.Weight {
			k.Weight[i] = 1e6
		}
		if inst.m.sense == Minimize {
			if _, err := inst.m.Solve(Params{Knapsack: k}); err == nil {
				t.Fatalf("trial %d: a knapsack on a Minimize model was accepted", trial)
			}
			continue
		}
		base := solveOK(t, inst.m, corpusParams(Params{Workers: 1}))
		res := solveOK(t, inst.m, corpusParams(Params{Workers: 1, Knapsack: k}))
		bs, rs := base.Stats, res.Stats
		scrubTimingStats(&bs)
		scrubTimingStats(&rs)
		//raha:lint-allow float-cmp bitwise identity is the property under test
		if res.Objective != base.Objective || res.Bound != base.Bound || res.Status != base.Status ||
			res.Nodes != base.Nodes || !reflect.DeepEqual(res.X, base.X) || !reflect.DeepEqual(rs, bs) {
			t.Fatalf("trial %d: a knapsack that never binds changed the solve:\n%v %d nodes obj %g %+v\n%v %d nodes obj %g %+v",
				trial, res.Status, res.Nodes, res.Objective, rs, base.Status, base.Nodes, base.Objective, bs)
		}
		compared++
	}
	if compared == 0 {
		t.Fatal("the corpus drew no Maximize instance")
	}
}
