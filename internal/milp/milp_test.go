package milp

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// prepare is SolveContext's set-up, for the tests that drive a search
// step by step: m's presolve (unless p disables it), then the plan.
func (m *Model) prepare(p *Params, stop *atomic.Bool) (*plan, error) {
	return m.presolved(p.disablePresolve).prepare(p, stop)
}

func solveOK(t *testing.T, m *Model, p Params) *Result {
	t.Helper()
	res, err := m.Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return res
}

func wantObj(t *testing.T, res *Result, want float64) {
	t.Helper()
	if res.Status != Optimal {
		t.Fatalf("status = %v, want optimal (obj %g)", res.Status, res.Objective)
	}
	if math.Abs(res.Objective-want) > 1e-6 {
		t.Fatalf("objective = %g, want %g (x=%v)", res.Objective, want, res.X)
	}
}

func TestPureLP(t *testing.T) {
	m := NewModel()
	x := m.ContinuousVar(0, 10)
	y := m.ContinuousVar(0, 10)
	m.Add(NewExpr(T(1, x), T(2, y)), LE, 14)
	m.SetObjective(NewExpr(T(3, x), T(4, y)), Maximize)
	res := solveOK(t, m, Params{})
	wantObj(t, res, 38) // x=10, y=2
}

func TestKnapsack(t *testing.T) {
	// Classic 0/1 knapsack: weights {2,3,4,5}, values {3,4,5,6}, cap 5.
	// Optimum = 7 (items 0 and 1).
	m := NewModel()
	w := []float64{2, 3, 4, 5}
	v := []float64{3, 4, 5, 6}
	var wExpr, vExpr Expr
	for i := range w {
		b := m.BinaryVar()
		wExpr.Add(w[i], b)
		vExpr.Add(v[i], b)
	}
	m.Add(wExpr, LE, 5)
	m.SetObjective(vExpr, Maximize)
	res := solveOK(t, m, Params{})
	wantObj(t, res, 7)
}

func TestIntegerVariables(t *testing.T) {
	// max x + y, 2x + 5y <= 16, x <= 4, x,y integer => x=4, y=1 -> 5.
	m := NewModel()
	x := m.NewVar(0, 4, Integer)
	y := m.NewVar(0, 100, Integer)
	m.Add(NewExpr(T(2, x), T(5, y)), LE, 16)
	m.SetObjective(NewExpr(T(1, x), T(1, y)), Maximize)
	res := solveOK(t, m, Params{})
	wantObj(t, res, 5)
}

func TestMinimize(t *testing.T) {
	// min 3x + 2y s.t. x + y >= 4, x,y binary-scaled integers in [0,4].
	m := NewModel()
	x := m.NewVar(0, 4, Integer)
	y := m.NewVar(0, 4, Integer)
	m.Add(NewExpr(T(1, x), T(1, y)), GE, 4)
	m.SetObjective(NewExpr(T(3, x), T(2, y)), Minimize)
	res := solveOK(t, m, Params{})
	wantObj(t, res, 8) // y=4
}

func TestInfeasibleMILP(t *testing.T) {
	m := NewModel()
	b := m.BinaryVar()
	m.Add(NewExpr(T(2, b)), EQ, 1)
	m.SetObjective(NewExpr(T(1, b)), Maximize)
	res := solveOK(t, m, Params{})
	if res.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestUnboundedMILP(t *testing.T) {
	m := NewModel()
	x := m.ContinuousVar(0, math.Inf(1))
	m.SetObjective(NewExpr(T(1, x)), Maximize)
	res := solveOK(t, m, Params{})
	if res.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", res.Status)
	}
}

func TestConstantInExpression(t *testing.T) {
	m := NewModel()
	x := m.ContinuousVar(0, 5)
	e := NewExpr(T(1, x))
	e.AddConst(3) // x + 3 <= 7  =>  x <= 4
	m.Add(e, LE, 7)
	m.SetObjective(NewExpr(T(1, x)), Maximize)
	res := solveOK(t, m, Params{})
	wantObj(t, res, 4)
}

func TestProductSemantics(t *testing.T) {
	// y = b·x over all b in {0,1} and several x values.
	for _, bv := range []float64{0, 1} {
		for _, xv := range []float64{-2, 0, 1.5, 4} {
			m := NewModel()
			b := m.BinaryVar()
			x := m.ContinuousVar(-2, 4)
			y := m.Product(b, x)
			m.Fix(b, bv)
			m.Fix(x, xv)
			m.SetObjective(NewExpr(T(1, y)), Maximize)
			res := solveOK(t, m, Params{})
			want := bv * xv
			if res.Status != Optimal || math.Abs(res.X[y]-want) > 1e-6 {
				t.Fatalf("b=%g x=%g: y=%g want %g (status %v)", bv, xv, res.X[y], want, res.Status)
			}
		}
	}
}

func TestProductPanicsOnNonBinary(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m := NewModel()
	x := m.ContinuousVar(0, 1)
	y := m.ContinuousVar(0, 1)
	m.Product(x, y)
}

func TestIndicatorGE(t *testing.T) {
	// z = 1 ⇔ a + b - 1 ≥ 0 for integer a, b in small boxes.
	for a := 0.0; a <= 2; a++ {
		for b := 0.0; b <= 2; b++ {
			m := NewModel()
			va := m.NewVar(0, 2, Integer)
			vb := m.NewVar(0, 2, Integer)
			m.Fix(va, a)
			m.Fix(vb, b)
			e := NewExpr(T(1, va), T(1, vb))
			e.AddConst(-1)
			z := m.IndicatorGE(e, 0, 1)
			// Maximize and minimize z: both must agree with the semantics.
			m.SetObjective(NewExpr(T(1, z)), Maximize)
			up := solveOK(t, m, Params{})
			m.SetObjective(NewExpr(T(1, z)), Minimize)
			dn := solveOK(t, m, Params{})
			want := 0.0
			if a+b-1 >= 0 {
				want = 1
			}
			if up.Status != Optimal || dn.Status != Optimal ||
				math.Abs(up.Objective-want) > 1e-6 || math.Abs(dn.Objective-want) > 1e-6 {
				t.Fatalf("a=%g b=%g: z range [%g,%g], want pinned %g", a, b, dn.Objective, up.Objective, want)
			}
		}
	}
}

func TestTimeLimitReturnsIncumbent(t *testing.T) {
	// A deliberately wide knapsack under a 1 ns budget: the context is dead
	// before the pool claims a node, so the search must stop there and
	// return the hint (item 0 alone) as a feasible incumbent.
	rng := rand.New(rand.NewSource(3))
	m := NewModel()
	var wExpr, vExpr Expr
	for i := 0; i < 40; i++ {
		b := m.BinaryVar()
		wExpr.Add(1+rng.Float64()*9, b)
		vExpr.Add(1+rng.Float64()*9, b)
	}
	m.Add(wExpr, LE, 50)
	m.SetObjective(vExpr, Maximize)
	hint := make([]float64, m.NumVars())
	hint[0] = 1
	res := solveOK(t, m, Params{TimeLimit: time.Nanosecond, Hints: [][]float64{hint}})
	if res.Status != Feasible {
		t.Fatalf("status = %v after %d nodes, want feasible", res.Status, res.Nodes)
	}
	if hv := Value(vExpr, hint); res.Objective < hv {
		t.Fatalf("incumbent %g below the hint's %g", res.Objective, hv)
	}
}

func TestNodeLimit(t *testing.T) {
	m := NewModel()
	var e Expr
	for i := 0; i < 30; i++ {
		b := m.BinaryVar()
		e.Add(1.5+float64(i%7)*0.3, b)
	}
	m.Add(e, LE, 20)
	m.SetObjective(e, Maximize)
	res := solveOK(t, m, Params{NodeLimit: 3})
	if res.Nodes > 3 {
		t.Fatalf("explored %d nodes, limit 3", res.Nodes)
	}
}

func TestMIPGapStopsEarly(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewModel()
	var wExpr, vExpr Expr
	for i := 0; i < 25; i++ {
		b := m.BinaryVar()
		wExpr.Add(1+rng.Float64()*9, b)
		vExpr.Add(1+rng.Float64()*9, b)
	}
	m.Add(wExpr, LE, 40)
	m.SetObjective(vExpr, Maximize)
	exact := solveOK(t, m, Params{})
	loose := solveOK(t, m, Params{MIPGap: 0.5})
	if loose.Status == Optimal {
		return // solved before gap check kicked in; fine
	}
	if loose.Objective < exact.Objective*0.5-1e-6 {
		t.Fatalf("gap solution %g too far below exact %g", loose.Objective, exact.Objective)
	}
}

// TestAgainstEnumeration compares branch and bound with brute-force
// enumeration of all binary assignments on random pure-binary MILPs.
func TestAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 150; trial++ {
		nb := 3 + rng.Intn(8) // 3..10 binaries
		nc := 1 + rng.Intn(4)
		obj := make([]float64, nb)
		rows := make([][]float64, nc)
		rhs := make([]float64, nc)
		rels := make([]Rel, nc)
		for j := range obj {
			obj[j] = math.Round(rng.Float64()*20 - 10)
		}
		for i := range rows {
			rows[i] = make([]float64, nb)
			for j := range rows[i] {
				rows[i][j] = math.Round(rng.Float64()*10 - 4)
			}
			rels[i] = []Rel{LE, GE}[rng.Intn(2)]
			rhs[i] = math.Round(rng.Float64()*12 - 2)
		}

		// Brute force.
		best := math.Inf(-1)
		for mask := 0; mask < 1<<nb; mask++ {
			ok := true
			for i := range rows {
				v := 0.0
				for j := 0; j < nb; j++ {
					if mask&(1<<j) != 0 {
						v += rows[i][j]
					}
				}
				if (rels[i] == LE && v > rhs[i]) || (rels[i] == GE && v < rhs[i]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			v := 0.0
			for j := 0; j < nb; j++ {
				if mask&(1<<j) != 0 {
					v += obj[j]
				}
			}
			if v > best {
				best = v
			}
		}

		// Branch and bound.
		m := NewModel()
		vars := make([]Var, nb)
		var oe Expr
		for j := 0; j < nb; j++ {
			vars[j] = m.BinaryVar()
			oe.Add(obj[j], vars[j])
		}
		for i := range rows {
			var e Expr
			for j := 0; j < nb; j++ {
				if rows[i][j] != 0 {
					e.Add(rows[i][j], vars[j])
				}
			}
			m.Add(e, rels[i], rhs[i])
		}
		m.SetObjective(oe, Maximize)
		res := solveOK(t, m, Params{})

		if math.IsInf(best, -1) {
			if res.Status != Infeasible {
				t.Fatalf("trial %d: status %v, brute force says infeasible", trial, res.Status)
			}
			continue
		}
		if res.Status != Optimal {
			t.Fatalf("trial %d: status %v, want optimal (brute %g)", trial, res.Status, best)
		}
		if math.Abs(res.Objective-best) > 1e-6 {
			t.Fatalf("trial %d: got %g, brute force %g", trial, res.Objective, best)
		}
	}
}

// TestMixedEnumeration checks MILPs with both binaries and continuous
// variables against enumeration of the binaries + LP on the rest.
func TestMixedEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		nb := 2 + rng.Intn(5)
		build := func() (*Model, []Var) {
			m := NewModel()
			bs := make([]Var, nb)
			for j := range bs {
				bs[j] = m.BinaryVar()
			}
			x := m.ContinuousVar(0, 10)
			y := m.ContinuousVar(0, 10)
			var cap1, cap2, oe Expr
			cap1.Add(1, x)
			cap2.Add(1, y)
			oe.Add(2, x)
			oe.Add(1, y)
			for _, b := range bs {
				w := math.Round(rng.Float64() * 5)
				cap1.Add(w, b)
				cap2.Add(5-w, b)
				oe.Add(math.Round(rng.Float64()*8-2), b)
			}
			m.Add(cap1, LE, 12)
			m.Add(cap2, LE, 12)
			m.SetObjective(oe, Maximize)
			return m, bs
		}

		// Reference: enumerate binary masks, fix, solve the pure LP.
		m, bs := build()
		best := math.Inf(-1)
		for mask := 0; mask < 1<<nb; mask++ {
			m2, bs2 := buildCopy(m, bs)
			for j, b := range bs2 {
				if mask&(1<<j) != 0 {
					m2.Fix(b, 1)
				} else {
					m2.Fix(b, 0)
				}
			}
			res, err := m2.Solve(Params{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Status == Optimal && res.Objective > best {
				best = res.Objective
			}
		}
		res := solveOK(t, m, Params{})
		if res.Status != Optimal || math.Abs(res.Objective-best) > 1e-5 {
			t.Fatalf("trial %d: got %v/%g, brute force %g", trial, res.Status, res.Objective, best)
		}
	}
}

// buildCopy clones a model's structure so bound fixing doesn't leak between
// enumeration iterations.
func buildCopy(m *Model, bs []Var) (*Model, []Var) {
	c := &Model{
		lo:    append([]float64(nil), m.lo...),
		hi:    append([]float64(nil), m.hi...),
		vtype: append([]VarType(nil), m.vtype...),
		cons:  append([]constraint(nil), m.cons...),
		obj:   m.obj,
		sense: m.sense,
	}
	return c, bs
}

func TestValueAndBounds(t *testing.T) {
	m := NewModel()
	x := m.ContinuousVar(1, 3)
	y := m.ContinuousVar(-2, 2)
	e := NewExpr(T(2, x), T(-1, y))
	e.AddConst(5)
	if got := Value(e, []float64{2, 1}); got != 8 {
		t.Fatalf("Value = %g, want 8", got)
	}
	lo, hi := m.ExprBounds(e)
	if lo != 2*1-2+5 || hi != 2*3+2+5 {
		t.Fatalf("ExprBounds = [%g,%g]", lo, hi)
	}
	blo, bhi := m.Bounds(y)
	if blo != -2 || bhi != 2 {
		t.Fatalf("Bounds = [%g,%g]", blo, bhi)
	}
}

func TestGapReporting(t *testing.T) {
	r := &Result{Status: Optimal, Objective: 10, Bound: 10}
	if r.Gap() != 0 {
		t.Fatal("optimal gap must be 0")
	}
	r2 := &Result{Status: Feasible, Objective: 10, Bound: 12}
	if math.Abs(r2.Gap()-0.2) > 1e-12 {
		t.Fatalf("gap = %g, want 0.2", r2.Gap())
	}
}

func TestStatusStrings(t *testing.T) {
	for s, want := range map[Status]string{
		Optimal: "optimal", Feasible: "feasible", Infeasible: "infeasible",
		Unbounded: "unbounded", Unknown: "unknown",
	} {
		if s.String() != want {
			t.Fatalf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestObjectiveConstant(t *testing.T) {
	// Constants in the objective must survive into reported objectives.
	m := NewModel()
	x := m.ContinuousVar(0, 5)
	e := NewExpr(T(1, x))
	e.AddConst(100)
	m.SetObjective(e, Maximize)
	res := solveOK(t, m, Params{})
	wantObj(t, res, 105)

	m2 := NewModel()
	b := m2.BinaryVar()
	e2 := NewExpr(T(-3, b))
	e2.AddConst(7)
	m2.SetObjective(e2, Minimize)
	res2 := solveOK(t, m2, Params{})
	wantObj(t, res2, 4)
}

func TestHintsSeedIncumbent(t *testing.T) {
	// A knapsack with a known-good hint: the warm start must produce an
	// incumbent at least that good, even under a node limit too small for
	// the search to find it alone.
	rng := rand.New(rand.NewSource(9))
	m := NewModel()
	vars := make([]Var, 30)
	var wExpr, vExpr Expr
	for i := range vars {
		vars[i] = m.BinaryVar()
		wExpr.Add(1+rng.Float64()*9, vars[i])
		vExpr.Add(1+rng.Float64()*9, vars[i])
	}
	m.Add(wExpr, LE, 30)
	m.SetObjective(vExpr, Maximize)

	// Build a feasible hint greedily.
	hint := make([]float64, m.NumVars())
	weight := 0.0
	hintValue := 0.0
	for i, v := range vars {
		w := wExpr.Terms[i].C
		if weight+w <= 30 {
			hint[v] = 1
			weight += w
			hintValue += vExpr.Terms[i].C
		}
	}
	res := solveOK(t, m, Params{NodeLimit: 1, Hints: [][]float64{hint}})
	if res.Status == Infeasible || res.Status == Unknown {
		t.Fatalf("status %v with a feasible hint", res.Status)
	}
	if res.Objective < hintValue-1e-6 {
		t.Fatalf("incumbent %g below hint value %g", res.Objective, hintValue)
	}

	// Malformed hints are ignored, not fatal.
	bad := []float64{1} // wrong length
	nan := make([]float64, m.NumVars())
	for i := range nan {
		nan[i] = math.NaN()
	}
	res2 := solveOK(t, m, Params{NodeLimit: 1, Hints: [][]float64{bad, nan}})
	_ = res2
}

func TestHintInfeasiblePointIsDiscarded(t *testing.T) {
	m := NewModel()
	a := m.BinaryVar()
	b := m.BinaryVar()
	m.Add(NewExpr(T(1, a), T(1, b)), LE, 1)
	m.SetObjective(NewExpr(T(2, a), T(3, b)), Maximize)
	// Hint violates the constraint; search must still find the optimum.
	res := solveOK(t, m, Params{Hints: [][]float64{{1, 1}}})
	wantObj(t, res, 3)
}
