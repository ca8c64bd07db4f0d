package metaopt

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"raha/internal/demand"
	"raha/internal/milp"
	"raha/internal/paths"
	"raha/internal/tol"
	"raha/internal/topology"
)

// This file is the model check: a static diagnostic catalogue over a built
// *milp.Model — the stand-in for the presolve guardrails a commercial solver
// (Gurobi) gives the paper's implementation for free. It catches the
// modeling bugs that otherwise fail late, silently, or numerically in the
// stdlib solver: dangling variables, contradictory bounds, trivially
// infeasible rows, pathological coefficient ranges (bad Big-M magnitudes),
// duplicate rows, and NaN/Inf coefficients. No binary runs it: its one
// caller is TestBuiltModelsCheckClean below. It takes no options: its
// tolerances are package tol's, its one threshold is a constant, and its
// interval arithmetic is the solver's own (Model.ExprBounds). A finding
// cites a variable or row by index. The catalogue — ids, severities, and
// what each means — is documented in DESIGN.md §2.7.

// Severity grades a diagnostic. Error-severity diagnostics mark a model the
// solver must not be given; warnings and infos are advisory.
type Severity int8

// Severities, in increasing order.
const (
	Info Severity = iota
	Warning
	Error
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// Diagnostic ids. Stable strings: they key test assertions and the
// DESIGN.md catalogue.
const (
	UnusedVar          = "unused-var"          // variable in no constraint and not in the objective
	BoundContradiction = "bound-contradiction" // lo > hi
	IntBounds          = "int-bounds"          // integer variable with no integer in [lo, hi] (error) or loose fractional bounds (info)
	TrivialInfeasible  = "trivial-infeasible"  // constraint unsatisfiable under the variable bounds
	TrivialRedundant   = "trivial-redundant"   // constraint satisfied by every point in the bound box
	CoeffRange         = "coeff-range"         // |coeff| ratio beyond condRatio — Big-M / conditioning trouble
	DuplicateCon       = "duplicate-constraint"
	NonFinite          = "non-finite" // NaN/±Inf coefficient, bound, or RHS
)

// Diagnostic is one finding of the model check.
type Diagnostic struct {
	ID       string // catalogue id, e.g. "unused-var"
	Severity Severity
	Var      int // variable index, −1 when the finding is not about a variable
	Con      int // row index, −1 when the finding is not about a row
	Message  string
}

func (d Diagnostic) String() string {
	where := ""
	switch {
	case d.Con >= 0:
		where = fmt.Sprintf(" row %d", d.Con)
	case d.Var >= 0:
		where = fmt.Sprintf(" var %d", d.Var)
	}
	return fmt.Sprintf("%s [%s]%s: %s", d.Severity, d.ID, where, d.Message)
}

// Report is the ordered diagnostic list of one check.
type Report []Diagnostic

// Filter returns the diagnostics with severity ≥ min.
func (r Report) Filter(min Severity) Report {
	var out Report
	for _, d := range r {
		if d.Severity >= min {
			out = append(out, d)
		}
	}
	return out
}

// String renders the report one diagnostic per line.
func (r Report) String() string {
	var b strings.Builder
	for i, d := range r {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(d.String())
	}
	return b.String()
}

// condRatio is the max/min |coefficient| ratio (per row and model-wide)
// beyond which a conditioning warning fires — the classic rule of thumb for
// double-precision simplex trouble. The feasibility and integrality
// tolerances are package tol's, so "trivially infeasible" here means the LP
// would agree, and "no integer in range" means branch and bound would.
const condRatio = 1e8

// varDiag and rowDiag build a diagnostic about variable v or row i.
func varDiag(id string, sev Severity, v int, format string, args ...any) Diagnostic {
	return Diagnostic{ID: id, Severity: sev, Var: v, Con: -1, Message: fmt.Sprintf(format, args...)}
}

func rowDiag(id string, sev Severity, i int, format string, args ...any) Diagnostic {
	return Diagnostic{ID: id, Severity: sev, Var: -1, Con: i, Message: fmt.Sprintf(format, args...)}
}

// checkModel runs every diagnostic over the model and returns the findings:
// variable checks first (in variable order), then per-row checks (in row
// order), then the model-wide coefficient-range check. It is pure: no I/O,
// no globals, deterministic output order.
func checkModel(m *milp.Model) Report {
	var rep Report
	rep = append(rep, checkVars(m)...)
	rep = append(rep, checkCons(m)...)
	rep = append(rep, checkCoeffRange(m)...)
	return rep
}

// checkVars covers unused-var, bound-contradiction, int-bounds, and
// non-finite bounds.
func checkVars(m *milp.Model) Report {
	used := make([]bool, m.NumVars())
	mark := func(e milp.Expr) {
		for _, t := range e.Terms {
			if t.C != 0 {
				used[t.V] = true
			}
		}
	}
	for i := 0; i < m.NumConstraints(); i++ {
		e, _, _ := m.ConstraintAt(i)
		mark(e)
	}
	obj, _ := m.Objective()
	mark(obj)

	var rep Report
	for i := range used {
		lo, hi := m.Bounds(milp.Var(i))
		if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) {
			// A -Inf lower bound breaks the bounded simplex; +Inf uppers are
			// legal, NaN anywhere is not.
			rep = append(rep, varDiag(NonFinite, Error, i, "bounds [%g, %g] must be finite below and non-NaN", lo, hi))
			continue
		}
		if lo > hi {
			rep = append(rep, varDiag(BoundContradiction, Error, i, "lower bound %g exceeds upper bound %g", lo, hi))
			continue
		}
		if m.TypeOf(milp.Var(i)) != milp.Continuous && !math.IsInf(hi, 1) {
			// Tightened fractional bounds: the variable's feasible integers
			// are [ceil(lo), floor(hi)] — empty means no branch can fix it.
			ilo, ihi := math.Ceil(lo-tol.Int), math.Floor(hi+tol.Int)
			if ilo > ihi {
				rep = append(rep, varDiag(IntBounds, Error, i, "integer variable has no integer value in [%g, %g]", lo, hi))
			} else if frac(lo) || frac(hi) {
				rep = append(rep, varDiag(IntBounds, Info, i, "integer variable has fractional bounds [%g, %g] (tightenable to [%g, %g])", lo, hi, ilo, ihi))
			}
		}
		if !used[i] {
			rep = append(rep, varDiag(UnusedVar, Warning, i, "variable appears in no constraint and not in the objective"))
		}
	}
	return rep
}

// frac reports whether x is further than tol.Int from every integer.
func frac(x float64) bool {
	return math.Abs(x-math.Round(x)) > tol.Int
}

// checkCons covers non-finite coefficients/RHS, trivial infeasibility and
// redundancy (by interval arithmetic), per-row coefficient range, and
// duplicate rows.
func checkCons(m *milp.Model) Report {
	var rep Report
	seen := make(map[string]int, m.NumConstraints()) // normalized row -> first index
	for i := 0; i < m.NumConstraints(); i++ {
		e, rel, rhs := m.ConstraintAt(i)
		if d, ok := rowNonFinite(i, e, rhs); ok {
			rep = append(rep, d)
			continue // interval math on a poisoned row would only cascade
		}

		// A NaN bound poisons both ends, so the row draws no interval
		// diagnostic: the variable's non-finite check owns it.
		lo, hi := m.ExprBounds(e)
		infeasible, redundant := false, false
		switch rel {
		case milp.LE:
			infeasible, redundant = lo > rhs+tol.Feas, hi <= rhs+tol.Feas
		case milp.GE:
			infeasible, redundant = hi < rhs-tol.Feas, lo >= rhs-tol.Feas
		case milp.EQ:
			infeasible = lo > rhs+tol.Feas || hi < rhs-tol.Feas
			redundant = lo >= rhs-tol.Feas && hi <= rhs+tol.Feas
		}
		if infeasible {
			rep = append(rep, rowDiag(TrivialInfeasible, Error, i, "lhs ranges over [%g, %g] and can never satisfy %s %g", lo, hi, rel, rhs))
		} else if redundant {
			rep = append(rep, rowDiag(TrivialRedundant, Info, i, "lhs ranges over [%g, %g] and always satisfies %s %g", lo, hi, rel, rhs))
		}

		if min, max, ok := coefRange(e); ok && max/min > condRatio {
			rep = append(rep, rowDiag(CoeffRange, Warning, i, "coefficient magnitudes span [%g, %g] (ratio %.1e > %.1e): likely Big-M conditioning trouble", min, max, max/min, condRatio))
		}

		key := rowKey(e, rel, rhs)
		if first, dup := seen[key]; dup {
			rep = append(rep, rowDiag(DuplicateCon, Warning, i, "duplicate of row %d", first))
		} else {
			seen[key] = i
		}
	}
	return rep
}

// checkCoeffRange is the model-wide conditioning check: the spread between
// the largest and smallest |coefficient| across every row (the matrix range
// a solver log would report). Individual rows are checked in checkCons;
// this catches the cross-row case — e.g. one Big-M row of magnitude 1e9
// next to probability rows of magnitude 1e-6, each fine in isolation.
func checkCoeffRange(m *milp.Model) Report {
	var minC, maxC float64
	var minCon, maxCon int
	ok := false
	for i := 0; i < m.NumConstraints(); i++ {
		e, _, _ := m.ConstraintAt(i)
		lo, hi, rowOK := coefRange(e)
		if !rowOK {
			continue
		}
		if !ok || lo < minC {
			minC, minCon = lo, i
		}
		if !ok || hi > maxC {
			maxC, maxCon = hi, i
		}
		ok = true
	}
	if !ok || maxC/minC <= condRatio {
		return nil
	}
	return Report{{
		ID: CoeffRange, Severity: Warning, Var: -1, Con: -1,
		Message: fmt.Sprintf("matrix coefficient magnitudes span [%g (row %d), %g (row %d)] (ratio %.1e > %.1e)",
			minC, minCon, maxC, maxCon, maxC/minC, condRatio),
	}}
}

func rowNonFinite(i int, e milp.Expr, rhs float64) (Diagnostic, bool) {
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		return rowDiag(NonFinite, Error, i, "right-hand side is %g", rhs), true
	}
	for _, t := range e.Terms {
		if math.IsNaN(t.C) || math.IsInf(t.C, 0) {
			return rowDiag(NonFinite, Error, i, "coefficient of variable %d is %g", t.V, t.C), true
		}
	}
	return Diagnostic{}, false
}

// coefRange returns the min and max |coefficient| over nonzero terms.
func coefRange(e milp.Expr) (min, max float64, ok bool) {
	for _, t := range e.Terms {
		a := math.Abs(t.C)
		if a == 0 {
			continue
		}
		if !ok || a < min {
			min = a
		}
		if a > max {
			max = a
		}
		ok = true
	}
	return min, max, ok
}

// rowKey normalizes a row for duplicate detection: terms merged per
// variable, zeros dropped, sorted by variable index, exact relation and
// RHS. Scaled duplicates (the same row multiplied through) are deliberately
// not folded: exact repetition is the common copy-paste bug.
func rowKey(e milp.Expr, rel milp.Rel, rhs float64) string {
	merged := make(map[milp.Var]float64, len(e.Terms))
	for _, t := range e.Terms {
		merged[t.V] += t.C
	}
	idx := make([]int, 0, len(merged))
	for v, coef := range merged {
		if coef != 0 {
			idx = append(idx, int(v))
		}
	}
	sort.Ints(idx)
	var b strings.Builder
	fmt.Fprintf(&b, "%d|%b|", rel, rhs)
	for _, v := range idx {
		fmt.Fprintf(&b, "%d:%b,", v, merged[milp.Var(v)])
	}
	return b.String()
}

// TestBuiltModelsCheckClean runs the model check over the model the
// rewrite builds for each shape a Raha analysis solves — every objective;
// B4, Uninett2010 and AfricaWAN; variable and fixed demand; CE on and off;
// k > 0 — and requires zero error- and warning-severity diagnostics. Infos
// are allowed: trivial-redundant fires on McCormick lower-bound rows, which
// presolve drops. A fixed-demand analysis's hint solves build through the
// same function, so the fixed rows cover them too. The b4 and uninett rows
// are the paper's figure setups. Each shape must also show the
// trivial-redundant infos, and a broken variable and rows appended to it must
// come back as errors, cited by index, so a check that reads the model
// wrongly cannot pass the test by checking nothing.
func TestBuiltModelsCheckClean(t *testing.T) {
	type shape struct {
		top      *topology.Topology
		pairs    int
		pairSeed int64 // TopPairs and Gravity seed
		scale    float64
		primary  int
		backup   int
	}
	figure := func(top *topology.Topology, seed int64) shape { return shape{top, 6, seed, 1, 4, 1} }
	production := shape{topology.SmallWAN(), 6, 4, 0.2, 2, 1}
	mk := func(s shape, env func(demand.Matrix) demand.Envelope, edit func(*Config)) func(*testing.T) Config {
		return func(t *testing.T) Config {
			pairs := demand.TopPairs(s.top, s.pairs, s.pairSeed)
			dps, err := paths.Compute(s.top, pairs, s.primary, s.backup, nil)
			if err != nil {
				t.Fatal(err)
			}
			base := demand.Gravity(s.top, pairs, s.top.MeanLAGCapacity()*s.scale, s.pairSeed)
			cfg := Config{
				Topo: s.top, Demands: dps, Envelope: env(base),
				ProbThreshold: 1e-4, QuantBits: 2,
			}
			if edit != nil {
				edit(&cfg)
			}
			return cfg
		}
	}
	variable := func(base demand.Matrix) demand.Envelope { return demand.UpTo(base, 0.5) }
	fixed := func(base demand.Matrix) demand.Envelope { return demand.Fixed(base) }
	k2 := func(c *Config) { c.MaxFailures = 2 }
	ceK2 := func(c *Config) { c.ConnectivityEnforced, c.MaxFailures = true, 2 }
	objective := func(o Objective) func(*Config) {
		return func(c *Config) { c.Objective, c.ConnectivityEnforced = o, o == MLU }
	}
	cases := []struct {
		name string
		cfg  func(*testing.T) Config
	}{
		{"b4", mk(figure(topology.B4(), 4), variable, k2)},
		{"uninett", mk(figure(topology.Uninett2010(), 2010), variable, k2)},
		{"b4/fixed/ce/k=2", mk(figure(topology.B4(), 4), fixed, ceK2)},
		{"uninett/fixed/k=2", mk(figure(topology.Uninett2010(), 2010), fixed, k2)},
		{"africawan/fixed", func(t *testing.T) Config { return africaAlertConfig(t, 2) }},
		{"africawan/variable/ce", func(t *testing.T) Config {
			// The alert's phase 2: every demand in [0, peak].
			cfg := africaAlertConfig(t, 2)
			cfg.Envelope.Lo = make([]float64, len(cfg.Envelope.Hi))
			cfg.ConnectivityEnforced = true
			return cfg
		}},
		{"mlu", mk(production, variable, objective(MLU))},
		{"maxmin", mk(production, variable, objective(MaxMin))},
		{"b4/mlu/fixed/k=2", mk(figure(topology.B4(), 4), fixed, func(c *Config) { objective(MLU)(c); c.MaxFailures = 2 })},
		{"uninett/maxmin", mk(figure(topology.Uninett2010(), 2010), variable, objective(MaxMin))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg(t)
			f, err := cfg.validate()
			if err != nil {
				t.Fatal(err)
			}
			bm, err := build(&cfg, f)
			if err != nil {
				t.Fatal(err)
			}
			m := bm.m
			rep := checkModel(m)
			bad := rep.Filter(Warning)
			if len(bad) > 0 {
				t.Fatalf("%d vars × %d rows: %d warning- or error-severity diagnostics:\n%s",
					m.NumVars(), m.NumConstraints(), len(bad), bad)
			}
			redundant := 0
			for _, d := range rep {
				if d.ID == TrivialRedundant {
					redundant++
				}
			}
			if redundant == 0 {
				t.Fatalf("%d vars × %d rows: no %s info, want one per McCormick lower-bound row", m.NumVars(), m.NumConstraints(), TrivialRedundant)
			}
			t.Logf("%d vars × %d rows: %d info diagnostics", m.NumVars(), m.NumConstraints(), len(rep))

			// Negative control: a broken variable and broken rows of each
			// relation, appended after the built ones, must come back as
			// errors at their indices, and nothing else may.
			y := m.ContinuousVar(0, 1)
			z := m.NewVar(0.2, 0.8, milp.Integer)
			rows := m.NumConstraints()
			m.Add(milp.NewExpr(milp.T(1, y)), milp.LE, -1)
			m.Add(milp.NewExpr(milp.T(1, y)), milp.GE, 2)
			m.Add(milp.NewExpr(milp.T(1, y), milp.T(1, z)), milp.EQ, 3)
			want := map[[2]int]string{ // {var, row} -> id
				{int(z), -1}: IntBounds, {-1, rows}: TrivialInfeasible,
				{-1, rows + 1}: TrivialInfeasible, {-1, rows + 2}: TrivialInfeasible,
			}
			bad = checkModel(m).Filter(Warning)
			for _, d := range bad {
				if at := [2]int{d.Var, d.Con}; want[at] == d.ID && d.Severity == Error {
					delete(want, at)
				} else {
					t.Errorf("unexpected diagnostic on the broken model: %s", d)
				}
			}
			if len(want) > 0 {
				t.Fatalf("broken model: missing error diagnostics %v", want)
			}
		})
	}
}
