package metaopt

import (
	"math"
	"strings"
	"testing"

	"raha/internal/milp"
)

// The model check's unit tests. Each builds on checkBase: variable 0 is a binary
// b, variable 1 a continuous x ∈ [0, 1], and the objective is max b + x. A
// case adds its own rows; addCap adds the clean one, b + x ≤ 1.5.
const checkB, checkX milp.Var = 0, 1

func checkBase() *milp.Model {
	m := milp.NewModel()
	m.BinaryVar()
	m.ContinuousVar(0, 1)
	m.SetObjective(milp.NewExpr(milp.T(1, checkB), milp.T(1, checkX)), milp.Maximize)
	return m
}

// capExpr is b + x; addCap adds the clean row capExpr ≤ 1.5.
func capExpr() milp.Expr { return milp.NewExpr(milp.T(1, checkB), milp.T(1, checkX)) }

func addCap(m *milp.Model) { m.Add(capExpr(), milp.LE, 1.5) }

func ids(r Report) []string {
	out := make([]string, len(r))
	for i, d := range r {
		out[i] = d.ID
	}
	return out
}

func TestCleanModel(t *testing.T) {
	m := checkBase()
	addCap(m)
	if rep := checkModel(m); len(rep) != 0 {
		t.Fatalf("clean model produced diagnostics: %v", rep)
	}
}

func TestDiagnosticKinds(t *testing.T) {
	// Most cases are the clean row with one variable's bounds replaced, or
	// one row in the cap row's place.
	bounds := func(v milp.Var, lo, hi float64) func(*milp.Model) {
		return func(m *milp.Model) {
			addCap(m)
			m.SetBounds(v, lo, hi)
		}
	}
	row := func(e milp.Expr, rel milp.Rel, rhs float64) func(*milp.Model) {
		return func(m *milp.Model) { m.Add(e, rel, rhs) }
	}
	coefB := func(c float64) milp.Expr { return milp.NewExpr(milp.T(c, checkB), milp.T(1, checkX)) }
	const none = -1
	cases := []struct {
		name    string
		edit    func(m *milp.Model)
		wantID  string
		wantSev Severity
		wantVar int // expected Diagnostic.Var, none for a row's finding
		wantCon int // expected Diagnostic.Con, none for a variable's finding
	}{
		{"unused variable", func(m *milp.Model) {
			addCap(m)
			m.ContinuousVar(0, 5)
		}, UnusedVar, Warning, 2, none},
		{"zero-coefficient reference does not count as use", func(m *milp.Model) {
			e := capExpr()
			e.Add(0, m.ContinuousVar(0, 5))
			m.Add(e, milp.LE, 1.5)
		}, UnusedVar, Warning, 2, none},
		{"contradictory bounds", bounds(checkX, 2, 1), BoundContradiction, Error, 1, none},
		{"integer variable with no integer in range", bounds(checkB, 0.2, 0.8), IntBounds, Error, 0, none},
		{"integer variable with fractional but satisfiable bounds", bounds(checkB, 0, 1.5), IntBounds, Info, 0, none},
		// lhs ∈ [0, 2] in every cap-row case.
		{"trivially infeasible LE", row(capExpr(), milp.LE, -1), TrivialInfeasible, Error, none, 0},
		{"trivially infeasible GE", row(capExpr(), milp.GE, 3), TrivialInfeasible, Error, none, 0},
		{"trivially infeasible EQ", row(capExpr(), milp.EQ, 5), TrivialInfeasible, Error, none, 0},
		{"trivially redundant LE", row(capExpr(), milp.LE, 10), TrivialRedundant, Info, none, 0},
		{"trivially redundant GE", row(capExpr(), milp.GE, -1), TrivialRedundant, Info, none, 0},
		// 1e12 next to the coefficient 1 term.
		{"per-row coefficient range", row(coefB(1e12), milp.LE, 1e12), CoeffRange, Warning, none, 0},
		{"duplicate constraint", func(m *milp.Model) {
			addCap(m)
			// Same row with terms reordered: still a duplicate.
			m.Add(milp.NewExpr(milp.T(1, checkX), milp.T(1, checkB)), milp.LE, 1.5)
		}, DuplicateCon, Warning, none, 1},
		{"NaN coefficient", row(coefB(math.NaN()), milp.LE, 1.5), NonFinite, Error, none, 0},
		{"infinite coefficient", row(coefB(math.Inf(1)), milp.LE, 1.5), NonFinite, Error, none, 0},
		{"NaN RHS", row(capExpr(), milp.LE, math.NaN()), NonFinite, Error, none, 0},
		{"NaN bound", bounds(checkX, 0, math.NaN()), NonFinite, Error, 1, none},
		{"minus-infinite lower bound", bounds(checkX, math.Inf(-1), 1), NonFinite, Error, 1, none},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := checkBase()
			tc.edit(m)
			rep := checkModel(m)
			var found *Diagnostic
			for i := range rep {
				if rep[i].ID == tc.wantID {
					found = &rep[i]
					break
				}
			}
			if found == nil {
				t.Fatalf("want diagnostic %q, got %v", tc.wantID, ids(rep))
			}
			if found.Severity != tc.wantSev {
				t.Errorf("severity = %v, want %v (%s)", found.Severity, tc.wantSev, found)
			}
			if found.Var != tc.wantVar || found.Con != tc.wantCon {
				t.Errorf("cites var %d row %d, want var %d row %d", found.Var, found.Con, tc.wantVar, tc.wantCon)
			}
		})
	}
}

func TestModelWideCoeffRange(t *testing.T) {
	m := checkBase()
	addCap(m)
	// Each row is well-conditioned in isolation; the spread is cross-row.
	y := m.ContinuousVar(0, 1)
	m.Add(milp.NewExpr(milp.T(1e6, y)), milp.LE, 1e6) // row 1
	m.Add(milp.NewExpr(milp.T(1e-6, y)), milp.LE, 1)  // row 2
	var found bool
	for _, d := range checkModel(m) {
		if d.ID == CoeffRange && d.Con == -1 {
			found = true
			if !strings.Contains(d.Message, "row 1") || !strings.Contains(d.Message, "row 2") {
				t.Errorf("model-wide coeff-range should cite both extreme rows: %s", d.Message)
			}
		}
	}
	if !found {
		t.Fatalf("want model-wide coeff-range diagnostic, got %v", checkModel(m))
	}
}

func TestUnboundedUpperIsLegal(t *testing.T) {
	m := checkBase()
	addCap(m)
	m.SetBounds(checkX, 0, math.Inf(1))
	// x unbounded above makes the cap row non-redundant and non-infeasible,
	// and +Inf upper bounds are legal — only the LE interval's hi becomes
	// +Inf.
	for _, d := range checkModel(m) {
		if d.Severity == Error {
			t.Fatalf("unexpected error diagnostic: %s", d)
		}
	}
}

func TestReportHelpers(t *testing.T) {
	r := Report{
		{ID: UnusedVar, Severity: Warning, Var: 3, Con: -1, Message: "m"},
		{ID: TrivialInfeasible, Severity: Error, Var: -1, Con: 7, Message: "m"},
		{ID: TrivialRedundant, Severity: Info, Var: -1, Con: 8, Message: "m"},
	}
	if got := r.Filter(Warning); len(got) != 2 {
		t.Fatalf("Filter(Warning) = %v, want 2 diagnostics", got)
	}
	s := r.String()
	if !strings.Contains(s, "warning [unused-var] var 3") || !strings.Contains(s, "error [trivial-infeasible] row 7") {
		t.Fatalf("report rendering: %q", s)
	}
}
