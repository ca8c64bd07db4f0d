package modelcheck

import (
	"math"
	"strings"
	"testing"
)

// base returns a small clean model: max x0 + x1 s.t. x0 + x1 <= 1.5,
// x0 ∈ [0,1] binary, x1 ∈ [0,1].
func base() *Model {
	return &Model{
		Vars: []Var{
			{Name: "b", Lo: 0, Hi: 1, Integer: true},
			{Name: "x", Lo: 0, Hi: 1},
		},
		Cons: []Constraint{
			{Name: "cap", Terms: []Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}}, Rel: LE, RHS: 1.5},
		},
		Obj: []Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}},
	}
}

func ids(r Report) []string {
	out := make([]string, len(r))
	for i, d := range r {
		out[i] = d.ID
	}
	return out
}

func hasID(r Report, id string) bool {
	for _, d := range r {
		if d.ID == id {
			return true
		}
	}
	return false
}

func TestCleanModel(t *testing.T) {
	if rep := Check(base()); len(rep) != 0 {
		t.Fatalf("clean model produced diagnostics: %v", rep)
	}
}

func TestDiagnosticKinds(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name    string
		mutate  func(m *Model)
		wantID  string
		wantSev Severity
		wantVar string // expected Diagnostic.Var, "" = don't care
		wantCon string // expected Diagnostic.Con, "" = don't care
	}{
		{
			name: "unused variable",
			mutate: func(m *Model) {
				m.Vars = append(m.Vars, Var{Name: "dangling", Lo: 0, Hi: 5})
			},
			wantID: UnusedVar, wantSev: Warning, wantVar: "dangling",
		},
		{
			name: "zero-coefficient reference does not count as use",
			mutate: func(m *Model) {
				m.Vars = append(m.Vars, Var{Name: "ghost", Lo: 0, Hi: 5})
				m.Cons[0].Terms = append(m.Cons[0].Terms, Term{Var: 2, Coef: 0})
			},
			wantID: UnusedVar, wantSev: Warning, wantVar: "ghost",
		},
		{
			name: "contradictory bounds",
			mutate: func(m *Model) {
				m.Vars[1].Lo, m.Vars[1].Hi = 2, 1
			},
			wantID: BoundContradiction, wantSev: Error, wantVar: "x",
		},
		{
			name: "integer variable with no integer in range",
			mutate: func(m *Model) {
				m.Vars[0].Lo, m.Vars[0].Hi = 0.2, 0.8
			},
			wantID: IntBounds, wantSev: Error, wantVar: "b",
		},
		{
			name: "integer variable with fractional but satisfiable bounds",
			mutate: func(m *Model) {
				m.Vars[0].Hi = 1.5
			},
			wantID: IntBounds, wantSev: Info, wantVar: "b",
		},
		{
			name: "trivially infeasible LE",
			mutate: func(m *Model) {
				m.Cons[0].RHS = -1 // lhs ∈ [0, 2], can never be ≤ -1
			},
			wantID: TrivialInfeasible, wantSev: Error, wantCon: "cap",
		},
		{
			name: "trivially infeasible GE",
			mutate: func(m *Model) {
				m.Cons[0].Rel, m.Cons[0].RHS = GE, 3 // lhs ∈ [0, 2]
			},
			wantID: TrivialInfeasible, wantSev: Error, wantCon: "cap",
		},
		{
			name: "trivially infeasible EQ",
			mutate: func(m *Model) {
				m.Cons[0].Rel, m.Cons[0].RHS = EQ, 5
			},
			wantID: TrivialInfeasible, wantSev: Error, wantCon: "cap",
		},
		{
			name: "trivially redundant LE",
			mutate: func(m *Model) {
				m.Cons[0].RHS = 10 // lhs ∈ [0, 2] is always ≤ 10
			},
			wantID: TrivialRedundant, wantSev: Info, wantCon: "cap",
		},
		{
			name: "trivially redundant GE",
			mutate: func(m *Model) {
				m.Cons[0].Rel, m.Cons[0].RHS = GE, -1
			},
			wantID: TrivialRedundant, wantSev: Info, wantCon: "cap",
		},
		{
			name: "per-row coefficient range",
			mutate: func(m *Model) {
				m.Cons[0].Terms[0].Coef = 1e12 // next to the coefficient 1 term
				m.Cons[0].RHS = 1e12
			},
			wantID: CoeffRange, wantSev: Warning, wantCon: "cap",
		},
		{
			name: "duplicate constraint",
			mutate: func(m *Model) {
				dup := m.Cons[0]
				dup.Name = "cap-again"
				// Same row with terms reordered: still a duplicate.
				dup.Terms = []Term{{Var: 1, Coef: 1}, {Var: 0, Coef: 1}}
				m.Cons = append(m.Cons, dup)
			},
			wantID: DuplicateCon, wantSev: Warning, wantCon: "cap-again",
		},
		{
			name: "NaN coefficient",
			mutate: func(m *Model) {
				m.Cons[0].Terms[0].Coef = math.NaN()
			},
			wantID: NonFinite, wantSev: Error, wantCon: "cap",
		},
		{
			name: "infinite coefficient",
			mutate: func(m *Model) {
				m.Cons[0].Terms[0].Coef = inf
			},
			wantID: NonFinite, wantSev: Error, wantCon: "cap",
		},
		{
			name: "NaN RHS",
			mutate: func(m *Model) {
				m.Cons[0].RHS = math.NaN()
			},
			wantID: NonFinite, wantSev: Error, wantCon: "cap",
		},
		{
			name: "NaN bound",
			mutate: func(m *Model) {
				m.Vars[1].Hi = math.NaN()
			},
			wantID: NonFinite, wantSev: Error, wantVar: "x",
		},
		{
			name: "minus-infinite lower bound",
			mutate: func(m *Model) {
				m.Vars[1].Lo = math.Inf(-1)
			},
			wantID: NonFinite, wantSev: Error, wantVar: "x",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := base()
			tc.mutate(m)
			rep := Check(m)
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
			if tc.wantVar != "" && found.Var != tc.wantVar {
				t.Errorf("Var = %q, want %q", found.Var, tc.wantVar)
			}
			if tc.wantCon != "" && found.Con != tc.wantCon {
				t.Errorf("Con = %q, want %q", found.Con, tc.wantCon)
			}
		})
	}
}

func TestModelWideCoeffRange(t *testing.T) {
	m := base()
	// Each row is well-conditioned in isolation; the spread is cross-row.
	m.Vars = append(m.Vars, Var{Name: "y", Lo: 0, Hi: 1})
	m.Cons = append(m.Cons,
		Constraint{Name: "bigM", Terms: []Term{{Var: 2, Coef: 1e6}}, Rel: LE, RHS: 1e6},
		Constraint{Name: "prob", Terms: []Term{{Var: 2, Coef: 1e-6}}, Rel: LE, RHS: 1},
	)
	rep := Check(m)
	var found bool
	for _, d := range rep {
		if d.ID == CoeffRange && d.Con == "" {
			found = true
			if !strings.Contains(d.Message, "bigM") || !strings.Contains(d.Message, "prob") {
				t.Errorf("model-wide coeff-range should name both extreme rows: %s", d.Message)
			}
		}
	}
	if !found {
		t.Fatalf("want model-wide coeff-range diagnostic, got %v", rep)
	}
}

func TestUnboundedUpperIsLegal(t *testing.T) {
	m := base()
	m.Vars[1].Hi = math.Inf(1)
	// x unbounded above makes "cap" non-redundant and non-infeasible, and
	// +Inf upper bounds are legal — only the LE interval's hi becomes +Inf.
	for _, d := range Check(m) {
		if d.Severity == Error {
			t.Fatalf("unexpected error diagnostic: %s", d)
		}
	}
}

func TestTermBoundsZeroCoefTimesInf(t *testing.T) {
	lo, hi := TermBounds(0, 0, math.Inf(1))
	if lo != 0 || hi != 0 {
		t.Fatalf("TermBounds(0, 0, +Inf) = [%g, %g], want [0, 0]", lo, hi)
	}
	lo, hi = TermBounds(-2, 1, 3)
	if lo != -6 || hi != -2 {
		t.Fatalf("TermBounds(-2, 1, 3) = [%g, %g], want [-6, -2]", lo, hi)
	}
}

func TestReportHelpers(t *testing.T) {
	r := Report{
		{ID: UnusedVar, Severity: Warning, Var: "a", Message: "m"},
		{ID: TrivialInfeasible, Severity: Error, Con: "c", Message: "m"},
		{ID: TrivialRedundant, Severity: Info, Con: "d", Message: "m"},
	}
	if !r.HasErrors() || r.Count(Error) != 1 || r.Count(Warning) != 1 || r.Count(Info) != 1 {
		t.Fatalf("count helpers wrong: %+v", r)
	}
	if got := r.Filter(Warning); len(got) != 2 {
		t.Fatalf("Filter(Warning) = %v, want 2 diagnostics", got)
	}
	if s := r.String(); !strings.Contains(s, "error [trivial-infeasible] con c") {
		t.Fatalf("report rendering: %q", s)
	}
	var empty Report
	if empty.HasErrors() {
		t.Fatal("empty report has errors")
	}
}
