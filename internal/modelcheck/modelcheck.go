package modelcheck

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"raha/internal/tol"
)

// Severity grades a diagnostic. Error-severity diagnostics make the
// pre-solve gate refuse the model; warnings and infos are advisory.
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

// Diagnostic ids. Stable strings: they key trace events, test assertions,
// and the DESIGN.md catalogue.
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

// Diagnostic is one finding of the pass.
type Diagnostic struct {
	ID       string // catalogue id, e.g. "unused-var"
	Severity Severity
	Var      string // variable name, when the finding is about a variable
	Con      string // constraint name, when the finding is about a row
	Message  string
}

func (d Diagnostic) String() string {
	where := ""
	switch {
	case d.Con != "":
		where = " con " + d.Con
	case d.Var != "":
		where = " var " + d.Var
	}
	return fmt.Sprintf("%s [%s]%s: %s", d.Severity, d.ID, where, d.Message)
}

// Report is the ordered diagnostic list of one Check run.
type Report []Diagnostic

// Count returns how many diagnostics have exactly severity s.
func (r Report) Count(s Severity) int {
	n := 0
	for _, d := range r {
		if d.Severity == s {
			n++
		}
	}
	return n
}

// HasErrors reports whether any diagnostic is error-severity.
func (r Report) HasErrors() bool { return r.Count(Error) > 0 }

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

// Rel is a constraint relation, mirroring package lp's ordering.
type Rel int8

// Constraint relations.
const (
	LE Rel = iota
	GE
	EQ
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return "?"
}

// Var is one model variable of the neutral representation.
type Var struct {
	Name    string
	Lo, Hi  float64
	Integer bool // integer or binary
}

// Term is a coefficient applied to variable index Var.
type Term struct {
	Var  int
	Coef float64
}

// Constraint is one row Σ Coef·x Rel RHS.
type Constraint struct {
	Name  string
	Terms []Term
	Rel   Rel
	RHS   float64
}

// Model is the neutral MILP representation the pass walks. Adapters (see
// checkModel in metaopt's tests) fill it from their own model types.
type Model struct {
	Vars []Var
	Cons []Constraint
	Obj  []Term // objective terms; the constant and sense are irrelevant here
}

// condRatio is the max/min |coefficient| ratio (per row and model-wide)
// beyond which a conditioning warning fires — the classic rule of thumb for
// double-precision simplex trouble. The feasibility and integrality
// tolerances are package tol's, so "trivially infeasible" here means the LP
// would agree, and "no integer in range" means branch and bound would.
const condRatio = 1e8

// TermBounds returns the interval of c·x for x ∈ [lo, hi], with the
// convention that a zero coefficient contributes exactly [0, 0] — never the
// IEEE 0·±Inf = NaN (the bug class the non-finite check exists for).
func TermBounds(c, lo, hi float64) (float64, float64) {
	if c == 0 {
		return 0, 0
	}
	a, b := c*lo, c*hi
	if a > b {
		a, b = b, a
	}
	return a, b
}

// exprBounds is interval arithmetic over a row: the tightest [lo, hi] the
// row's left-hand side can take inside the variable bound box.
func (m *Model) exprBounds(terms []Term) (lo, hi float64) {
	var act Activity
	for _, t := range terms {
		act.Add(t.Coef, m.Vars[t.Var].Lo, m.Vars[t.Var].Hi)
	}
	if act.NaN {
		// Preserve NaN poisoning: a NaN bound must not silently drop out of
		// the interval (every comparison against NaN is false, so the row
		// draws no interval diagnostic — the non-finite check owns it).
		return math.NaN(), math.NaN()
	}
	return act.Lo(), act.Hi()
}

// Check runs every diagnostic over the model and returns the findings:
// variable checks first (in variable order), then per-row checks (in row
// order), then the model-wide coefficient-range check.
func Check(m *Model) Report {
	var rep Report
	rep = append(rep, checkVars(m)...)
	rep = append(rep, checkCons(m)...)
	rep = append(rep, checkCoeffRange(m)...)
	return rep
}

// checkVars covers unused-var, bound-contradiction, int-bounds, and
// non-finite bounds.
func checkVars(m *Model) Report {
	used := make([]bool, len(m.Vars))
	mark := func(terms []Term) {
		for _, t := range terms {
			if t.Var >= 0 && t.Var < len(used) && t.Coef != 0 {
				used[t.Var] = true
			}
		}
	}
	for i := range m.Cons {
		mark(m.Cons[i].Terms)
	}
	mark(m.Obj)

	var rep Report
	for i := range m.Vars {
		v := &m.Vars[i]
		if math.IsNaN(v.Lo) || math.IsNaN(v.Hi) || math.IsInf(v.Lo, 0) {
			// A -Inf lower bound breaks the bounded simplex; +Inf uppers are
			// legal, NaN anywhere is not.
			rep = append(rep, Diagnostic{
				ID: NonFinite, Severity: Error, Var: v.Name,
				Message: fmt.Sprintf("bounds [%g, %g] must be finite below and non-NaN", v.Lo, v.Hi),
			})
			continue
		}
		if v.Lo > v.Hi {
			rep = append(rep, Diagnostic{
				ID: BoundContradiction, Severity: Error, Var: v.Name,
				Message: fmt.Sprintf("lower bound %g exceeds upper bound %g", v.Lo, v.Hi),
			})
			continue
		}
		if v.Integer && !math.IsInf(v.Hi, 1) {
			// Tightened fractional bounds: the variable's feasible integers
			// are [ceil(lo), floor(hi)] — empty means no branch can fix it.
			ilo, ihi := math.Ceil(v.Lo-tol.Int), math.Floor(v.Hi+tol.Int)
			if ilo > ihi {
				rep = append(rep, Diagnostic{
					ID: IntBounds, Severity: Error, Var: v.Name,
					Message: fmt.Sprintf("integer variable has no integer value in [%g, %g]", v.Lo, v.Hi),
				})
			} else if frac(v.Lo) || frac(v.Hi) {
				rep = append(rep, Diagnostic{
					ID: IntBounds, Severity: Info, Var: v.Name,
					Message: fmt.Sprintf("integer variable has fractional bounds [%g, %g] (tightenable to [%g, %g])", v.Lo, v.Hi, ilo, ihi),
				})
			}
		}
		if !used[i] {
			rep = append(rep, Diagnostic{
				ID: UnusedVar, Severity: Warning, Var: v.Name,
				Message: "variable appears in no constraint and not in the objective",
			})
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
func checkCons(m *Model) Report {
	var rep Report
	seen := make(map[string]string, len(m.Cons)) // normalized row -> first name
	for i := range m.Cons {
		c := &m.Cons[i]
		if d, ok := rowNonFinite(m, c); ok {
			rep = append(rep, d)
			continue // interval math on a poisoned row would only cascade
		}

		lo, hi := m.exprBounds(c.Terms)
		switch c.Rel {
		case LE:
			if lo > c.RHS+tol.Feas {
				rep = append(rep, infeasible(c, lo, hi))
			} else if hi <= c.RHS+tol.Feas {
				rep = append(rep, redundant(c, lo, hi))
			}
		case GE:
			if hi < c.RHS-tol.Feas {
				rep = append(rep, infeasible(c, lo, hi))
			} else if lo >= c.RHS-tol.Feas {
				rep = append(rep, redundant(c, lo, hi))
			}
		case EQ:
			if lo > c.RHS+tol.Feas || hi < c.RHS-tol.Feas {
				rep = append(rep, infeasible(c, lo, hi))
			} else if lo >= c.RHS-tol.Feas && hi <= c.RHS+tol.Feas {
				rep = append(rep, redundant(c, lo, hi))
			}
		}

		if min, max, ok := coefRange(c.Terms); ok && max/min > condRatio {
			rep = append(rep, Diagnostic{
				ID: CoeffRange, Severity: Warning, Con: c.Name,
				Message: fmt.Sprintf("coefficient magnitudes span [%g, %g] (ratio %.1e > %.1e): likely Big-M conditioning trouble", min, max, max/min, condRatio),
			})
		}

		key := rowKey(c)
		if first, dup := seen[key]; dup {
			rep = append(rep, Diagnostic{
				ID: DuplicateCon, Severity: Warning, Con: c.Name,
				Message: fmt.Sprintf("duplicate of constraint %q", first),
			})
		} else {
			seen[key] = c.Name
		}
	}
	return rep
}

// checkCoeffRange is the model-wide conditioning check: the spread between
// the largest and smallest |coefficient| across every row (the matrix range
// a solver log would report). Individual rows are checked in checkCons;
// this catches the cross-row case — e.g. one Big-M row of magnitude 1e9
// next to probability rows of magnitude 1e-6, each fine in isolation.
func checkCoeffRange(m *Model) Report {
	var minC, maxC float64
	var minCon, maxCon string
	ok := false
	for i := range m.Cons {
		c := &m.Cons[i]
		lo, hi, rowOK := coefRange(c.Terms)
		if !rowOK {
			continue
		}
		if !ok || lo < minC {
			minC, minCon = lo, c.Name
		}
		if !ok || hi > maxC {
			maxC, maxCon = hi, c.Name
		}
		ok = true
	}
	if !ok || maxC/minC <= condRatio {
		return nil
	}
	return Report{{
		ID: CoeffRange, Severity: Warning,
		Message: fmt.Sprintf("matrix coefficient magnitudes span [%g (%s), %g (%s)] (ratio %.1e > %.1e)",
			minC, minCon, maxC, maxCon, maxC/minC, condRatio),
	}}
}

func rowNonFinite(m *Model, c *Constraint) (Diagnostic, bool) {
	if math.IsNaN(c.RHS) || math.IsInf(c.RHS, 0) {
		return Diagnostic{
			ID: NonFinite, Severity: Error, Con: c.Name,
			Message: fmt.Sprintf("right-hand side is %g", c.RHS),
		}, true
	}
	for _, t := range c.Terms {
		if math.IsNaN(t.Coef) || math.IsInf(t.Coef, 0) {
			name := "?"
			if t.Var >= 0 && t.Var < len(m.Vars) {
				name = m.Vars[t.Var].Name
			}
			return Diagnostic{
				ID: NonFinite, Severity: Error, Con: c.Name,
				Message: fmt.Sprintf("coefficient of %s is %g", name, t.Coef),
			}, true
		}
	}
	return Diagnostic{}, false
}

func infeasible(c *Constraint, lo, hi float64) Diagnostic {
	return Diagnostic{
		ID: TrivialInfeasible, Severity: Error, Con: c.Name,
		Message: fmt.Sprintf("lhs ranges over [%g, %g] and can never satisfy %s %g", lo, hi, c.Rel, c.RHS),
	}
}

func redundant(c *Constraint, lo, hi float64) Diagnostic {
	return Diagnostic{
		ID: TrivialRedundant, Severity: Info, Con: c.Name,
		Message: fmt.Sprintf("lhs ranges over [%g, %g] and always satisfies %s %g", lo, hi, c.Rel, c.RHS),
	}
}

// coefRange returns the min and max |coefficient| over nonzero terms.
func coefRange(terms []Term) (min, max float64, ok bool) {
	for _, t := range terms {
		a := math.Abs(t.Coef)
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
func rowKey(c *Constraint) string {
	merged := make(map[int]float64, len(c.Terms))
	for _, t := range c.Terms {
		merged[t.Var] += t.Coef
	}
	idx := make([]int, 0, len(merged))
	for v, coef := range merged {
		if coef != 0 {
			idx = append(idx, v)
		}
	}
	sort.Ints(idx)
	var b strings.Builder
	fmt.Fprintf(&b, "%d|%b|", c.Rel, c.RHS)
	for _, v := range idx {
		fmt.Fprintf(&b, "%d:%b,", v, merged[v])
	}
	return b.String()
}
