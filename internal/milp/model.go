package milp

import (
	"fmt"
	"math"

	"raha/internal/lp"
)

// VarType classifies a model variable.
type VarType int8

// Variable types.
const (
	Continuous VarType = iota
	Binary
	Integer
)

// Var identifies a variable within its Model.
type Var int

// Term is a coefficient applied to a variable.
type Term struct {
	V Var
	C float64
}

// Expr is a linear expression Σ terms + Const.
type Expr struct {
	Terms []Term
	Const float64
}

// NewExpr builds an expression from alternating coefficient/variable pairs.
func NewExpr(terms ...Term) Expr { return Expr{Terms: terms} }

// T is shorthand for a Term.
func T(c float64, v Var) Term { return Term{V: v, C: c} }

// Add appends c·v to the expression.
func (e *Expr) Add(c float64, v Var) { e.Terms = append(e.Terms, Term{V: v, C: c}) }

// AddExpr appends every term (and the constant) of o, scaled by c.
func (e *Expr) AddExpr(c float64, o Expr) {
	for _, t := range o.Terms {
		e.Terms = append(e.Terms, Term{V: t.V, C: c * t.C})
	}
	e.Const += c * o.Const
}

// AddConst adds a constant to the expression.
func (e *Expr) AddConst(c float64) { e.Const += c }

// Sense is the optimization direction.
type Sense int8

// Optimization senses.
const (
	Maximize Sense = iota
	Minimize
)

// Rel aliases the constraint relations of package lp.
type Rel = lp.Rel

// Constraint relations.
const (
	LE = lp.LE
	GE = lp.GE
	EQ = lp.EQ
)

type constraint struct {
	expr Expr
	rel  Rel
	rhs  float64
	name string
}

// Model is a MILP under construction.
type Model struct {
	names []string
	lo    []float64
	hi    []float64
	vtype []VarType
	cons  []constraint
	obj   Expr
	sense Sense
}

// NewModel returns an empty model (default sense: Maximize, matching Raha's
// outer problem).
func NewModel() *Model { return &Model{} }

// NumVars reports the number of variables created so far.
func (m *Model) NumVars() int { return len(m.lo) }

// NumConstraints reports the number of constraint rows added so far.
func (m *Model) NumConstraints() int { return len(m.cons) }

// NewVar creates a variable with the given bounds and type. The lower bound
// must be finite.
func (m *Model) NewVar(lo, hi float64, t VarType, name string) Var {
	if math.IsInf(lo, -1) {
		panic(fmt.Sprintf("milp: variable %q needs a finite lower bound", name))
	}
	if t == Binary {
		if lo < 0 {
			lo = 0
		}
		if hi > 1 {
			hi = 1
		}
	}
	m.names = append(m.names, name)
	m.lo = append(m.lo, lo)
	m.hi = append(m.hi, hi)
	m.vtype = append(m.vtype, t)
	return Var(len(m.lo) - 1)
}

// BinaryVar creates a {0,1} variable.
func (m *Model) BinaryVar(name string) Var { return m.NewVar(0, 1, Binary, name) }

// ContinuousVar creates a bounded continuous variable.
func (m *Model) ContinuousVar(lo, hi float64, name string) Var {
	return m.NewVar(lo, hi, Continuous, name)
}

// Name returns the variable's name.
func (m *Model) Name(v Var) string { return m.names[v] }

// Bounds returns the variable's bounds.
func (m *Model) Bounds(v Var) (lo, hi float64) { return m.lo[v], m.hi[v] }

// TypeOf returns the variable's type.
func (m *Model) TypeOf(v Var) VarType { return m.vtype[v] }

// ConstraintAt returns row i of the model: its expression (shared storage —
// callers must not mutate the terms), relation, right-hand side, and name.
// Together with Objective it is the read-only view the modelcheck diagnostic
// pass walks.
func (m *Model) ConstraintAt(i int) (expr Expr, rel Rel, rhs float64, name string) {
	c := &m.cons[i]
	return c.expr, c.rel, c.rhs, c.name
}

// Objective returns the model's objective expression (shared storage) and
// optimization sense.
func (m *Model) Objective() (Expr, Sense) { return m.obj, m.sense }

// SetBounds tightens or replaces the variable's bounds.
func (m *Model) SetBounds(v Var, lo, hi float64) {
	m.lo[v], m.hi[v] = lo, hi
}

// Fix pins a variable to a value.
func (m *Model) Fix(v Var, val float64) { m.SetBounds(v, val, val) }

// Add appends the constraint expr rel rhs. The expression's constant is
// folded into the right-hand side.
func (m *Model) Add(expr Expr, rel Rel, rhs float64, name string) {
	m.cons = append(m.cons, constraint{expr: expr, rel: rel, rhs: rhs - expr.Const, name: name})
	m.cons[len(m.cons)-1].expr.Const = 0
}

// SetObjective installs the objective.
func (m *Model) SetObjective(e Expr, s Sense) {
	m.obj = e
	m.sense = s
}

// Value evaluates an expression at a point.
func Value(e Expr, x []float64) float64 {
	s := e.Const
	for _, t := range e.Terms {
		s += t.C * x[t.V]
	}
	return s
}

// exprBounds returns the tightest interval the expression can take given the
// current variable bounds.
func (m *Model) exprBounds(e Expr) (lo, hi float64) {
	lo, hi = e.Const, e.Const
	for _, t := range e.Terms {
		if t.C == 0 {
			// A zero coefficient contributes exactly 0 even when the
			// variable's upper bound is +Inf; the IEEE product 0·±Inf = NaN
			// would otherwise poison every Big-M derived from this interval.
			continue
		}
		a, b := t.C*m.lo[t.V], t.C*m.hi[t.V]
		if a > b {
			a, b = b, a
		}
		lo += a
		hi += b
	}
	return lo, hi
}

// Product returns a variable y constrained to equal b·x for a binary b and a
// bounded continuous x, via the exact McCormick envelope. This is the
// construct Raha's "non-convexity extraction" (§5) leans on: products of
// outer-problem binaries with dual variables.
func (m *Model) Product(b, x Var, name string) Var {
	if m.vtype[b] != Binary {
		panic("milp: Product requires a binary first operand")
	}
	lo, hi := m.lo[x], m.hi[x]
	if math.IsInf(hi, 1) {
		panic(fmt.Sprintf("milp: Product requires bounded %q", m.names[x]))
	}
	ylo, yhi := math.Min(0, lo), math.Max(0, hi)
	y := m.ContinuousVar(ylo, yhi, name)
	// y ≤ hi·b ; y ≥ lo·b ; y ≤ x − lo(1−b) ; y ≥ x − hi(1−b)
	m.Add(NewExpr(T(1, y), T(-hi, b)), LE, 0, name+":ub")
	m.Add(NewExpr(T(1, y), T(-lo, b)), GE, 0, name+":lb")
	m.Add(NewExpr(T(1, y), T(-1, x), T(-lo, b)), LE, -lo, name+":xu")
	m.Add(NewExpr(T(1, y), T(-1, x), T(-hi, b)), GE, -hi, name+":xl")
	return y
}

// IndicatorGE returns a binary z with z = 1 ⇔ expr ≥ rhs. The expression
// must have finite bounds under the current variable bounds. eps is the
// smallest meaningful violation of the inequality (use 1 for all-integer
// expressions, where the encoding is exact; this is how Raha linearizes the
// fail-over indicator of Eq. 5).
func (m *Model) IndicatorGE(expr Expr, rhs, eps float64, name string) Var {
	lo, hi := m.exprBounds(expr)
	if math.IsInf(lo, -1) || math.IsInf(hi, 1) {
		panic(fmt.Sprintf("milp: IndicatorGE %q needs bounded expression", name))
	}
	z := m.BinaryVar(name)
	// z = 0 ⇒ expr ≤ rhs − eps:  expr ≤ rhs − eps + (hi − rhs + eps)·z
	up := NewExpr()
	up.AddExpr(1, expr)
	up.Add(-(hi - rhs + eps), z)
	m.Add(up, LE, rhs-eps, name+":off")
	// z = 1 ⇒ expr ≥ rhs:  expr ≥ rhs − (rhs − lo)(1 − z)
	dn := NewExpr()
	dn.AddExpr(1, expr)
	dn.Add(-(rhs - lo), z)
	m.Add(dn, GE, lo, name+":on")
	return z
}

// reuseLP lowers the model into prob's storage when possible. The lowered
// rows and objective depend only on the model — never on the per-node
// bounds branch and bound varies — so a worker's scratch problem is reused
// by copying the new bound vectors over it; only the first call per worker
// (prob nil) pays the full toLP build. The model must not be mutated while
// solves are running (the same contract SolveContext documents).
func (m *Model) reuseLP(prob *lp.Problem, lo, hi []float64) *lp.Problem {
	if prob == nil {
		return m.toLP(lo, hi)
	}
	copy(prob.Lo, lo)
	copy(prob.Hi, hi)
	return prob
}

// toLP lowers the model to an lp.Problem using the supplied bound vectors
// (branch-and-bound passes per-node bounds). Maximization is negated.
func (m *Model) toLP(lo, hi []float64) *lp.Problem {
	p := lp.NewProblem(len(m.lo))
	copy(p.Lo, lo)
	copy(p.Hi, hi)
	sgn := 1.0
	if m.sense == Maximize {
		sgn = -1
	}
	for _, t := range m.obj.Terms {
		p.Cost[t.V] += sgn * t.C
	}
	for i := range m.cons {
		c := &m.cons[i]
		//raha:lint-allow hot-alloc AddRow retains both slices as the row's storage; lowering runs once per solve (reuseLP skips it per node)
		idx, coef := make([]int, len(c.expr.Terms)), make([]float64, len(c.expr.Terms))
		for k, t := range c.expr.Terms {
			idx[k] = int(t.V)
			coef[k] = t.C
		}
		p.AddRow(idx, coef, c.rel, c.rhs)
	}
	return p
}
