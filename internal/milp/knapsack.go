package milp

import (
	"fmt"
	"math"
	"sort"

	"raha/internal/tol"
)

// Knapsack is a caller-proved bound on a Maximize model's objective that
// holds box by box (Params.Knapsack). The caller guarantees two things about
// every feasible point x of the model:
//
//   - objective(x) ≤ Σ_i Weight[i]·x[Vars[i]], with every Weight[i] ≥ 0;
//   - the binaries Vars satisfy the budget rows Σ_i Coef[i]·x[Vars[i]] ≥ RHS
//     (when Coef is non-nil) and Σ_i x[Vars[i]] ≤ Count (when Count > 0).
//
// Then no point of a subtree is better than the weight of the Vars its box
// fixes to 1 plus the largest weight the Vars still free can add under the
// budget rows — which Bound relaxes to an LP that needs no solver.
type Knapsack struct {
	Vars   []Var
	Weight []float64
	Coef   []float64 // nil: no probability row
	RHS    float64
	Count  int // ≤ 0: no count row
}

// Bound returns the knapsack's bound over the box lo/hi (indexed by model
// variable; Vars are binaries, so lo[v] > ½ fixes v to 1 and hi[v] < ½ to
// 0): the weight of the Vars fixed to 1 plus the smaller of the two LP
// relaxations over the free ones, −Inf when the box leaves no point inside
// the budget rows. It is the model-space form of what the search evaluates
// at every child.
func (k *Knapsack) Bound(lo, hi []float64) float64 {
	return newBoxBound(k, nil).value(lo, hi)
}

// validate checks the knapsack against the model it is handed to.
func (k *Knapsack) validate(m *Model) error {
	if m.sense != Maximize {
		return fmt.Errorf("milp: Params.Knapsack bounds a Maximize model only")
	}
	if len(k.Weight) != len(k.Vars) || k.Coef != nil && len(k.Coef) != len(k.Vars) {
		return fmt.Errorf("milp: Params.Knapsack has %d vars, %d weights, %d coefficients", len(k.Vars), len(k.Weight), len(k.Coef))
	}
	for i, v := range k.Vars {
		if v < 0 || int(v) >= m.NumVars() || m.vtype[v] != Binary {
			return fmt.Errorf("milp: Params.Knapsack var %d is not a binary of the model", v)
		}
		if w := k.Weight[i]; !(w >= 0) || math.IsInf(w, 1) {
			return fmt.Errorf("milp: Params.Knapsack weight %g of var %d is not finite and non-negative", w, v)
		}
	}
	return nil
}

// boxBound is a Knapsack mapped into the searched space once per solve:
// the Vars presolve fixed are folded into constants, and the two orders the
// relaxations scan in are sorted up front, so a node pays one pass over the
// Vars per relaxation.
type boxBound struct {
	vars      []Var // searched-space index of each Var presolve kept
	w, coef   []float64
	base      float64 // weight of the Vars presolve fixed to 1
	rhs       float64 // RHS less their coefficients
	count     int     // Count less their number
	prob, cnt bool    // which rows the knapsack has
	feasTol   float64

	byRatio  []int // Vars with coef < 0, largest w/|coef| first
	byWeight []int // all Vars, heaviest first
}

// newBoxBound maps k through post (nil: the identity, presolve off).
func newBoxBound(k *Knapsack, post *postsolve) *boxBound {
	b := &boxBound{rhs: k.RHS, count: k.Count, prob: k.Coef != nil, cnt: k.Count > 0}
	var idx []Var // original → searched index, −1 for a substituted variable
	if post != nil {
		idx = make([]Var, post.n)
		for v := range idx {
			idx[v] = -1
		}
		for j, v := range post.keep {
			idx[v] = Var(j)
		}
	}
	for i, v := range k.Vars {
		c := 0.0
		if b.prob {
			c = k.Coef[i]
		}
		if idx != nil {
			if idx[v] < 0 {
				if post.fixed[v] > 0.5 {
					b.base += k.Weight[i]
					b.rhs -= c
					b.count--
				}
				continue
			}
			v = idx[v]
		}
		b.vars = append(b.vars, v)
		b.w = append(b.w, k.Weight[i])
		b.coef = append(b.coef, c)
	}
	// The model's own row is held to the LP's feasibility tolerance; the
	// relaxation grants it the same slack, so it never rules out a box the
	// search would still call feasible.
	b.feasTol = tol.Feas * (1 + math.Abs(k.RHS))
	b.byWeight = make([]int, len(b.vars))
	for i := range b.byWeight {
		b.byWeight[i] = i
		if b.coef[i] < 0 {
			b.byRatio = append(b.byRatio, i)
		}
	}
	sort.SliceStable(b.byWeight, func(x, y int) bool { return b.w[b.byWeight[x]] > b.w[b.byWeight[y]] })
	sort.SliceStable(b.byRatio, func(x, y int) bool {
		i, j := b.byRatio[x], b.byRatio[y]
		return b.w[i]/-b.coef[i] > b.w[j]/-b.coef[j]
	})
	return b
}

// value is the knapsack bound over the box lo/hi in the searched space.
//
// Without rows, the free Vars could add all their weight. The probability
// row's relaxation first takes every free Var whose coefficient is ≥ 0 (a
// link with π ≥ ½): taking it adds weight and only loosens the row, so the
// LP optimum takes it whole. Only then is the row's slack known; a negative
// one means no point of the box meets the row. The slack is spent
// fractionally on the other free Vars, best weight per unit of coefficient
// first — the LP optimum of a one-row knapsack. The count row's relaxation
// is the heaviest free Vars, as many as the count has left. Each relaxes the
// other row away, so the smallest of the three is still a bound.
func (b *boxBound) value(lo, hi []float64) float64 {
	fixed, rhs, left := b.base, b.rhs, b.count
	all, free := 0.0, func(i int) bool { v := b.vars[i]; return lo[v] < 0.5 && hi[v] > 0.5 }
	for i, v := range b.vars {
		if lo[v] > 0.5 {
			fixed += b.w[i]
			rhs -= b.coef[i]
			left--
		} else if hi[v] > 0.5 {
			all += b.w[i]
		}
	}
	best := all

	if b.prob {
		add := 0.0
		for i := range b.vars {
			if b.coef[i] >= 0 && free(i) {
				add += b.w[i]
				rhs -= b.coef[i]
			}
		}
		slack := b.feasTol - rhs
		if slack < 0 {
			return math.Inf(-1)
		}
		for _, i := range b.byRatio {
			if slack <= 0 {
				break
			}
			if !free(i) {
				continue
			}
			if cost := -b.coef[i]; cost <= slack {
				add += b.w[i]
				slack -= cost
			} else {
				add += b.w[i] * slack / cost
				slack = 0
			}
		}
		best = math.Min(best, add)
	}
	if b.cnt {
		if left < 0 {
			return math.Inf(-1)
		}
		add := 0.0
		for _, i := range b.byWeight {
			if left == 0 {
				break
			}
			if free(i) {
				add += b.w[i]
				left--
			}
		}
		best = math.Min(best, add)
	}
	return fixed + best
}

// capByBudget reports whether a new child can be discarded on the
// knapsack's bound over its box — the box leaves nothing inside the budget
// rows, or nothing the incumbent has not reached — and otherwise caps the
// child's inherited bound at it. A knapsack that never binds leaves the
// search exactly as it would run without one.
func (s *search) capByBudget(c *node) bool {
	b := s.budget.value(c.lo, c.hi)
	if inc, ok := s.incumbentObj(); math.IsInf(b, -1) || ok && s.reached(inc, b) {
		return true
	}
	if s.better(c.relax, b) {
		c.relax = b
	}
	return false
}
