package lp

import (
	"math"
	"math/rand"
	"testing"
)

// Tests of the static triangular elimination order and of the step → slot
// map it introduced (factorize / orderSteps in sparse.go, ftran / btran in
// lu.go). The bit-identity referee takes the order as given; these check the
// order itself, and that the solves are right for a basis in any slot order.

// TestFactorOrder checks, on the optimal bases of the two large generated
// LPs, that the order is a permutation of the slots, that the unit columns
// fill the leading steps in slot order, that the structural columns follow
// by non-decreasing stored count with ties in slot order — and that this buys
// what it is for: at most a third of the L fill of slot-order elimination.
// The reach heap must hear only of rows a structural step pivoted on: its
// pops are bounded by the entries that can land on such rows (reachBound),
// which an entry on a unit-pivoted row never does.
func TestFactorOrder(t *testing.T) {
	for _, m := range []int{450, 2600} {
		_, s, _ := benchState(t, m)
		f := &s.fac
		seen := make([]bool, m)
		for _, k := range f.slot {
			if seen[k] {
				t.Fatalf("m=%d: slot %d eliminated twice", m, k)
			}
			seen[k] = true
		}
		count := func(step int) int32 { // stored entries of the structural column at step
			j := s.basic[f.slot[step]]
			return s.c.ptr[j+1] - s.c.ptr[j]
		}
		units := 0
		for int(s.basic[f.slot[units]]) >= s.nStr {
			units++
		}
		for k := 1; k < m; k++ {
			prev, cur := f.slot[k-1], f.slot[k]
			switch {
			case k < units:
				if prev > cur {
					t.Fatalf("m=%d: unit steps %d,%d out of slot order (%d,%d)", m, k-1, k, prev, cur)
				}
			case k == units:
			case int(s.basic[cur]) >= s.nStr:
				t.Fatalf("m=%d: unit column at step %d, behind a structural one", m, k)
			case count(k-1) > count(k) || count(k-1) == count(k) && prev > cur:
				t.Fatalf("m=%d: steps %d,%d out of order: counts %d,%d slots %d,%d",
					m, k-1, k, count(k-1), count(k), prev, cur)
			}
		}
		if units == 0 || units == m {
			t.Fatalf("m=%d: %d unit columns basic; the fixture lost its mix", m, units)
		}
		for k := 0; k < units; k++ {
			if f.lptr[k+1] != 0 || f.uptr[k+1] != 0 {
				t.Fatalf("m=%d: unit step %d has L or U entries", m, k)
			}
		}
		if int(f.unitSteps) != units {
			t.Fatalf("m=%d: %d unit steps recorded, %d taken", m, f.unitSteps, units)
		}
		onStruct, bound := reachBound(s)
		t.Logf("m=%d: %d reach-heap pops; %d U entries on structural steps, at most %d entries on their rows",
			m, f.reachPops, onStruct, bound)
		if f.reachPops < onStruct || f.reachPops > bound {
			t.Errorf("m=%d: %d reach-heap pops, want between %d and %d", m, f.reachPops, onStruct, bound)
		}

		var ref luFactor
		if !refFactorize(s, &ref, slotOrder(m), warmPivTol) {
			t.Fatalf("m=%d: slot-order referee reports the basis singular", m)
		}
		got, was := len(f.lval), len(ref.lval)
		t.Logf("m=%d: %d unit + %d structural steps, nnz(L) %d (slot order %d), nnz(U) %d (slot order %d)",
			m, units, m-units, got, was, len(f.uval), len(ref.uval))
		if 3*got > was {
			t.Errorf("m=%d: nnz(L) = %d, slot order gives %d; want at most a third", m, got, was)
		}
	}
}

// reachBound reads two bounds on the reach-heap pops off the factorization
// in s.fac. Every stored U entry that addresses a structural step was popped
// (the floor). Every pop is a row first stamped while a structural step
// already owned it, and a stamp is either a basis entry on such a row or one
// entry of an L column applied for a popped step (the ceiling).
func reachBound(s *spSolver) (onStruct, bound int) {
	f := &s.fac
	for k := int(f.unitSteps); k < f.m; k++ {
		j := s.basic[f.slot[k]]
		for e := s.c.ptr[j]; e < s.c.ptr[j+1]; e++ {
			if t := f.pstep[s.c.rix[e]]; t >= f.unitSteps && int(t) < k {
				bound++
			}
		}
		for e := f.uptr[k]; e < f.uptr[k+1]; e++ {
			if t := f.urow[e]; t >= f.unitSteps {
				onStruct++
				bound += int(f.lptr[t+1] - f.lptr[t])
			}
		}
	}
	return onStruct, bound
}

// TestAllUnitBasisPopsNothing: a slack basis is m finished steps; the heap
// is never touched.
func TestAllUnitBasisPopsNothing(t *testing.T) {
	p := genSparseLP(90, 90)
	c := mustCache(t, p)
	s := &c.s
	s.initCold(p, c)
	if !s.factorize(luPivotFloor) {
		t.Fatal("slack/artificial basis reported singular")
	}
	if f := &s.fac; f.reachPops != 0 || int(f.unitSteps) != s.m || len(f.uval) != 0 {
		t.Errorf("all-unit basis: %d pops, %d of %d unit steps, %d U entries; want 0, all, 0",
			f.reachPops, f.unitSteps, s.m, len(f.uval))
	}
}

// basisResiduals returns ‖B·x − b‖∞ for x = ftran(b) and ‖Bᵀ·y − c‖∞ for
// y = btran(c), b and c random, B assembled column by column from s.basic —
// so the check is independent of every index map inside the factors.
func basisResiduals(s *spSolver, rng *rand.Rand) (fres, bres float64) {
	m := s.m
	b, c := make([]float64, m), make([]float64, m)
	for i := range b {
		b[i], c[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	x, y := make([]float64, m), make([]float64, m)
	s.fac.ftran(append([]float64(nil), b...), nil, x)
	s.fac.btran(append([]float64(nil), c...), nil, y)
	bx := make([]float64, m)
	for k := 0; k < m; k++ {
		s.scatterColToW(int(s.basic[k]))
		dot := 0.0
		for i, v := range s.w {
			bx[i] += v * x[k]
			dot += v * y[i]
		}
		bres = math.Max(bres, math.Abs(dot-c[k]))
	}
	for i := range bx {
		fres = math.Max(fres, math.Abs(bx[i]-b[i]))
	}
	return fres, bres
}

// shuffledSlots returns b with its basic columns dealt to the slots at random.
func shuffledSlots(rng *rand.Rand, b *Basis) *Basis {
	basic := append([]int(nil), b.Basic...)
	rng.Shuffle(len(basic), func(i, j int) { basic[i], basic[j] = basic[j], basic[i] })
	return &Basis{Basic: basic, Stat: b.Stat}
}

// TestSolvesOnShuffledSlots is the test a step/slot mix-up fails. A basis is
// valid in any slot order, so it shuffles the optimal basis' slots, factors,
// and requires both solves to be right against B itself — fresh, and with 1
// and 40 etas on top (each a real column exchange on the largest pivot
// available, as the simplex would push it).
func TestSolvesOnShuffledSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, m := range []int{90, 450} {
		p, s, basis := benchState(t, m)
		if !s.initWarm(p, p.sp, shuffledSlots(rng, basis)) || !s.factorize(warmPivTol) {
			t.Fatalf("m=%d: shuffled basis rejected", m)
		}
		check := func() {
			t.Helper()
			if fres, bres := basisResiduals(s, rng); fres > 1e-9 || bres > 1e-9 {
				t.Fatalf("m=%d, %d etas: ‖B·ftran(b)−b‖∞ = %.3g, ‖Bᵀ·btran(c)−c‖∞ = %.3g",
					m, s.fac.nEtas(), fres, bres)
			}
		}
		check()
		for _, j := range nonbasicStructurals(s)[:maxEta] {
			sup := s.ftranColumn(j)
			r := 0
			for k, v := range s.alpha {
				if math.Abs(v) > math.Abs(s.alpha[r]) {
					r = k
				}
			}
			if math.Abs(s.alpha[r]) < etaPivFloor {
				t.Fatalf("m=%d: column %d has no usable pivot", m, j)
			}
			s.fac.pushEta(s.alpha, sup, r)
			s.basic[r] = int32(j)
			if n := s.fac.nEtas(); n == 1 || n == maxEta {
				check()
			}
		}
	}
}

// TestSingularBasesStillReported: the unit-column fast path and the
// reordering must not let a singular basis through. One basis holds the same
// structural column twice; the other holds both the slack and the artificial
// of one row, in either slot order.
func TestSingularBasesStillReported(t *testing.T) {
	_, s, _ := benchState(t, 90)
	var str []int // slots holding structural columns
	for k, j := range s.basic {
		if int(j) < s.nStr {
			str = append(str, k)
		}
	}
	s.basic[str[1]] = s.basic[str[0]]
	if s.factorize(warmPivTol) {
		t.Error("basis with a duplicated structural column factorized")
	}

	p := NewProblem(2)
	p.Hi = []float64{5, 5}
	p.AddRow([]int{0, 1}, []float64{1, 1}, GE, 2) // needs an artificial
	p.AddRow([]int{0, 1}, []float64{1, -1}, LE, 1)
	for _, swap := range []bool{false, true} {
		c := mustCache(t, p)
		s = &c.s
		s.initCold(p, c)
		if s.nArt != 1 || int(s.basic[0]) != s.nStr+s.m {
			t.Fatalf("fixture: want one artificial basic in slot 0, got nArt=%d basic=%v", s.nArt, s.basic)
		}
		s.basic[1] = int32(s.nStr) // row 0's slack, next to row 0's artificial
		if swap {
			s.basic[0], s.basic[1] = s.basic[1], s.basic[0]
		}
		if s.factorize(luPivotFloor) {
			t.Errorf("basis with row 0's slack and artificial both basic factorized (swap=%v)", swap)
		}
	}
}

// TestSolveFromShuffledBasis is the metamorphic check on the public API: over
// the 400-LP corpus, a warm re-solve from the parent basis with its Basic
// slots shuffled returns the same status and objective as from the basis as
// exported. Which slot holds which basic column is bookkeeping; nothing the
// solver returns may depend on it beyond rounding.
func TestSolveFromShuffledBasis(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	warmed := 0
	for trial := 0; trial < 400; trial++ {
		p := genLP(rng)
		parent, err := Solve(p, nil)
		if err != nil {
			t.Fatalf("trial %d: parent solve: %v", trial, err)
		}
		if parent.Status != Optimal || parent.Basis == nil {
			continue
		}
		tightenRandomBound(rng, p)
		want, err := SolveFrom(p, parent.Basis, nil)
		if err != nil {
			t.Fatalf("trial %d: warm solve: %v", trial, err)
		}
		got, err := SolveFrom(p, shuffledSlots(rng, parent.Basis), nil)
		if err != nil {
			t.Fatalf("trial %d: shuffled warm solve: %v", trial, err)
		}
		if got.Status != want.Status || got.WarmStarted != want.WarmStarted {
			t.Fatalf("trial %d: shuffled basis gives %v (warm %v), exported order %v (warm %v)",
				trial, got.Status, got.WarmStarted, want.Status, want.WarmStarted)
		}
		if got.Status == Optimal && math.Abs(got.Objective-want.Objective) > 1e-9 {
			t.Fatalf("trial %d: shuffled basis objective %.12g, exported order %.12g", trial, got.Objective, want.Objective)
		}
		if got.WarmStarted {
			warmed++
		}
	}
	if warmed < 100 {
		t.Fatalf("only %d of 400 trials took the warm path", warmed)
	}
}

// TestSolveFromRejectsRepeatedColumn: a Basic that passes every length and
// status check but names one column twice (and so leaves another basic
// column without a slot) must take the cold path on both cores. The check
// lives where each core builds its column → slot map, not in Basis.valid.
func TestSolveFromRejectsRepeatedColumn(t *testing.T) {
	p := NewProblem(2)
	p.Cost = []float64{-1, -1}
	p.Hi = []float64{3, 3}
	p.AddRow([]int{0, 1}, []float64{1, 1}, LE, 4)
	p.AddRow([]int{0, 1}, []float64{1, -1}, LE, 1)
	want := solveOK(t, p)
	bad := &Basis{Basic: []int{0, 0}, Stat: []BasisStatus{BasisBasic, BasisBasic, BasisAtLower, BasisAtLower}}
	try := func(core string, sol *Solution) {
		if sol.WarmStarted {
			t.Errorf("%s: basis naming column 0 twice took the warm path", core)
		}
		if sol.Status != Optimal || math.Abs(sol.Objective-want.Objective) > 1e-9 {
			t.Errorf("%s: fallback result %v %g, want optimal %g", core, sol.Status, sol.Objective, want.Objective)
		}
	}
	sol, err := SolveFrom(p, bad, nil)
	if err != nil {
		t.Fatalf("sparse: %v", err)
	}
	try("sparse", sol)
	try("dense", denseFrom(p, bad, nil))
	// A repeated column also makes the basis singular, so the factorization
	// would turn it away on rounding; the structural check must come first.
	if c := mustCache(t, p); c.s.initWarm(p, c, bad) {
		t.Error("initWarm accepted a basis naming column 0 twice")
	}
}

// TestWarmResolveAllocs pins what one branch-and-bound node costs the
// garbage collector in this package: the Solution, its X, and the exported
// Basis with its two slices. Everything else — validation included — runs on
// the cache's workspace.
func TestWarmResolveAllocs(t *testing.T) {
	p, s, basis := benchState(t, 90)
	x := s.structX(p)
	j := 0
	for s.stat[j] != basic {
		j++
	}
	p.Hi[j] = (p.Lo[j] + x[j]) / 2 // forces dual pivots
	allocs := testing.AllocsPerRun(50, func() {
		if sol, err := SolveFrom(p, basis, nil); err != nil || !sol.WarmStarted {
			t.Fatalf("warm re-solve failed: %v %+v", err, sol)
		}
	})
	if allocs != 5 {
		t.Errorf("warm re-solve: %v allocations per run, pinned 5", allocs)
	}
}
