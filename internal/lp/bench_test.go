package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Layer benchmarks for the LP kernels (ROADMAP item 1a): factorize, FTRAN,
// unit BTRAN, the dual pivot row, a whole warm re-solve and a whole cold
// solve, each at three basis sizes — the fleet sweep's small cells, a
// Uninett2010 analysis and an AfricaWAN alert. The LPs are generated
// (internal/lp cannot import the model builders) to the shape those relaxations have: a few nonzeros per
// column and an optimal basis that is mostly slack (at m = 2,600 about 800
// structural columns basic, nnz(L) ≈ 3,200, nnz(U) ≈ 3,900 — AfricaWAN's
// root bases measure 600, 2,500–4,000 and 2,000–4,000). Every kernel
// benchmark reports nnz-touched/op next to ns/op — the matrix and factor
// entries one call visits, counted by the replicas at the bottom of this
// file — so a kernel whose time grows faster than what it touches shows —
// and the solves next to it report words-walked/op, the 64-bit words of
// their support bitsets one call reads: the part of their cost that grows
// with m rather than with what they touch, which is what would show at the
// fleet's m = 90 if the bitsets cost more than they save.
//
//	go test ./internal/lp -run '^$' -bench . -benchtime 200x

var benchSizes = []int{90, 450, 2600}

// genSparseLP builds a feasible, bounded m-row LP with m structural columns
// of two to seven nonzeros each, in random rows. Half the costs are positive
// and the right-hand sides are loose, so most columns rest at a bound and
// most rows keep their slack basic.
func genSparseLP(seed int64, m int) *Problem { return genSparseLPCols(seed, m, m, false) }

// genSparseLPCols is genSparseLP with n columns; allPay makes every cost
// negative, so every column wants to rise and more rows end up tight.
func genSparseLPCols(seed int64, m, n int, allPay bool) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := NewProblem(n)
	rows := make([][]int, m)
	coefs := make([][]float64, m)
	for j := 0; j < n; j++ {
		p.Cost[j] = rng.NormFloat64()
		if allPay {
			p.Cost[j] = -math.Abs(p.Cost[j])
		}
		p.Hi[j] = 1 + 4*rng.Float64()
		for k := 2 + rng.Intn(6); k > 0; k-- {
			i := rng.Intn(m)
			rows[i] = append(rows[i], j)
			coefs[i] = append(coefs[i], 0.5+1.5*rng.Float64())
		}
	}
	for i := 0; i < m; i++ {
		if len(rows[i]) == 0 {
			rows[i], coefs[i] = []int{rng.Intn(n)}, []float64{1}
		}
		rel, rhs := LE, 1+3*rng.Float64()
		if rng.Intn(8) == 0 {
			rel, rhs = GE, 0.5*rng.Float64() // reachable: every column can rise to ≥ 1
		}
		p.AddRow(rows[i], coefs[i], rel, rhs)
	}
	return p
}

// benchState solves genSparseLP(m) to optimality and returns the problem
// with its solver workspace sitting on the optimal basis, freshly factored.
func benchState(tb testing.TB, m int) (*Problem, *spSolver, *Basis) {
	tb.Helper()
	return benchStateOf(tb, genSparseLP(int64(m), m))
}

// benchStateOf is benchState for a given LP.
func benchStateOf(tb testing.TB, p *Problem) (*Problem, *spSolver, *Basis) {
	tb.Helper()
	m := len(p.Rows)
	sol, err := Solve(p, nil)
	if err != nil || sol.Status != Optimal || sol.Basis == nil {
		tb.Fatalf("m=%d: setup solve: %v %+v", m, err, sol)
	}
	c := mustCache(tb, p)
	s := &c.s
	s.initWarm(p, c, sol.Basis)
	if !s.factorize(warmPivTol) {
		tb.Fatalf("m=%d: optimal basis would not factorize", m)
	}
	s.recomputeXB()
	s.recomputeD()
	return p, s, sol.Basis
}

// mustCache returns p's sparse lowering, failing tb on a malformed row.
func mustCache(tb testing.TB, p *Problem) *spCache {
	tb.Helper()
	c, err := p.cache()
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// nonbasicStructurals lists the columns FTRAN is benchmarked on.
func nonbasicStructurals(s *spSolver) []int {
	var out []int
	for j := 0; j < s.nStr; j++ {
		if s.stat[j] != basic {
			out = append(out, j)
		}
	}
	return out
}

// forSizes runs one sub-benchmark per basis size. run does its own set-up
// and then calls b.ResetTimer.
func forSizes(b *testing.B, run func(b *testing.B, p *Problem, s *spSolver, basis *Basis)) {
	for _, m := range benchSizes {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			p, s, basis := benchState(b, m)
			b.ReportAllocs()
			run(b, p, s, basis)
		})
	}
}

// reportTouched reports the mean of per[i%len(per)] over the b.N calls made.
func reportTouched(b *testing.B, per []int) {
	sum := 0
	for i := 0; i < b.N; i++ {
		sum += per[i%len(per)]
	}
	b.ReportMetric(float64(sum)/float64(b.N), "nnz-touched/op")
}

// BenchmarkFactorize factors an optimal basis per size and per mix. mix=30 is
// the fixture every other benchmark here uses: about 30% of the basic columns
// structural, the rest slack — the shape the triangular order is for. mix=60
// is the optimal basis of a twice-as-wide LP whose every column pays (the
// same generator, 2m columns, all costs negative), 56–63% structural: less
// for the unit fast path to skip, more elimination behind it; its set-up
// solve takes ~25 s at m = 2,600. m=90 is the fleet's small cell, where the
// counting sort is overhead with little fill to save. nnz-L/op and nnz-LU/op
// are the off-diagonal entries of L and of L+U one factorization produced,
// reach-pops/op the elimination steps it took off the reach heap.
func BenchmarkFactorize(b *testing.B) {
	for _, m := range benchSizes {
		for _, mix := range []int{30, 60} {
			b.Run(fmt.Sprintf("m=%d/mix=%d", m, mix), func(b *testing.B) {
				p := genSparseLP(int64(m), m)
				if mix == 60 {
					p = genSparseLPCols(int64(m), m, 2*m, true)
				}
				_, s, _ := benchStateOf(b, p)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !s.factorize(warmPivTol) {
						b.Fatal("singular")
					}
				}
				reportTouched(b, []int{factorizeTouched(s)})
				b.ReportMetric(float64(len(s.fac.lval)), "nnz-L/op")
				b.ReportMetric(float64(len(s.fac.lval)+len(s.fac.uval)), "nnz-LU/op")
				b.ReportMetric(float64(s.fac.reachPops), "reach-pops/op")
			})
		}
	}
}

// reportWords reports the support-bitset words one call walks: ftran walks
// its two step bitsets and drains the slot set, btran drains the slot set
// into step order, walks both step bitsets and drains the row set, and the
// pivot row adds the column set's drain.
func reportWords(b *testing.B, s *spSolver, ftrans, btrans, rows int) {
	f := &s.fac
	words := ftrans*(len(f.steps)+len(f.steps2)+len(f.slotSet)) +
		btrans*(len(f.slotSet)+len(f.steps)+len(f.steps2)+len(f.rowSet)) +
		rows*len(s.colSet)
	b.ReportMetric(float64(words), "words-walked/op")
}

func BenchmarkFtran(b *testing.B) {
	forSizes(b, func(b *testing.B, _ *Problem, s *spSolver, _ *Basis) {
		cols := nonbasicStructurals(s)
		per := make([]int, len(cols))
		for i, j := range cols {
			rows := s.scatterColToW(j)
			per[i] = ftranTouched(&s.fac, s.w, rows)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.ftranColumn(cols[i%len(cols)])
		}
		reportTouched(b, per)
		reportWords(b, s, 1, 0, 0)
	})
}

// unitBtran solves Bᵀy = e_r into s.y and returns y's support.
func unitBtran(s *spSolver, r int) []int32 {
	s.cbuf[r] = 1
	s.cslots[0] = int32(r)
	return s.fac.btran(s.cbuf, s.cslots[:1], s.y)
}

func BenchmarkBtranUnit(b *testing.B) {
	forSizes(b, func(b *testing.B, _ *Problem, s *spSolver, _ *Basis) {
		per := make([]int, s.m)
		for r := range per {
			unitBtran(s, r)
			per[r] = btranTouched(&s.fac, r, s.y)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			unitBtran(s, i%s.m)
		}
		reportTouched(b, per)
		reportWords(b, s, 0, 1, 0)
	})
}

// BenchmarkDualPivotRow is one dual-simplex pricing step: BTRAN of e_r, then
// the pivot row yᵀA over every column.
func BenchmarkDualPivotRow(b *testing.B) {
	forSizes(b, func(b *testing.B, _ *Problem, s *spSolver, _ *Basis) {
		per := make([]int, s.m)
		for r := range per {
			unitBtran(s, r)
			per[r] = btranTouched(&s.fac, r, s.y) + s.nArt
			for i, yi := range s.y {
				if yi != 0 {
					per[r] += int(s.c.rptr[i+1]-s.c.rptr[i]) + 1 // the row's structurals and its slack
				}
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.yTimesA(unitBtran(s, i%s.m), nil)
		}
		reportTouched(b, per)
		reportWords(b, s, 0, 1, 1)
	})
}

// BenchmarkColdSolve is the LP that dominates the AfricaWAN alert: a cold
// two-phase solve from the slack-and-artificial basis, at each size. It has
// no single kernel to count entries for, so it reports the pivots, in all
// and in phase 1.
func BenchmarkColdSolve(b *testing.B) {
	for _, m := range benchSizes {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			p := genSparseLP(int64(m), m)
			if _, err := Solve(p, nil); err != nil { // builds the cache and sizes the workspace
				b.Fatal(err)
			}
			b.ReportAllocs()
			iters, phase1 := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sol, err := Solve(p, nil)
				if err != nil || sol.Status != Optimal {
					b.Fatalf("cold solve: %v %+v", err, sol)
				}
				iters += sol.Iters
				phase1 += sol.Phase1Iters
			}
			b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
			b.ReportMetric(float64(phase1)/float64(b.N), "phase1-iters/op")
		})
	}
}

// BenchmarkWarmResolve is what one branch-and-bound node costs the LP
// layer: the parent's optimal basis, one variable's bound moved across its
// LP value, SolveFrom. It has no single kernel to count entries for, so it
// reports the pivots instead.
func BenchmarkWarmResolve(b *testing.B) {
	forSizes(b, func(b *testing.B, p *Problem, s *spSolver, basis *Basis) {
		x := s.structX(p)
		var cand []int // basic structurals: bounding one below its value forces dual pivots
		for j := 0; j < s.nStr; j++ {
			if s.stat[j] == basic {
				cand = append(cand, j)
			}
		}
		iters := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := cand[i%len(cand)]
			hi := p.Hi[j]
			p.Hi[j] = (p.Lo[j] + x[j]) / 2
			sol, err := SolveFrom(p, basis, nil)
			p.Hi[j] = hi
			if err != nil || !sol.WarmStarted {
				b.Fatalf("column %d: warm re-solve failed: %v %+v", j, err, sol)
			}
			iters += sol.Iters
		}
		b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
	})
}

// factorizeTouched counts what the factorization in s.fac visited: every
// basis entry scattered, every L entry applied per U entry, and the L and U
// entries written.
func factorizeTouched(s *spSolver) int {
	f := &s.fac
	n := f.basisNnz + len(f.lval) + len(f.uval)
	for _, t := range f.urow {
		n += int(f.lptr[t+1] - f.lptr[t])
	}
	return n
}

// ftranTouched counts the L, U and eta entries ftran visits for the
// original-row-indexed input x (left untouched), nonzero on rows.
func ftranTouched(f *luFactor, x []float64, rows []int32) int {
	x = append([]float64(nil), x...)
	out := make([]float64, f.m)
	y := append([]float64(nil), x...) // the L pass, replayed to see which steps apply a column
	n := 0
	for t := 0; t < f.m; t++ {
		pf := y[f.prow[t]]
		if pf == 0 {
			continue
		}
		n += int(f.lptr[t+1] - f.lptr[t])
		for e := f.lptr[t]; e < f.lptr[t+1]; e++ {
			y[f.lrow[e]] -= f.lval[e] * pf
		}
	}
	f.ftran(x, rows, out)
	// out's pre-eta pattern decides the U columns visited; with a fresh
	// factor (no etas) out is exactly that.
	for k, v := range out {
		if v != 0 {
			n += int(f.uptr[k+1] - f.uptr[k])
		}
	}
	return n + len(f.eval)
}

// btranTouched counts the entries a unit BTRAN of slot r visits, given its
// result y: the rows of U it scatters (the steps reachable from r — read off
// a second solve's intermediate), and per nonzero y the L-pattern marks plus
// the marked L columns.
func btranTouched(f *luFactor, r int, y []float64) int {
	n := len(f.eval)
	c := make([]float64, f.m)
	c[r] = 1
	for t := 0; t < f.m; t++ {
		v := c[t]
		if v == 0 {
			continue
		}
		v /= f.diag[t]
		n += int(f.utptr[t+1] - f.utptr[t])
		for e := f.utptr[t]; e < f.utptr[t+1]; e++ {
			c[f.utcol[e]] -= f.utval[e] * v
		}
	}
	need := make([]bool, f.m)
	for t := f.m - 1; t >= 0; t-- {
		row := f.prow[t]
		if need[t] {
			n += int(f.lptr[t+1] - f.lptr[t])
		}
		if y[row] != 0 {
			n += int(f.ltptr[row+1] - f.ltptr[row])
			for e := f.ltptr[row]; e < f.ltptr[row+1]; e++ {
				need[f.ltstep[e]] = true
			}
		}
	}
	return n
}
