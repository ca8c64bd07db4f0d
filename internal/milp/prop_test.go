package milp

import (
	"flag"
	"math"
	"math/rand"
	"reflect"
	"testing"
	_ "unsafe" // go:linkname, for the -colddual=all switch below
)

// presolveMode lets CI run the corpus with the reduction layer off
// (`go test -run TestRandomMILPsAgainstBruteForce -presolve=off`) — the
// smoke check that the presolve-disabled solver still matches brute force.
var presolveMode = flag.String("presolve", "on", `corpus presolve mode: "on" or "off"`)

// coldDualMode lets CI run the corpus with every cold LP started from the
// dual simplex on the slack basis (`-colddual=all`). internal/lp picks that
// start by row count, and no corpus LP is near its threshold, so without
// the switch the corpus checks only the two-phase primal's cold solves.
var coldDualMode = flag.String("colddual", "size", `corpus cold start: "size" (internal/lp's row threshold) or "all" (the dual start on every cold LP)`)

// lpDualColdAll is internal/lp's unexported switch behind -colddual=all.
//
//go:linkname lpDualColdAll raha/internal/lp.dualColdAll
var lpDualColdAll bool

func corpusParams(p Params) Params {
	if *presolveMode == "off" {
		p.disablePresolve = true
	}
	return p
}

// randomMILP is one generated instance: a mixed model plus the pieces needed
// to brute-force it. Coefficients are small integers so brute-force LP
// objectives and branch-and-bound objectives agree to tight tolerances.
type randomMILP struct {
	m    *Model
	bins []Var
}

// genMILP builds a seeded random mixed MILP: 1..8 binaries, 0..3 bounded
// continuous variables, 1..5 rows with small integer coefficients, random
// row senses, and a random objective sense.
func genMILP(rng *rand.Rand) *randomMILP {
	nb := 1 + rng.Intn(8)
	nc := rng.Intn(4)
	nrows := 1 + rng.Intn(5)

	m := NewModel()
	bins := make([]Var, nb)
	for j := range bins {
		bins[j] = m.BinaryVar()
	}
	conts := make([]Var, nc)
	for j := range conts {
		conts[j] = m.ContinuousVar(0, float64(1+rng.Intn(10)))
	}
	all := append(append([]Var(nil), bins...), conts...)

	var obj Expr
	for _, v := range all {
		if c := math.Round(rng.Float64()*16 - 8); c != 0 {
			obj.Add(c, v)
		}
	}
	obj.AddConst(math.Round(rng.Float64()*10 - 5))

	for i := 0; i < nrows; i++ {
		var e Expr
		terms := 0
		for _, v := range all {
			if rng.Float64() < 0.7 {
				if c := math.Round(rng.Float64()*10 - 4); c != 0 {
					e.Add(c, v)
					terms++
				}
			}
		}
		if terms == 0 {
			continue
		}
		rel := []Rel{LE, GE}[rng.Intn(2)]
		m.Add(e, rel, math.Round(rng.Float64()*14-3))
	}

	sense := []Sense{Maximize, Minimize}[rng.Intn(2)]
	m.SetObjective(obj, sense)
	return &randomMILP{m: m, bins: bins}
}

// bruteForce enumerates every binary assignment, fixes it, and solves the
// continuous remainder as a pure LP. It returns the best objective, or ±Inf
// (by sense) when every assignment is infeasible.
func (r *randomMILP) bruteForce(t *testing.T) float64 {
	t.Helper()
	maximize := r.m.sense == Maximize
	best := math.Inf(-1)
	if !maximize {
		best = math.Inf(1)
	}
	for mask := 0; mask < 1<<len(r.bins); mask++ {
		m2, bs := buildCopy(r.m, r.bins)
		for j, b := range bs {
			if mask&(1<<j) != 0 {
				m2.Fix(b, 1)
			} else {
				m2.Fix(b, 0)
			}
		}
		// With every integer variable pinned, Solve reduces to the root LP.
		res, err := m2.Solve(Params{})
		if err != nil {
			t.Fatalf("brute force LP: %v", err)
		}
		if res.Status != Optimal {
			continue
		}
		if maximize && res.Objective > best {
			best = res.Objective
		}
		if !maximize && res.Objective < best {
			best = res.Objective
		}
	}
	return best
}

// propCorpusSize returns the instance count: 250 in a full run (the
// satellite's 200+ requirement), trimmed under -short to keep `go test
// -short ./...` fast.
func propCorpusSize(t *testing.T) int {
	if testing.Short() {
		return 60
	}
	return 250
}

// TestRandomMILPsAgainstBruteForce is the solver correctness harness: every
// generated instance is solved by branch and bound at Workers:1 and at
// Workers:4 and cross-checked against binary enumeration + LP. The three
// objectives must agree exactly (to LP tolerance); statuses must agree on
// feasibility.
//
// Every warm node LP of these solves runs under the objective cutoff (the
// search passes its incumbent down whenever it has one; there is no other
// path), so agreement with enumeration is also the cutoff's soundness check:
// a node cut off wrongly would lose the optimum. The corpus must actually
// cut nodes off for that to mean anything, and a cut-off node is always a
// bound-pruned one.
//
// It also pins the warm accounting: every node LP below the root is a warm
// attempt, so WarmStarts+ColdFallbacks > 0 whenever the tree branched, and
// the corpus as a whole must warm-start somewhere. (That a warm re-solve
// returns what a cold solve would is the LP layer's referee,
// lp.TestWarmResolveMatchesCold.) It is the restart's soundness check in
// the same way as the cutoff's: the corpus must restart somewhere at
// Workers 1 and at Workers 4, or agreement says nothing about it.
//
// Two instance streams: seed 42, and seed 4242 — the stream the retired
// dense-vs-sparse MILP test drew, whose sparse cells were this same check.
func TestRandomMILPsAgainstBruteForce(t *testing.T) {
	if *coldDualMode == "all" {
		lpDualColdAll = true
		defer func() { lpDualColdAll = false }()
	}
	for _, seed := range []int64{42, 4242} {
		checkCorpusAgainstBruteForce(t, seed)
	}
}

func checkCorpusAgainstBruteForce(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	n := propCorpusSize(t)
	var cutoffs, warmStarts, dualColdStarts int64
	restarts := map[string]int64{}
	for trial := 0; trial < n; trial++ {
		inst := genMILP(rng)
		want := inst.bruteForce(t)
		infeasible := math.IsInf(want, 0)

		serial := solveOK(t, inst.m, corpusParams(Params{Workers: 1}))
		par := solveOK(t, inst.m, corpusParams(Params{Workers: 4, fixedWidth: true}))

		for which, res := range map[string]*Result{"serial": serial, "parallel": par} {
			st := res.Stats
			if st.LPCutoffs > st.PrunedBound || st.LPCutoffs > st.LPObjLimitStops {
				t.Fatalf("trial %d (%s): %d nodes cut off, %d pruned by bound, %d LPs stopped at the limit",
					trial, which, st.LPCutoffs, st.PrunedBound, st.LPObjLimitStops)
			}
			cutoffs += st.LPCutoffs
			warmStarts += st.WarmStarts
			dualColdStarts += st.DualColdStarts
			restarts[which] += st.Restarts
			checkRestart(t, trial, which, res)
			if st.NodesBranched > 0 && st.WarmStarts+st.ColdFallbacks == 0 {
				t.Fatalf("trial %d (%s): %d branched nodes but no warm attempt recorded", trial, which, st.NodesBranched)
			}
			if infeasible {
				if res.Status != Infeasible {
					t.Fatalf("trial %d (%s): status %v, brute force says infeasible", trial, which, res.Status)
				}
				continue
			}
			if res.Status != Optimal {
				t.Fatalf("trial %d (%s): status %v, want optimal (brute %g)", trial, which, res.Status, want)
			}
			if math.Abs(res.Objective-want) > 1e-5 {
				t.Fatalf("trial %d (%s): objective %g, brute force %g", trial, which, res.Objective, want)
			}
			for v, vt := range inst.m.vtype {
				if vt != Continuous && res.X[v]-math.Round(res.X[v]) != 0 {
					t.Fatalf("trial %d (%s): integer variable %d reads %.17g", trial, which, v, res.X[v])
				}
			}
		}
		if !infeasible && math.Abs(serial.Objective-par.Objective) > 1e-6 {
			t.Fatalf("trial %d: serial %g != parallel %g", trial, serial.Objective, par.Objective)
		}
	}
	t.Logf("seed %d: %d nodes cut off at the incumbent across the corpus", seed, cutoffs)
	if cutoffs == 0 {
		t.Error("no node LP stopped at the incumbent: the corpus does not exercise the objective cutoff")
	}
	if warmStarts == 0 {
		t.Error("no warm-started node LP across the whole corpus")
	}
	if (*coldDualMode == "all") != (dualColdStarts > 0) {
		t.Errorf("-colddual=%s: %d cold LPs solved from the dual start", *coldDualMode, dualColdStarts)
	}
	t.Logf("seed %d: %d serial and %d parallel solves restarted", seed, restarts["serial"], restarts["parallel"])
	if restarts["serial"] == 0 || restarts["parallel"] == 0 {
		t.Errorf("restarts: %d serial, %d parallel; the corpus must restart at both widths", restarts["serial"], restarts["parallel"])
	}
}

// checkRestart asserts the restart's accounting on one result: at most one
// restart, and one drops at least one open node (the barrier only re-roots
// a tree that still has some) while a solve without one drops none.
func checkRestart(t *testing.T, trial int, label string, res *Result) {
	t.Helper()
	st := res.Stats
	if st.Restarts > 1 || (st.Restarts == 1) != (st.RestartDiscarded > 0) {
		t.Fatalf("trial %d (%s): %d restarts, %d open nodes discarded", trial, label, st.Restarts, st.RestartDiscarded)
	}
}

// assertOriginalSpace checks a returned solution lives in the model's
// original variable space and satisfies every original constraint, bound,
// and integrality requirement to solver tolerance — the postsolve
// round-trip contract (presolve substitutes variables and rewrites rows
// internally, but none of that may leak to the caller).
func assertOriginalSpace(t *testing.T, m *Model, x []float64, label string) {
	t.Helper()
	if len(x) != m.NumVars() {
		t.Fatalf("%s: solution length %d, model has %d variables", label, len(x), m.NumVars())
	}
	const tol = 1e-6
	for v := 0; v < m.NumVars(); v++ {
		lo, hi := m.Bounds(Var(v))
		if x[v] < lo-tol*(1+math.Abs(lo)) || x[v] > hi+tol*(1+math.Abs(hi)) {
			t.Fatalf("%s: x[%d]=%g outside original bounds [%g, %g]", label, v, x[v], lo, hi)
		}
		if m.TypeOf(Var(v)) != Continuous && math.Abs(x[v]-math.Round(x[v])) > tol {
			t.Fatalf("%s: integer x[%d]=%g not integral", label, v, x[v])
		}
	}
	for i := 0; i < m.NumConstraints(); i++ {
		expr, rel, rhs := m.ConstraintAt(i)
		lhs := Value(expr, x)
		slack := tol * (1 + math.Abs(rhs))
		switch rel {
		case LE:
			if lhs > rhs+slack {
				t.Fatalf("%s: row %d violated: %g <= %g", label, i, lhs, rhs)
			}
		case GE:
			if lhs < rhs-slack {
				t.Fatalf("%s: row %d violated: %g >= %g", label, i, lhs, rhs)
			}
		case EQ:
			if math.Abs(lhs-rhs) > slack {
				t.Fatalf("%s: row %d violated: %g == %g", label, i, lhs, rhs)
			}
		}
	}
}

// nodeAccounting asserts the Stats invariant including the reduction-layer
// counters: outcomes partition Result.Nodes; disabled layers record zeros.
func nodeAccounting(t *testing.T, trial int, label string, res *Result, p Params) {
	t.Helper()
	st := res.Stats
	if got := statsOutcomes(st); got != int64(res.Nodes) {
		t.Fatalf("trial %d (%s): outcome sum %d != Nodes %d (%+v)", trial, label, got, res.Nodes, st)
	}
	if st.PropagationPrunes < 0 || st.PseudocostBranches < 0 {
		t.Fatalf("trial %d (%s): negative reduction counters %+v", trial, label, st)
	}
	if st.LPCutoffs > st.PrunedBound {
		t.Fatalf("trial %d (%s): LPCutoffs %d > PrunedBound %d", trial, label, st.LPCutoffs, st.PrunedBound)
	}
	if st.PseudocostBranches > st.NodesBranched {
		t.Fatalf("trial %d (%s): PseudocostBranches %d > NodesBranched %d",
			trial, label, st.PseudocostBranches, st.NodesBranched)
	}
	checkRestart(t, trial, label, res)
	if p.disablePresolve {
		if st.PresolveFixedVars != 0 || st.PresolveRemovedRows != 0 ||
			st.PresolveTightenedBounds != 0 || st.PresolveTightenedCoefs != 0 ||
			st.PropagationPrunes != 0 {
			t.Fatalf("trial %d (%s): presolve disabled but reduction stats recorded %+v", trial, label, st)
		}
	}
}

// TestRandomMILPsPresolveBranchingEquivalence is the reduction-layer
// equivalence harness: across the random corpus, presolve on/off at Workers
// 1 and 4 must agree on status and objective; every returned solution must round-trip through
// postsolve to a feasible point of the original model; and the node
// accounting invariant must hold with the new counters. Run under -race in
// CI, this is also the concurrency check for the shared pseudocost table
// and the per-worker propagation scratch.
func TestRandomMILPsPresolveBranchingEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(5150))
	n := propCorpusSize(t)
	type cfg struct {
		label string
		p     Params
	}
	cfgs := []cfg{
		{"off-1", Params{Workers: 1, disablePresolve: true}},
		{"off-4", Params{Workers: 4, fixedWidth: true, disablePresolve: true}},
		{"on-1", Params{Workers: 1}},
		{"on-4", Params{Workers: 4, fixedWidth: true}},
	}
	for trial := 0; trial < n; trial++ {
		inst := genMILP(rng)
		var ref *Result
		for _, c := range cfgs {
			res := solveOK(t, inst.m, c.p)
			nodeAccounting(t, trial, c.label, res, c.p)
			if ref == nil {
				ref = res
				continue
			}
			if res.Status != ref.Status {
				t.Fatalf("trial %d (%s): status %v, %s says %v", trial, c.label, res.Status, cfgs[0].label, ref.Status)
			}
			if ref.Status == Optimal {
				if math.Abs(res.Objective-ref.Objective) > 1e-6 {
					t.Fatalf("trial %d (%s): objective %g != %g", trial, c.label, res.Objective, ref.Objective)
				}
				assertOriginalSpace(t, inst.m, res.X, c.label)
				if got := Value(inst.m.obj, res.X); math.Abs(got-res.Objective) > 1e-5 {
					t.Fatalf("trial %d (%s): restored incumbent evaluates to %g, reported %g",
						trial, c.label, got, res.Objective)
				}
			}
		}
	}
}

// TestRandomMILPsPostsolveRoundTrip is the postsolve acceptance check on the
// default configuration: every corpus solution is returned in the original
// variable space and satisfies the original constraints to solver tolerance.
func TestRandomMILPsPostsolveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	n := propCorpusSize(t)
	checked := 0
	for trial := 0; trial < n; trial++ {
		inst := genMILP(rng)
		res := solveOK(t, inst.m, Params{Workers: 1})
		if res.Status != Optimal {
			continue
		}
		assertOriginalSpace(t, inst.m, res.X, "roundtrip")
		checked++
	}
	if checked == 0 {
		t.Fatal("no optimal instance in the corpus")
	}
}

// scrubTimingStats zeroes the wall-clock-dependent Stats fields (and their
// per-worker copies) so a determinism comparison covers only the count
// accounting: nanosecond totals legitimately differ run to run.
func scrubTimingStats(s *Stats) {
	s.PresolveNs, s.LPWarmNs, s.LPColdNs, s.HeurNs, s.BranchNs = 0, 0, 0, 0, 0
	s.QueuePopNs, s.QueuePushNs, s.StealNs = 0, 0, 0
	for i := range s.PerWorker {
		s.PerWorker[i].BusyNs = 0
		s.PerWorker[i].QueueWaitNs = 0
		s.PerWorker[i].IdleNs = 0
		s.PerWorker[i].WallNs = 0
	}
}

// TestWorkers1StatsDeterminism pins the serial solver's reproducibility:
// at Workers 1 two runs of the same instance must agree bit for bit on the
// full Stats (including the per-worker rounding-heuristic cadence, which
// used to key off a racy global claim counter), the node count, the
// objective, and the returned point — with the reduction layer on and off.
// A lone worker has no victims, so it must also record no steal traffic.
func TestWorkers1StatsDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	n := propCorpusSize(t) / 5
	cfgs := []Params{
		{Workers: 1},
		{Workers: 1, disablePresolve: true},
	}
	for trial := 0; trial < n; trial++ {
		inst := genMILP(rng)
		for ci, p := range cfgs {
			a := solveOK(t, inst.m, p)
			b := solveOK(t, inst.m, p)
			if a.Status != b.Status || a.Nodes != b.Nodes {
				t.Fatalf("trial %d cfg %d: runs diverged: status %v/%v nodes %d/%d",
					trial, ci, a.Status, b.Status, a.Nodes, b.Nodes)
			}
			sa, sb := a.Stats, b.Stats
			scrubTimingStats(&sa)
			scrubTimingStats(&sb)
			if !reflect.DeepEqual(sa, sb) {
				t.Fatalf("trial %d cfg %d: stats diverged:\n%+v\n%+v", trial, ci, sa, sb)
			}
			if sa.Steals != 0 || sa.StolenNodes != 0 || sa.FailedSteals != 0 {
				t.Fatalf("trial %d cfg %d: single worker recorded steals %+v", trial, ci, sa)
			}
			if a.Status == Optimal {
				//raha:lint-allow float-cmp bitwise determinism is the property under test
				if a.Objective != b.Objective {
					t.Fatalf("trial %d cfg %d: objective %g != %g", trial, ci, a.Objective, b.Objective)
				}
				for v := range a.X {
					//raha:lint-allow float-cmp bitwise determinism is the property under test
					if a.X[v] != b.X[v] {
						t.Fatalf("trial %d cfg %d: X[%d] %g != %g", trial, ci, v, a.X[v], b.X[v])
					}
				}
			}
		}
	}
}

// TestRandomMILPsWidthMatrix is the scheduler equivalence harness: across
// the random corpus, width 1 and widths {4, 8} both as asked (fixedWidth)
// and as the root-LP probe resolves them must each reach the brute-force
// optimum, and every cell must keep the node-accounting invariant, report
// Bound == Objective at optimality, and return a point of the original
// model. Width 1 is the best-bound heap, the others the deques (or the heap
// again, when the probe shrinks them).
// The fixed widths 1 and 4 must each restart somewhere in the corpus; the
// generated instances are small enough that a trimmed (-short) corpus may
// hold no tree that outgrows its integer count, so three 10-item knapsacks
// whose trees do (checked against enumeration) close the corpus.
// Run under -race in CI, this is the concurrency check for the deque
// protocol, the lock-free incumbent, and the per-worker bound publications.
func TestRandomMILPsWidthMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	n := propCorpusSize(t)
	type cfg struct {
		label string
		p     Params
	}
	cfgs := []cfg{
		{"fixed-1", Params{Workers: 1}},
		{"fixed-4", Params{Workers: 4, fixedWidth: true}},
		{"fixed-8", Params{Workers: 8, fixedWidth: true}},
		{"auto-4", Params{Workers: 4}},
		{"auto-8", Params{Workers: 8}},
	}
	restarts := map[string]int64{}
	knapsackSeeds := []int64{2, 3, 4}
	for trial := 0; trial < n+len(knapsackSeeds); trial++ {
		var m *Model
		var want float64
		if trial < n {
			inst := genMILP(rng)
			m, want = inst.m, inst.bruteForce(t)
		} else {
			m = knapsack(10, knapsackSeeds[trial-n])
			want = enumerateBinaries(m)
		}
		for _, c := range cfgs {
			res := solveOK(t, m, c.p)
			nodeAccounting(t, trial, c.label, res, c.p)
			restarts[c.label] += res.Stats.Restarts
			if c.p.Workers == 1 && (res.Stats.Steals != 0 || res.Stats.StolenNodes != 0 || res.Stats.FailedSteals != 0) {
				t.Fatalf("trial %d (%s): single worker recorded steals %+v", trial, c.label, res.Stats)
			}
			if math.IsInf(want, 0) {
				if res.Status != Infeasible {
					t.Fatalf("trial %d (%s): status %v, brute force says infeasible", trial, c.label, res.Status)
				}
				continue
			}
			if res.Status != Optimal {
				t.Fatalf("trial %d (%s): status %v, want optimal (brute %g)", trial, c.label, res.Status, want)
			}
			if math.Abs(res.Objective-want) > 1e-5 {
				t.Fatalf("trial %d (%s): objective %g, brute force %g", trial, c.label, res.Objective, want)
			}
			assertOriginalSpace(t, m, res.X, c.label)
			if math.Abs(res.Bound-res.Objective) > 1e-6 {
				t.Fatalf("trial %d (%s): optimal bound %g != objective %g", trial, c.label, res.Bound, res.Objective)
			}
		}
	}
	t.Logf("restarts per cell: %v", restarts)
	if restarts["fixed-1"] == 0 || restarts["fixed-4"] == 0 {
		t.Errorf("restarts per cell %v: the corpus must restart at widths 1 and 4", restarts)
	}
}

// TestRandomMILPsOptimalBoundInvariant checks the reported dual bound: on an
// Optimal result the bound equals the objective and Gap() is zero.
func TestRandomMILPsOptimalBoundInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := propCorpusSize(t) / 5
	for trial := 0; trial < n; trial++ {
		inst := genMILP(rng)
		res := solveOK(t, inst.m, Params{})
		if res.Status != Optimal {
			continue
		}
		if math.Abs(res.Bound-res.Objective) > 1e-6 {
			t.Fatalf("trial %d: optimal bound %g != objective %g", trial, res.Bound, res.Objective)
		}
		if res.Gap() != 0 {
			t.Fatalf("trial %d: optimal gap %g", trial, res.Gap())
		}
	}
}
