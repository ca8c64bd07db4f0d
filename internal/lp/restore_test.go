package lp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestRestoredSiblingsMatchFresh is the referee of the restored start that
// is not hot, on 200 LPs of 40 rows: solve, re-solve warm from the optimal
// basis (a cold solve that needed an artificial column exports no end
// state), branch and re-solve from the basis that ended on, then undo that
// branching and take another from the same basis — a sibling, whose start
// restores that basis's end state on factors the first child has moved on
// from — and check it against a fresh copy's, as TestHotStartMatchesFresh
// does the hot start.
func TestRestoredSiblingsMatchFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	restored := 0
	for trial := 0; trial < 200; trial++ {
		p := genSparseLPCols(int64(trial), 40, 50, trial%2 == 1)
		root, err := Solve(p, nil)
		if err != nil || root.Status != Optimal {
			t.Fatalf("trial %d: root: %v %+v", trial, err, root)
		}
		if root, err = SolveFrom(p, root.Basis, nil); err != nil || root.Status != Optimal {
			t.Fatalf("trial %d: the warm re-solve of an optimal basis: %v %+v", trial, err, root)
		}
		lo, hi := slices.Clone(p.Lo), slices.Clone(p.Hi)
		branch(rng, p, root.X, 2)
		if _, err := SolveFrom(p, root.Basis, nil); err != nil {
			t.Fatal(err)
		}
		copy(p.Lo, lo)
		copy(p.Hi, hi)
		branch(rng, p, root.X, 2)
		before := cRestored.Value()
		got, err := SolveFrom(p, root.Basis, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := cRestored.Value() - before; n != 0 != got.Restored || got.Restored && !got.WarmStarted || got.Hot && !got.Restored {
			t.Fatalf("trial %d: restored %v, hot %v, warm %v, lp.restored_starts moved by %d", trial, got.Restored, got.Hot, got.WarmStarted, n)
		}
		if got.Restored && !got.Hot {
			restored++
		}
		wantRestoredMatches(t, fmt.Sprintf("trial %d", trial), p, root.Basis, got)
	}
	t.Logf("%d restored starts that were not hot", restored)
	if restored < 100 {
		t.Fatalf("only %d siblings restored without starting hot; the referee no longer exercises that start", restored)
	}
}

// TestRestoreAfterCostEdit_Regression: the reduced costs a Basis carries
// hold only under the costs they were computed from, and the cost
// generation that says so may be compared only once SolveFrom has
// installed the Problem's current costs. Compared before, a start after an
// edit to Cost found the generation of the last solve, equal to the
// basis's, and restored reduced costs of the old objective. Each basis here
// was exported by its Problem's last solve and would start hot; after one
// cost edit the re-solve must restore nothing and be, bit for bit, a fresh
// copy's.
func TestRestoreAfterCostEdit_Regression(t *testing.T) {
	for seed := int64(0); seed < 100; seed += 5 {
		p, b := hotCase(t, seed, optimal)
		p.Cost[int(seed)%p.NumVars] += 0.25
		got, err := SolveFrom(p, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantRebuilt(t, fmt.Sprintf("seed %d: a cost edit", seed), p, b, got)
	}
}

// TestRestoreRefusesForeignStamps: a basis restores only on the lowering
// that exported it. After DropFactors — which the auto-width probe relies
// on so that the search's root never starts hot — on another Problem of
// the same rows, costs and bounds (another worker's), and on a Problem that
// took the exporter's released workspace, the re-solve rebuilds its start
// state, bit for bit as a fresh copy does.
func TestRestoreRefusesForeignStamps(t *testing.T) {
	for seed := int64(0); seed < 60; seed += 6 {
		p, b := hotCase(t, seed, optimal)
		p.DropFactors()
		got, err := SolveFrom(p, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantRebuilt(t, fmt.Sprintf("seed %d: DropFactors", seed), p, b, got)

		p, b = hotCase(t, seed, optimal)
		other := cloneProblem(p)
		if _, err := Solve(other, nil); err != nil {
			t.Fatal(err)
		}
		if got, err = SolveFrom(other, b, nil); err != nil {
			t.Fatal(err)
		}
		wantRebuilt(t, fmt.Sprintf("seed %d: another Problem", seed), other, b, got)

		p, b = hotCase(t, seed, optimal)
		ws := p.sp
		p.Release()
		heir := cloneProblem(p)
		if got, err = SolveFrom(heir, b, nil); err != nil {
			t.Fatal(err)
		}
		if heir.sp != ws {
			t.Fatalf("seed %d: the heir did not take the released workspace", seed)
		}
		wantRebuilt(t, fmt.Sprintf("seed %d: a released workspace", seed), heir, b, got)
		heir.Release()
	}
}

// FuzzWarmRestore drives chains of warm re-solves on the genLP corpus. The
// seed picks the LP; each byte of moves tightens or loosens one bound of
// one variable and re-solves from one of the bases exported so far — the
// last (a dive, which may start hot) or an earlier one (a sibling, which
// restores on factors moved on since) — and every re-solve must agree with
// the same call on a fresh copy of the Problem (wantRestoredMatches).
//
//	go test ./internal/lp -run '^$' -fuzz '^FuzzWarmRestore$' -fuzztime 10s
func FuzzWarmRestore(f *testing.F) {
	for seed := int64(0); seed < 48; seed++ {
		moves := make([]byte, 1+seed%12)
		for i := range moves {
			moves[i] = byte(seed*37 + int64(i)*101)
		}
		f.Add(seed, moves)
	}
	f.Fuzz(func(t *testing.T, seed int64, moves []byte) {
		if len(moves) > 32 {
			moves = moves[:32]
		}
		rng := rand.New(rand.NewSource(seed))
		p := genLP(rng)
		sol, err := Solve(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal || sol.Basis == nil {
			return
		}
		bases := []*Basis{sol.Basis}
		for i, mv := range moves {
			// Bits 0–1 size the move, bit 2 tightens or loosens, bits 3–5
			// pick the variable, bit 6 an earlier basis, bit 7 the bound.
			step := (1 + float64(mv&3)) / 4
			j := int(mv>>3&7) % p.NumVars
			upper := mv&128 != 0
			switch half := (p.Hi[j] - p.Lo[j]) / 2; {
			case mv&4 == 0 && upper:
				p.Hi[j] -= half * step
			case mv&4 == 0:
				p.Lo[j] += half * step
			case upper:
				p.Hi[j] += step
			default:
				p.Lo[j] -= step
			}
			b := bases[len(bases)-1]
			if mv&64 != 0 {
				b = bases[int(mv)%len(bases)]
			}
			got, err := SolveFrom(p, b, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantRestoredMatches(t, fmt.Sprintf("move %d (%08b)", i, mv), p, b, got)
			if got.Basis != nil {
				bases = append(bases, got.Basis)
			}
		}
	})
}
