package milp

import "testing"

// TestBranchVarTrustsFirstObservation: on a hand-filled pseudocost table a
// single observation per direction is enough for a candidate to be scored,
// a candidate missing a direction is branched before any scored one (the
// most fractional such first), and equal scores go to the first candidate.
func TestBranchVarTrustsFirstObservation(t *testing.T) {
	// over is a search over n integer variables with an empty table.
	over := func(n int) *search {
		s := &search{p: Params{}, pc: newPseudocosts(n)}
		for v := 0; v < n; v++ {
			s.intVars = append(s.intVars, Var(v))
		}
		return s
	}
	pick := func(s *search, x []float64) (Var, int64) {
		var st Stats
		v := s.branchVar(x, &st)
		return v, st.PseudocostBranches
	}

	// Var 0 is the more fractional, but var 1's one observation per
	// direction scores 8·2 = 16 against var 0's 0.5·0.5 = 0.25.
	s := over(2)
	s.pc.observe(0, true, 1)
	s.pc.observe(0, false, 1)
	s.pc.observe(1, true, 10)
	s.pc.observe(1, false, 10)
	if v, scored := pick(s, []float64{0.5, 0.2}); v != 1 || scored != 1 {
		t.Errorf("one observation each way: branched var %d (%d scored), want var 1 scored", v, scored)
	}

	// Vars 1 and 2 lack a direction each; 0 and 3 score high. The unobserved
	// are branched first, the more fractional of them (var 2) winning, and
	// the decision is not a scored one.
	s = over(4)
	for _, v := range []Var{0, 3} {
		s.pc.observe(v, true, 100)
		s.pc.observe(v, false, 100)
	}
	s.pc.observe(1, true, 1)
	s.pc.observe(2, false, 1)
	if v, scored := pick(s, []float64{0.5, 0.3, 0.6, 0.5}); v != 2 || scored != 0 {
		t.Errorf("unobserved directions: branched var %d (%d scored), want var 2 unscored", v, scored)
	}

	// Identical observations at mirrored points score the same: the first
	// candidate keeps the tie.
	s = over(3)
	for v := Var(0); v < 3; v++ {
		s.pc.observe(v, true, 2)
		s.pc.observe(v, false, 2)
	}
	if v, scored := pick(s, []float64{0, 0.25, 0.75}); v != 1 || scored != 1 {
		t.Errorf("tied scores: branched var %d (%d scored), want var 1 scored", v, scored)
	}

	// An integral point has nothing to branch on.
	if v, scored := pick(s, []float64{1, 0, 2}); v != -1 || scored != 0 {
		t.Errorf("integral point: branched var %d (%d scored), want -1", v, scored)
	}
}
