package experiments

import "testing"

// TestSetupPlan: a stage splits the setup's worker budget over its count of
// independent analyses — fan-out first, the leftover inside each solve —
// and leaves the setup itself untouched, so the next stage splits the whole
// budget again.
func TestSetupPlan(t *testing.T) {
	s := &Setup{Workers: 4}
	for _, tt := range []struct{ units, fanout, perSolve int }{
		{1, 1, 4},
		{3, 3, 1},
		{16, 4, 1},
	} {
		stage, fanout := s.plan(tt.units)
		if p := stage.solver(); fanout != tt.fanout || p.Workers != tt.perSolve {
			t.Errorf("plan(%d) = %d × %d, want %d × %d", tt.units, fanout, p.Workers, tt.fanout, tt.perSolve)
		}
		if s.Workers != 4 {
			t.Fatalf("plan(%d) changed the setup's budget to %d", tt.units, s.Workers)
		}
	}
}
