package metaopt

import (
	"testing"

	"raha/internal/lp"
	"raha/internal/milp"
	"raha/internal/topology"
)

// TestSerialSearchCountsPinned pins the exact work of the two benchmark
// analyses at Workers 1: nodes explored, LP relaxations solved and simplex
// iterations spent in warm re-solves. The serial search is deterministic, so
// these move only when a pivot somewhere came out differently — a change to
// the LP kernels that claims to keep every floating-point operation as it
// was (internal/lp/lu_ref_test.go referees the kernels one by one) has to
// leave them alone; a change that means to alter the search updates them.
func TestSerialSearchCountsPinned(t *testing.T) {
	defer lp.SetDense(lp.SetDense(false)) // the counts are the sparse core's
	for _, tc := range []struct {
		name string
		top  *topology.Topology
		seed int64

		nodes               int
		lpSolves, warmIters int64
	}{
		{"B4", topology.B4(), 4, 526, 536, 3082},
		{"Uninett2010", topology.Uninett2010(), 2010, 637, 644, 6179},
	} {
		res, err := Analyze(benchConfig(t, tc.top, tc.seed, 1))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Status != milp.Optimal {
			t.Fatalf("%s: status %v, want optimal", tc.name, res.Status)
		}
		if res.Nodes != tc.nodes || res.Stats.LPSolves != tc.lpSolves || res.Stats.WarmIters != tc.warmIters {
			t.Errorf("%s: %d nodes, %d LP solves, %d warm iterations; pinned %d, %d, %d",
				tc.name, res.Nodes, res.Stats.LPSolves, res.Stats.WarmIters, tc.nodes, tc.lpSolves, tc.warmIters)
		}
	}
}
