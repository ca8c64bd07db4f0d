package metaopt

import (
	"testing"

	"raha/internal/demand"
	"raha/internal/milp"
	"raha/internal/obs"
	"raha/internal/paths"
	"raha/internal/topology"
)

// TestSerialSearchCountsPinned pins the exact work of the two benchmark
// analyses at Workers 1: nodes explored, LP relaxations solved and simplex
// iterations spent in warm re-solves. The serial search is deterministic, so
// these move only when a pivot somewhere came out differently — a change to
// the LP kernels that claims to keep every floating-point operation as it
// was (internal/lp/lu_ref_test.go referees the kernels one by one) has to
// leave them alone; a change that means to alter the search updates them.
//
// The counts are pinned to the LU's elimination order. They were 526 / 536 /
// 3,082 and 637 / 644 / 6,179 while the basis was eliminated in slot order;
// the static triangular order (unit columns first, then structurals by
// count) produces the same factors of the same matrix up to rounding, but a
// different rounding: degenerate ties in the dual ratio test fall the other
// way and the tree is a different, equally valid one — here a larger one, on
// the benchmark's instances a few percent either way. The optimum found is
// the same; what this test guards is that nothing moves the counts silently.
//
// They are also pinned to the objective cutoff: with the incumbent passed
// down as lp.Options.ObjLimit, a node that is going to be pruned by bound
// stops pivoting once its dual bound says so. Before it the counts read 785 /
// 795 / 5,154 and 1,538 / 1,556 / 11,221 — nodes moved by less than 1% (a
// cut-off node feeds the pseudocosts a lower bound instead of the solved-out
// degradation, and a few branch choices differ), warm iterations fell 22%
// and 30%.
func TestSerialSearchCountsPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		top  *topology.Topology
		seed int64

		nodes               int
		lpSolves, warmIters int64
	}{
		{"B4", topology.B4(), 4, 311, 317, 1578},
		{"Uninett2010", topology.Uninett2010(), 2010, 1283, 1296, 6894},
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

// TestWarmDualCycleFallsBackCold_Regression: on this B4 instance (the
// b4_budget shape at generator seed 40) a warm node LP cycles through
// dual-degenerate pivots. Without a stall rule the dual simplex ran to its
// 62,200-iteration cap, the node was abandoned and the analysis overran its
// 1 s budget by half. With the rule the warm solve gives up the basis after
// a streak of such pivots, the cold path solves the node, and the search
// proves optimality with nothing abandoned. Width 1 and a node limit in
// place of the clock keep it deterministic.
func TestWarmDualCycleFallsBackCold_Regression(t *testing.T) {
	top := topology.B4()
	pairs := demand.TopPairs(top, 12, 40)
	dps, err := paths.Compute(top, pairs, 4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := demand.Gravity(top, pairs, top.MeanLAGCapacity(), 40)
	stalls := obs.Default.Counter("lp.dual_stalls")
	before := stalls.Value()
	res, err := Analyze(Config{
		Topo: top, Demands: dps, Envelope: demand.UpTo(base, 0.5),
		ProbThreshold: 1e-4, QuantBits: 3,
		Solver: milp.Params{Workers: 1, NodeLimit: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := stalls.Value() - before; n == 0 || res.Stats.PrunedIterLimit != 0 || res.Status != milp.Optimal {
		t.Fatalf("%v after %d nodes, %d abandoned, %d dual stalls; want optimal with a stall and nothing abandoned",
			res.Status, res.Nodes, res.Stats.PrunedIterLimit, n)
	}
}
