package metaopt

import (
	"flag"
	"fmt"
	"testing"
	"time"

	"raha/internal/demand"
	"raha/internal/milp"
	"raha/internal/obs"
	"raha/internal/paths"
	"raha/internal/topology"
)

var runPool = flag.Bool("pool", false, "run TestSearchPool, the serial search pool that judges a solver change")

// TestSearchPool runs a fixed pool of serial analyses under node limits and
// prints, per instance and in total, the status, nodes, LP iterations, the
// warm starts that restored their basis's end state (lp.Solution.Restored)
// and those of them that began hot (lp.Solution.Hot), the warm starts that
// reused the factors of a basis with the same content (the delta of the
// process counter lp.warm_factor_reuses over the whole analysis, hint and
// verification solves included), the pivots of dual starts that gave way to
// another path (lp.Solution.DiscardedPivots), and degradation and bound as
// multiples of the mean LAG capacity. It asserts
// nothing: it is the yardstick for a change that means to alter the search
// (compare the totals before and after) and a witness for one that must not
// (every column but the wall time must print the same). It is skipped
// without the flag:
//
//	go test ./internal/metaopt -run TestSearchPool -pool -v
//
// The pool is Uninett2010 at seeds 2010–2025 (10 pairs, 4 primary + 1
// backup, QuantBits 2), B4 at seeds 4–11 (12 pairs, 4 primary + 1 backup,
// QuantBits 3), the AfricaWAN fixed-demand alert at seeds 2–4, all at a
// 4,000-node limit, and Cogentco at seed 1 as `raha analyze -topology
// cogentco -primary 4` poses it (gravity at 0.8 × the mean LAG capacity),
// 20 pairs at 2,000 nodes and 40 pairs at 150. Every analysis runs at
// Workers 1, threshold 1e-4, and the variable-demand ones over
// UpTo(gravity, 0.5).
func TestSearchPool(t *testing.T) {
	if !*runPool {
		t.Skip("the search pool runs with -pool")
	}
	type entry struct {
		name string
		cfg  Config
	}
	variable := func(top *topology.Topology, pairs, primary, quantBits int, seed int64, scale float64, nodeLimit int) Config {
		ps := demand.TopPairs(top, pairs, seed)
		dps, err := paths.Compute(top, ps, primary, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		base := demand.Gravity(top, ps, top.MeanLAGCapacity()*scale, seed)
		return Config{
			Topo: top, Demands: dps, Envelope: demand.UpTo(base, 0.5),
			ProbThreshold: 1e-4, QuantBits: quantBits,
			Solver: milp.Params{Workers: 1, NodeLimit: nodeLimit},
		}
	}
	var pool []entry
	for seed := int64(2010); seed <= 2025; seed++ {
		pool = append(pool, entry{fmt.Sprintf("Uninett2010/%d", seed), variable(topology.Uninett2010(), 10, 4, 2, seed, 1, 4000)})
	}
	for seed := int64(4); seed <= 11; seed++ {
		pool = append(pool, entry{fmt.Sprintf("B4/%d", seed), variable(topology.B4(), 12, 4, 3, seed, 1, 4000)})
	}
	for seed := int64(2); seed <= 4; seed++ {
		cfg := africaAlertConfig(t, seed)
		cfg.Solver.NodeLimit = 4000
		pool = append(pool, entry{fmt.Sprintf("AfricaWAN/%d", seed), cfg})
	}
	pool = append(pool,
		entry{"Cogentco/20", variable(topology.Cogentco(), 20, 4, 0, 1, 0.8, 2000)},
		entry{"Cogentco/40", variable(topology.Cogentco(), 40, 4, 0, 1, 0.8, 150)},
	)

	var nodes int
	var iters, restored, hot, reused, discarded int64
	var wall time.Duration
	total := func(name string) {
		t.Logf("%-16s %-10s %7d %9d %8d %6d %6d %9d %9s %9s %8s", name, "", nodes, iters, restored, hot, reused, discarded, "", "", wall.Round(time.Millisecond))
	}
	reuses := obs.Default.Counter("lp.warm_factor_reuses")
	t.Logf("%-16s %-10s %7s %9s %8s %6s %6s %9s %9s %9s %8s", "instance", "status", "nodes", "lp_iters", "restored", "hot", "reused", "discarded", "degr", "bound", "wall")
	for i, e := range pool {
		if i == len(pool)-2 {
			total("subtotal") // the 27 rows at 4,000 nodes
		}
		before := reuses.Value()
		res, err := Analyze(e.cfg)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		reusedRow := reuses.Value() - before
		norm := e.cfg.Topo.MeanLAGCapacity()
		nodes += res.Nodes
		iters += res.Stats.LPIterations
		restored += res.Stats.RestoredStarts
		hot += res.Stats.HotStarts
		reused += reusedRow
		discarded += res.Stats.DiscardedPivots
		wall += res.Runtime
		t.Logf("%-16s %-10v %7d %9d %8d %6d %6d %9d %9.4f %9.4f %8s", e.name, res.Status, res.Nodes, res.Stats.LPIterations,
			res.Stats.RestoredStarts, res.Stats.HotStarts, reusedRow, res.Stats.DiscardedPivots, res.Degradation/norm, res.Bound/norm, res.Runtime.Round(time.Millisecond))
	}
	total("total")
}
