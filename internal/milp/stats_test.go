package milp

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// TestStatsAccSnapshotMapping pins the statsAcc → Stats field mapping: every
// accumulator field must land in its Stats counterpart. Each field gets a
// distinct value, the snapshot must reproduce the expected struct exactly,
// and a reflection sweep asserts no int64 field of the snapshot was left at
// zero — so adding a field to Stats without wiring it through snapshot (and
// this test) fails loudly instead of silently reporting zeros.
func TestStatsAccSnapshotMapping(t *testing.T) {
	var a statsAcc
	a.lpSolves.Store(1)
	a.lpIterations.Store(2)
	a.degeneratePivots.Store(3)
	a.blandPivots.Store(4)
	a.warmStarts.Store(5)
	a.warmIters.Store(6)
	a.coldFallbacks.Store(7)
	a.nodesBranched.Store(8)
	a.prunedInfeasible.Store(9)
	a.prunedBound.Store(10)
	a.prunedIterLimit.Store(11)
	a.integral.Store(12)
	a.unboundedNodes.Store(13)
	a.prePruned.Store(14)
	a.incumbentUpdates.Store(15)
	a.heuristicSolves.Store(16)
	a.propagationPrunes.Store(17)
	a.pseudocostBranches.Store(18)
	a.lpWarmNs.Store(19)
	a.lpColdNs.Store(20)
	a.heurNs.Store(21)
	a.branchNs.Store(22)
	a.queuePopNs.Store(23)
	a.queuePops.Store(24)
	a.queuePushNs.Store(25)
	a.queuePushes.Store(26)
	a.steals.Store(33)
	a.failedSteals.Store(34)
	a.stolenNodes.Store(35)
	a.stealNs.Store(36)
	a.lpCutoffs.Store(37)
	a.lpObjLimitStops.Store(38)
	a.boundPrunes.Store(39)
	a.budgetPrunes.Store(40)
	a.maxOpen.Store(27)
	a.presolveNs = 28
	a.presolveFixedVars = 29
	a.presolveRemovedRows = 30
	a.presolveTightenedBounds = 31
	a.presolveTightenedCoefs = 32

	got := a.snapshot()
	want := Stats{
		LPSolves:         1,
		LPIterations:     2,
		DegeneratePivots: 3,
		BlandPivots:      4,
		WarmStarts:       5,
		WarmIters:        6,
		ColdFallbacks:    7,
		NodesBranched:    8,
		PrunedInfeasible: 9,
		PrunedBound:      10,
		PrunedIterLimit:  11,
		Integral:         12,
		UnboundedNodes:   13,
		LPCutoffs:        37,
		LPObjLimitStops:  38,
		PrePruned:        14,
		BoundPrunes:      39,
		IncumbentUpdates: 15,
		HeuristicSolves:  16,
		MaxOpen:          27,

		PresolveFixedVars:       29,
		PresolveRemovedRows:     30,
		PresolveTightenedBounds: 31,
		PresolveTightenedCoefs:  32,
		PropagationPrunes:       17,
		BudgetPrunes:            40,
		PseudocostBranches:      18,

		PresolveNs: 28,
		LPWarmNs:   19,
		LPColdNs:   20,
		HeurNs:     21,
		BranchNs:   22,

		QueuePopNs:  23,
		QueuePops:   24,
		QueuePushNs: 25,
		QueuePushes: 26,

		Steals:       33,
		FailedSteals: 34,
		StolenNodes:  35,
		StealNs:      36,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot mismatch:\ngot  %+v\nwant %+v", got, want)
	}

	// Completeness sweep: a Stats int64 field still at zero means the value
	// assigned above never made it through snapshot (or a newly added field
	// was not wired into the mapping and this test).
	rv := reflect.ValueOf(got)
	rt := rv.Type()
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if f.Type.Kind() != reflect.Int64 {
			continue
		}
		if rv.Field(i).Int() == 0 {
			t.Errorf("Stats.%s is zero after snapshot; field is missing from the statsAcc mapping or from this test", f.Name)
		}
	}
}

// TestStatsConcurrentSampling hammers the exact interleaving the statsAcc
// refactor exists for: four workers writing the accumulator and the
// per-worker atomics while the sampler goroutine reads a live timeline at
// high frequency. Under -race this fails on any atomic/plain mixing; under
// a normal run it still checks that the mid-flight snapshots are sane and
// the final quiescent copy dominates every live observation.
func TestStatsConcurrentSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 6; i++ {
		m := knapsack(14+rng.Intn(6), int64(100+i))
		var liveMax int64
		res, err := m.Solve(Params{
			Workers:       4,
			Timing:        true,
			ProgressEvery: time.Millisecond,
			OnProgress: func(p Progress) {
				if p.Incumbents < 0 {
					t.Errorf("live incumbent counter went negative: %d", p.Incumbents)
				}
				if p.Incumbents > liveMax {
					liveMax = p.Incumbents
				}
			},
		})
		if err != nil {
			t.Fatalf("inst=%d: %v", i, err)
		}
		if res.Stats.IncumbentUpdates < liveMax {
			t.Fatalf("inst=%d: final IncumbentUpdates %d below a live observation %d",
				i, res.Stats.IncumbentUpdates, liveMax)
		}
		if got := statsOutcomes(res.Stats); got != int64(res.Nodes) {
			t.Fatalf("inst=%d: outcome sum %d != Nodes %d under concurrent sampling",
				i, got, res.Nodes)
		}
	}
}
