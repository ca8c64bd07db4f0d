package te

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"raha/internal/demand"
	"raha/internal/paths"
	"raha/internal/topology"
)

// africaInstance is the paper-scale verification instance: AfricaWAN's 150
// top pairs, two primaries and a backup each, gravity volumes at mean LAG
// capacity.
func africaInstance(t *testing.T) (*topology.Topology, []paths.DemandPaths, []float64) {
	t.Helper()
	top := topology.AfricaWAN()
	pairs := demand.TopPairs(top, 150, 2)
	dps, err := paths.Compute(top, pairs, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return top, dps, demand.Fixed(demand.Gravity(top, pairs, top.MeanLAGCapacity(), 2)).Hi
}

// allActive marks every path of dps usable.
func allActive(dps []paths.DemandPaths) [][]bool {
	act := make([][]bool, len(dps))
	for k, dp := range dps {
		act[k] = make([]bool, len(dp.Paths))
		for j := range act[k] {
			act[k][j] = true
		}
	}
	return act
}

// MaxTotalFlow's allocation budget on AfricaWAN, 150 pairs: one healthy and
// one all-paths solve, what a verification re-simulation runs. With the
// workspace warm only the Results and the LP solutions allocate: measured
// at 12 allocations and 26 KB (3,162 and 271 KB with a slice per demand, per
// LAG and per row; 18 and 30 KB while each solve's basis was dropped rather
// than handed back with its lowering). The count is exact; the budgets leave room for Go
// releases.
const (
	resimAllocBudget = 24
	resimByteBudget  = 40 << 10
)

func TestMaxTotalFlowAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds its own allocations")
	}
	top, dps, vols := africaInstance(t)
	caps := FullCapacities(top)
	healthy, all := HealthyActive(dps), allActive(dps)
	run := func() {
		for _, act := range [][][]bool{healthy, all} {
			if res, err := MaxTotalFlow(top, dps, vols, caps, act); err != nil || !res.Feasible {
				t.Fatalf("MaxTotalFlow: %v, %v", res, err)
			}
		}
	}
	run() // warm: the free lists now hold the workspaces
	allocs := testing.AllocsPerRun(5, run)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 5
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("AfricaWAN, 150 pairs, healthy + all-paths: %.0f allocations, %d bytes", allocs, bytes)
	if allocs > resimAllocBudget {
		t.Errorf("%.0f allocations, budget %d", allocs, resimAllocBudget)
	}
	if bytes > resimByteBudget {
		t.Errorf("%d bytes, budget %d", bytes, resimByteBudget)
	}
}

// sameResult compares two TE results bit for bit.
func sameResult(a, b *Result) bool {
	bits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Feasible == b.Feasible && bits(a.Objective, b.Objective) &&
		slices.EqualFunc(a.PerDemand, b.PerDemand, bits) &&
		slices.EqualFunc(a.PathFlows, b.PathFlows, func(x, y []float64) bool { return slices.EqualFunc(x, y, bits) })
}

// TestWorkspaceMatchesReference holds the three workspace solvers to the
// per-call-slice ones they replaced (ref_test.go), bit for bit, on B4 and
// AfricaWAN under random scenarios: paths switched off, LAGs cut to a
// fraction or to nothing, naive fail-over caps, and demands at zero.
func TestWorkspaceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	top, dps, vols := africaInstance(t)
	b4 := topology.B4()
	b4Pairs := demand.TopPairs(b4, 12, 5)
	b4Dps, err := paths.Compute(b4, b4Pairs, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	b4Vols := demand.Fixed(demand.Gravity(b4, b4Pairs, b4.MeanLAGCapacity(), 5)).Hi
	type instance struct {
		top  *topology.Topology
		dps  []paths.DemandPaths
		vols []float64
	}
	for _, in := range []instance{{b4, b4Dps, b4Vols}, {top, dps, vols}} {
		for trial := 0; trial < 12; trial++ {
			caps := FullCapacities(in.top)
			for e := range caps {
				switch rng.Intn(6) {
				case 0:
					caps[e] = 0
				case 1:
					caps[e] *= rng.Float64()
				}
			}
			act := allActive(in.dps)
			pathCaps := make([][]float64, len(in.dps))
			for k := range act {
				pathCaps[k] = make([]float64, len(act[k]))
				for j := range act[k] {
					act[k][j] = j == 0 || rng.Intn(3) > 0
					pathCaps[k][j] = in.vols[k] * rng.Float64()
				}
			}
			vols := slices.Clone(in.vols)
			vols[rng.Intn(len(vols))] = 0
			binner := BinnerConfig{Bins: 1 + rng.Intn(6)}
			var caseCaps [][]float64
			if trial%2 == 1 {
				caseCaps = pathCaps
			}
			type pair struct {
				name     string
				got, ref func() (*Result, error)
			}
			for _, c := range []pair{
				{"MaxTotalFlowWithPathCaps",
					func() (*Result, error) { return MaxTotalFlowWithPathCaps(in.top, in.dps, vols, caps, act, caseCaps) },
					func() (*Result, error) { return refMaxTotalFlowWithPathCaps(in.top, in.dps, vols, caps, act, caseCaps) }},
				{"MinMLU",
					func() (*Result, error) { return MinMLU(in.top, in.dps, vols, caps, act) },
					func() (*Result, error) { return refMinMLU(in.top, in.dps, vols, caps, act) }},
				{"MaxMinBinned",
					func() (*Result, error) { return MaxMinBinned(in.top, in.dps, vols, caps, act, binner) },
					func() (*Result, error) { return refMaxMinBinned(in.top, in.dps, vols, caps, act, binner) }},
			} {
				got, err := c.got()
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				want, err := c.ref()
				if err != nil {
					t.Fatalf("reference %s: %v", c.name, err)
				}
				if !sameResult(got, want) {
					t.Errorf("%d LAGs, trial %d: %s = %+v, reference %+v", in.top.NumLAGs(), trial, c.name, got, want)
				}
			}
		}
	}
}
