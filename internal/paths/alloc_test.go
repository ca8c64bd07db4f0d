package paths

import (
	"runtime"
	"testing"

	"raha/internal/demand"
	"raha/internal/topology"
)

// Compute's allocation budget on the paper-scale instance: AfricaWAN's 150
// top pairs, two primaries and a backup each. What remains is what the
// result owns — each kept tunnel's two slices, each pair's path list, the
// candidates Yen's algorithm keeps — plus one workspace per call: measured
// at 2,666 allocations and 180 KB (118,363 and 4.8 MB with per-call
// Dijkstra arrays, map bans and container/heap's boxed items). The counts
// are exact, under the race detector too; the budgets leave 10% for Go
// releases.
const (
	computeAllocBudget = 2930
	computeByteBudget  = 198 << 10
)

func TestComputeAllocBudget(t *testing.T) {
	top := topology.AfricaWAN()
	pairs := demand.TopPairs(top, 150, 2)
	run := func() {
		if _, err := Compute(top, pairs, 2, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(3, run)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("Compute, AfricaWAN, 150 pairs: %.0f allocations, %d bytes", allocs, bytes)
	if allocs > computeAllocBudget {
		t.Errorf("Compute, AfricaWAN, 150 pairs: %.0f allocations, budget %d", allocs, computeAllocBudget)
	}
	if bytes > computeByteBudget {
		t.Errorf("Compute, AfricaWAN, 150 pairs: %d bytes, budget %d", bytes, computeByteBudget)
	}
}
