package demand

// The referee for the pair ranking: TopPairs as it stood before the compact
// scan, a selection sort over a materialized slice of every candidate pair.
// TestTopPairsMatchesReferee holds TopPairs to it pair for pair.

import (
	"math/rand"

	"raha/internal/topology"
)

func refTopPairs(t *topology.Topology, n int, seed int64) [][2]topology.Node {
	rng := rand.New(rand.NewSource(seed))
	mass := make([]float64, t.NumNodes())
	for i := range mass {
		mass[i] = 0.2 + rng.Float64()
	}
	type scored struct {
		p [2]topology.Node
		v float64
	}
	all := make([]scored, 0, t.NumNodes()*(t.NumNodes()-1))
	for a := 0; a < t.NumNodes(); a++ {
		for b := 0; b < t.NumNodes(); b++ {
			if a == b {
				continue
			}
			all = append(all, scored{p: [2]topology.Node{topology.Node(a), topology.Node(b)}, v: mass[a] * mass[b]})
		}
	}
	if n > len(all) {
		n = len(all)
	}
	for i := 0; i < n; i++ {
		best := i
		for j := i + 1; j < len(all); j++ {
			if all[j].v > all[best].v {
				best = j
			}
		}
		all[i], all[best] = all[best], all[i]
	}
	out := make([][2]topology.Node, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].p
	}
	return out
}

// RefTopPairs exports the referee to package demand_test.
var RefTopPairs = refTopPairs
