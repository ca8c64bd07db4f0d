package demand_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"raha/internal/batch"
	"raha/internal/demand"
	"raha/internal/topology"
)

// TestTopPairsMatchesReferee holds TopPairs to the materialized selection
// sort it replaced (ref_test.go), pair for pair, on the builtins, every
// loadable GML fixture, the fleet benchmark's synthetic WANs and small random
// graphs, for several seeds and pair counts up to every pair there is. Every
// pair's product ties exactly with its reverse's, so the tie order is
// exercised throughout.
func TestTopPairsMatchesReferee(t *testing.T) {
	tops := map[string]*topology.Topology{
		"b4": topology.B4(), "uninett2010": topology.Uninett2010(), "cogentco": topology.Cogentco(),
		"africawan": topology.AfricaWAN(), "smallwan": topology.SmallWAN(), "figure1": topology.Figure1(),
	}
	zoo, err := batch.ZooDir("../topology/testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range append(zoo, batch.Synthetic(40, 7)...) {
		if top, err := src.Load(); err == nil {
			tops[src.Name] = top
		}
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 8; i++ {
		nn := 2 + rng.Intn(10)
		top, err := topology.Generate(topology.GenConfig{Nodes: nn, LAGs: nn * (nn - 1) / 2, Seed: rng.Int63()})
		if err != nil {
			t.Fatal(err)
		}
		tops[fmt.Sprintf("random-%d", i)] = top
	}
	for name, top := range tops {
		nn := top.NumNodes()
		for _, seed := range []int64{1, 2, 7} {
			for _, n := range []int{0, 1, 12, 60, 150, nn * (nn - 1), nn*(nn-1) + 5} {
				if n > 150 && nn > 30 {
					continue // every pair of a large graph: quadratic in n·N², and the small graphs cover it
				}
				got, want := demand.TopPairs(top, n, seed), demand.RefTopPairs(top, n, seed)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s seed %d n %d: TopPairs differs from the referee", name, seed, n)
				}
			}
		}
	}
}

// BenchmarkTopPairs ranks AfricaWAN's pairs for the 150 the paper-scale
// alert models, against the referee's materialized sort.
func BenchmarkTopPairs(b *testing.B) {
	top := topology.AfricaWAN()
	for name, f := range map[string]func(*topology.Topology, int, int64) [][2]topology.Node{
		"compact": demand.TopPairs, "referee": demand.RefTopPairs,
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f(top, 150, 2)
			}
		})
	}
}
