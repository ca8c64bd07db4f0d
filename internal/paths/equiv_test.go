package paths_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"raha/internal/batch"
	"raha/internal/demand"
	"raha/internal/paths"
	"raha/internal/topology"
)

// corpus is every topology the equivalence tests run on: the builtins, every
// loadable GML fixture, the fleet benchmark's synthetic WANs, and small
// random graphs and grids whose unit weights tie everywhere.
func corpus(t testing.TB) map[string]*topology.Topology {
	out := map[string]*topology.Topology{
		"b4": topology.B4(), "uninett2010": topology.Uninett2010(), "cogentco": topology.Cogentco(),
		"africawan": topology.AfricaWAN(), "smallwan": topology.SmallWAN(), "figure1": topology.Figure1(),
	}
	zoo, err := batch.ZooDir("../topology/testdata")
	if err != nil {
		t.Fatal(err)
	}
	synth := batch.Synthetic(40, 7)
	if testing.Short() {
		synth = synth[:12]
	}
	for _, src := range append(zoo, synth...) {
		if top, err := src.Load(); err == nil {
			out[src.Name] = top
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 12; i++ {
		nn := 5 + rng.Intn(12)
		top, err := topology.Generate(topology.GenConfig{Nodes: nn, LAGs: min(nn+rng.Intn(2*nn), nn*(nn-1)/2), Seed: rng.Int63()})
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("random-%d", i)] = top
	}
	for _, k := range []int{3, 4, 6} {
		out[fmt.Sprintf("grid-%d", k)] = grid(k)
	}
	return out
}

// grid is a k×k lattice of unit-capacity LAGs: between most pairs a great
// many shortest paths tie.
func grid(k int) *topology.Topology {
	t := topology.New()
	for i := 0; i < k*k; i++ {
		t.AddNode(fmt.Sprint(i))
	}
	link := []topology.Link{{Capacity: 1}}
	for r := 0; r < k; r++ {
		for c := 0; c < k; c++ {
			if c+1 < k {
				t.MustAddLAG(topology.Node(r*k+c), topology.Node(r*k+c+1), link)
			}
			if r+1 < k {
				t.MustAddLAG(topology.Node(r*k+c), topology.Node((r+1)*k+c), link)
			}
		}
	}
	return t
}

// invCapWeight prefers high-capacity LAGs: a weight that is not hop count.
func invCapWeight(t *topology.Topology) paths.Weight {
	return func(id int) float64 { return 1 / (1 + t.LAG(id).Capacity()) }
}

// TestComputeMatchesReferee holds Compute to the map-and-container/heap
// Yen's algorithm it replaced (ref_test.go), tunnel for tunnel, on the whole
// corpus, under hop and inverse-capacity weights, several pair selections
// and several path counts (the fleet's two primaries and one backup on every
// topology, more and fewer on those up to 60 nodes).
func TestComputeMatchesReferee(t *testing.T) {
	for name, top := range corpus(t) {
		weights := map[string]paths.Weight{"hop": paths.HopWeight, "invcap": invCapWeight(top)}
		counts := [][2]int{{2, 1}}
		if top.NumNodes() <= 60 {
			counts = append(counts, [2]int{1, 0}, [2]int{3, 3})
		}
		for _, seed := range []int64{1, 5} {
			for _, np := range []int{12, 60} {
				pairs := demand.TopPairs(top, np, seed)
				for wname, w := range weights {
					for _, pb := range counts {
						got, gerr := paths.Compute(top, pairs, pb[0], pb[1], w)
						want, werr := paths.RefCompute(top, pairs, pb[0], pb[1], w)
						if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
							t.Fatalf("%s %s seed %d pairs %d paths %v: Compute differs from the referee (err %v, want %v)",
								name, wname, seed, np, pb, gerr, werr)
						}
					}
				}
			}
		}
	}
}

// TestKShortestMatchesReferee does the same for KShortest on every ordered
// pair of the small graphs, with one workspace reused across all of them —
// the way Compute runs — and with a fresh one per call.
func TestKShortestMatchesReferee(t *testing.T) {
	for name, top := range corpus(t) {
		if top.NumNodes() > 25 {
			continue
		}
		for _, k := range []int{1, 4, 9} {
			ws := paths.NewWorkspace(top, paths.HopWeight)
			for a := 0; a < top.NumNodes(); a++ {
				for b := 0; b < top.NumNodes(); b++ {
					want := paths.RefKShortest(top, topology.Node(a), topology.Node(b), k, nil)
					if a == b {
						want = nil
					}
					fresh := paths.KShortest(top, topology.Node(a), topology.Node(b), k, nil)
					if !reflect.DeepEqual(fresh, want) {
						t.Fatalf("%s %d→%d k=%d: KShortest differs from the referee", name, a, b, k)
					}
					if a == b {
						continue
					}
					if got := paths.KShortestOn(ws, a, b, k); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %d→%d k=%d: a reused workspace differs from the referee", name, a, b, k)
					}
				}
			}
		}
	}
}
