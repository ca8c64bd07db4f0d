package milp

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"raha/internal/obs"
)

// weaker moves a bound d away from the optimum it bounds: up for a Maximize
// model, down for a Minimize one.
func weaker(m *Model, bound, d float64) *float64 {
	if m.sense == Maximize {
		bound += d
	} else {
		bound -= d
	}
	return &bound
}

// TestCallerBoundOnCorpus referees Params.Bound on the brute-force corpus —
// the first input that can end a search early on outside information.
//
//   - A bound the incumbent never reaches (optimum ± ½) changes nothing: at
//     Workers 1 the result, the node count and the whole Stats are the ones of
//     the solve without a bound, bit for bit; at Workers 4 the same optimum.
//   - The tight bound (the optimum itself) ends Optimal at the brute-force
//     objective with Objective == Bound, on no more nodes than without it —
//     and on fewer somewhere in the corpus, or the test proves nothing.
//   - An infeasible instance stays Infeasible whatever bound it is handed.
func TestCallerBoundOnCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := propCorpusSize(t)
	var saved, boundStops int64
	for trial := 0; trial < n; trial++ {
		inst := genMILP(rng)
		want := inst.bruteForce(t)
		base := solveOK(t, inst.m, corpusParams(Params{Workers: 1}))
		if base.Stats.BoundPrunes != 0 {
			t.Fatalf("trial %d: %d bound prunes without a bound", trial, base.Stats.BoundPrunes)
		}
		if math.IsInf(want, 0) {
			zero := 0.0
			if res := solveOK(t, inst.m, corpusParams(Params{Workers: 1, Bound: &zero})); res.Status != Infeasible {
				t.Fatalf("trial %d: status %v under a bound, brute force says infeasible", trial, res.Status)
			}
			continue
		}

		loose := solveOK(t, inst.m, corpusParams(Params{Workers: 1, Bound: weaker(inst.m, want, 0.5)}))
		ls, bs := loose.Stats, base.Stats
		scrubTimingStats(&ls)
		scrubTimingStats(&bs)
		//raha:lint-allow float-cmp bitwise identity is the property under test
		if loose.Status != base.Status || loose.Nodes != base.Nodes || loose.Objective != base.Objective ||
			!reflect.DeepEqual(loose.X, base.X) || !reflect.DeepEqual(ls, bs) {
			t.Fatalf("trial %d: a bound never reached changed the serial solve:\n%v %d nodes obj %g %+v\n%v %d nodes obj %g %+v",
				trial, loose.Status, loose.Nodes, loose.Objective, ls, base.Status, base.Nodes, base.Objective, bs)
		}

		for _, workers := range []int{1, 4} {
			res := solveOK(t, inst.m, corpusParams(Params{Workers: workers, Bound: weaker(inst.m, want, 0.5)}))
			if res.Status != Optimal || math.Abs(res.Objective-want) > 1e-5 {
				t.Fatalf("trial %d (loose, %d workers): %v at %g, brute force %g", trial, workers, res.Status, res.Objective, want)
			}

			res = solveOK(t, inst.m, corpusParams(Params{Workers: workers, Bound: weaker(inst.m, want, 0)}))
			if res.Status != Optimal || math.Abs(res.Objective-want) > 1e-5 {
				t.Fatalf("trial %d (tight, %d workers): %v at %g, brute force %g", trial, workers, res.Status, res.Objective, want)
			}
			//raha:lint-allow float-cmp an Optimal result reports its objective as its bound, exactly
			if res.Bound != res.Objective {
				t.Fatalf("trial %d (tight, %d workers): bound %g != objective %g", trial, workers, res.Bound, res.Objective)
			}
			nodeAccounting(t, trial, "tight", res, Params{Workers: workers})
			if workers == 1 {
				if res.Nodes > base.Nodes {
					t.Fatalf("trial %d: %d nodes under the tight bound, %d without", trial, res.Nodes, base.Nodes)
				}
				saved += int64(base.Nodes - res.Nodes)
				if res.Stats.BoundPrunes > 0 {
					boundStops++
				}
			}
		}
	}
	t.Logf("tight bounds saved %d nodes and ended %d of the serial searches", saved, boundStops)
	if saved == 0 || boundStops == 0 {
		t.Error("the tight bound never shortened a search: the corpus does not exercise Params.Bound")
	}
}

// TestBoundMetByHintStopsAtZeroNodes: a hint whose incumbent reaches the
// caller's bound proves itself optimal — the root is discarded unsolved, no
// node is explored, and the trace says why the search stopped.
func TestBoundMetByHintStopsAtZeroNodes(t *testing.T) {
	m := wideKnapsack(11, 20)
	ref := solveOK(t, m, Params{Workers: 1})
	if ref.Status != Optimal || ref.Nodes == 0 {
		t.Fatalf("reference solve: %v in %d nodes, want an optimal solve that needs its tree", ref.Status, ref.Nodes)
	}
	for _, workers := range []int{1, 4} {
		var buf bytes.Buffer
		bound := ref.Objective
		res := solveOK(t, m, Params{Workers: workers, Hints: [][]float64{ref.X}, Bound: &bound, Tracer: obs.NewJSONLTracer(&buf)})
		if res.Status != Optimal || res.Nodes != 0 || res.Stats.BoundPrunes != 1 {
			t.Fatalf("%d workers: %v in %d nodes with %d bound prunes, want optimal at zero nodes by one bound prune",
				workers, res.Status, res.Nodes, res.Stats.BoundPrunes)
		}
		//raha:lint-allow float-cmp an Optimal result reports its objective as its bound, exactly
		if math.Abs(res.Objective-ref.Objective) > 1e-9 || res.Bound != res.Objective {
			t.Fatalf("%d workers: objective %g bound %g, reference optimum %g", workers, res.Objective, res.Bound, ref.Objective)
		}
		if trace := buf.String(); !strings.Contains(trace, `"stop":"bound"`) || strings.Contains(trace, `"ev":"node"`) {
			t.Fatalf("%d workers: trace must carry solve_end stop=bound and no node event:\n%s", workers, trace)
		}
	}

	// Without the bound the same hint still needs the tree to prove itself,
	// and its solve_end names no stop.
	var buf bytes.Buffer
	res := solveOK(t, m, Params{Workers: 1, Hints: [][]float64{ref.X}, Tracer: obs.NewJSONLTracer(&buf)})
	if res.Nodes == 0 || res.Stats.BoundPrunes != 0 || strings.Contains(buf.String(), `"stop"`) {
		t.Fatalf("no bound: %d nodes, %d bound prunes", res.Nodes, res.Stats.BoundPrunes)
	}
}

// TestCallerBoundTightensReportedBound: a search stopped at its first node
// reports the caller's bound when that is the tighter one, and the gap with
// it.
func TestCallerBoundTightensReportedBound(t *testing.T) {
	m := wideKnapsack(7, 24)
	opt := trueOptimum(t, 7, 24)
	plain := solveOK(t, m, Params{Workers: 1, NodeLimit: 1})
	bound := opt + 1e-3
	if plain.Bound <= bound {
		t.Fatalf("root bound %g is already as tight as %g: the instance proves nothing", plain.Bound, bound)
	}
	res := solveOK(t, m, Params{Workers: 1, NodeLimit: 1, Bound: &bound})
	//raha:lint-allow float-cmp the caller's bound is reported verbatim
	if res.Status != Feasible || res.Bound != bound || res.Gap() >= plain.Gap() {
		t.Fatalf("%v with bound %g (gap %g), want feasible at the caller's %g and a gap under %g",
			res.Status, res.Bound, res.Gap(), bound, plain.Gap())
	}
}
