package augment

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"raha/internal/demand"
	"raha/internal/milp"
	"raha/internal/obs"
	"raha/internal/topology"
)

// fixture: the Figure-1-style network with demands B→D and C→D.
func fixture() (*topology.Topology, [][2]topology.Node, demand.Matrix) {
	top := topology.Figure1()
	b, _ := top.NodeByName("B")
	c, _ := top.NodeByName("C")
	d, _ := top.NodeByName("D")
	pairs := [][2]topology.Node{{b, d}, {c, d}}
	base := demand.Matrix{
		{Src: b, Dst: d, Volume: 12},
		{Src: c, Dst: d, Volume: 10},
	}
	return top, pairs, base
}

func TestAugmentExistingRemovesDegradation(t *testing.T) {
	// The paper's §2.1 network: both configured paths usable (2 primaries).
	// The worst single failure (the A-D LAG) degrades the design point.
	top, pairs, base := fixture()
	cfg := Config{
		Topo:        top,
		Pairs:       pairs,
		Envelope:    demand.Fixed(base),
		Primary:     2,
		MaxFailures: 1,
	}
	res, err := AugmentExisting(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge; final degradation %g after %d steps", res.FinalDegradation, len(res.Steps))
	}
	if res.FinalDegradation > 1e-6 {
		t.Fatalf("final degradation %g", res.FinalDegradation)
	}
	if res.TotalLinksAdded == 0 {
		t.Fatal("the Figure 1 network degrades under single failures; links must be added")
	}
	// Original topology must be untouched.
	if top.NumLinks() != 5 {
		t.Fatalf("input topology mutated: %d links", top.NumLinks())
	}
	if res.Topo.NumLinks() <= 5 {
		t.Fatalf("augmented topology has %d links", res.Topo.NumLinks())
	}
	// Steps record positive degradations in nonincreasing-ish fashion and
	// positive link additions.
	for i, st := range res.Steps {
		if st.Degradation <= 0 || st.LinksAdded <= 0 {
			t.Fatalf("step %d: degradation %g, links %d", i, st.Degradation, st.LinksAdded)
		}
	}
}

// solveTracer records the width of every milp solve_start, and how many of
// them fell outside any metaopt analysis: at Workers 1 the events arrive in
// order, so those are the augment MILPs.
type solveTracer struct {
	mu      sync.Mutex
	depth   int
	widths  []int
	outside int
}

func (r *solveTracer) Emit(layer, ev string, f obs.F) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch layer + "/" + ev {
	case "metaopt/analysis_start":
		r.depth++
	case "metaopt/analysis_end":
		r.depth--
	case "milp/solve_start":
		r.widths = append(r.widths, f["workers"].(int))
		if r.depth == 0 {
			r.outside++
		}
	}
}

// check fails unless every solve ran at width 1 and each of the run's
// augment MILPs traced its own solve_start.
func (r *solveTracer) check(t *testing.T, augments int) {
	t.Helper()
	if r.outside != augments {
		t.Fatalf("%d solve_start events, %d outside an analysis; want %d, one per augment MILP",
			len(r.widths), r.outside, augments)
	}
	for i, w := range r.widths {
		if w != 1 {
			t.Fatalf("solve_start %d ran %d workers wide, want Solver.Workers 1", i, w)
		}
	}
}

// TestAugmentSolvesObeySolver: the augment MILPs run under Config.Solver —
// its width and its tracer — not under the solver's defaults.
func TestAugmentSolvesObeySolver(t *testing.T) {
	top := topology.SmallWAN()
	pairs := demand.TopPairs(top, 6, 4)
	base := demand.Gravity(top, pairs, top.MeanLAGCapacity()*0.2, 4)
	tr := &solveTracer{}
	res, err := AugmentExisting(Config{
		Topo:          top,
		Pairs:         pairs,
		Envelope:      demand.UpTo(base, 0.5),
		Primary:       2,
		Backup:        1,
		ProbThreshold: 1e-4,
		Solver:        milp.Params{Workers: 1, Tracer: tr},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) == 0 {
		t.Fatal("no augment step ran")
	}
	tr.check(t, len(res.Steps))
}

func TestAugmentExistingAlreadyHealthy(t *testing.T) {
	// With zero demand no failure degrades anything: 0 steps.
	top, pairs, base := fixture()
	cfg := Config{
		Topo:        top,
		Pairs:       pairs,
		Envelope:    demand.Fixed(base.Scale(0)),
		Primary:     1,
		Backup:      1,
		MaxFailures: 2,
	}
	res, err := AugmentExisting(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || len(res.Steps) != 0 || res.TotalLinksAdded != 0 {
		t.Fatalf("healthy network should need no augment: %+v", res)
	}
}

func TestAugmentExistingCanFailProbabilities(t *testing.T) {
	top, pairs, base := fixture()
	cfg := Config{
		Topo:               top,
		Pairs:              pairs,
		Envelope:           demand.Fixed(base),
		Primary:            2,
		MaxFailures:        1,
		NewCapacityCanFail: true,
	}
	res, err := AugmentExisting(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Added links must carry the average probability of their LAG, not the
	// negligible value.
	found := false
	for _, l := range res.Topo.LAGs() {
		for _, ln := range l.Links {
			if ln.FailProb > negligibleFailProb*10 && ln.FailProb < 1 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no realistic failure probabilities found on the augmented topology")
	}
}

func TestAugmentNewLAGs(t *testing.T) {
	// Line topology A–B–C with a single-path demand A→C. The worst probable
	// single failure cuts the line; a direct A-C candidate LAG removes the
	// degradation. Probability-threshold mode keeps the added (negligible
	// failure probability) capacity out of the adversary's reach — the
	// Figure 18 setting.
	top := topology.New()
	a := top.AddNode("A")
	b := top.AddNode("B")
	c := top.AddNode("C")
	mk := func() []topology.Link { return []topology.Link{{Capacity: 10, FailProb: 0.01}} }
	top.MustAddLAG(a, b, mk())
	top.MustAddLAG(b, c, mk())
	pairs := [][2]topology.Node{{a, c}}
	base := demand.Matrix{{Src: a, Dst: c, Volume: 8}}
	tr := &solveTracer{}
	cfg := Config{
		Topo:          top,
		Pairs:         pairs,
		Envelope:      demand.Fixed(base),
		Primary:       1,
		ProbThreshold: 1e-3, // single original-link failures only
		Solver:        milp.Params{Workers: 1, Tracer: tr},
	}
	res, err := AugmentNewLAGs(cfg, [][2]topology.Node{{a, c}})
	if err != nil {
		t.Fatal(err)
	}
	tr.check(t, len(res.Steps))
	if !res.Converged {
		t.Fatalf("did not converge; final %g after %d steps", res.FinalDegradation, len(res.Steps))
	}
	if res.TotalLinksAdded == 0 || res.Topo.NumLAGs() != 3 {
		t.Fatalf("expected one new LAG: %d links added, %d LAGs", res.TotalLinksAdded, res.Topo.NumLAGs())
	}
	if top.NumLAGs() != 2 {
		t.Fatal("input topology mutated")
	}
	if res.Steps[0].Degradation < 8-1e-6 {
		t.Fatalf("first-step degradation %g, want 8 (full demand dropped)", res.Steps[0].Degradation)
	}
	// The step records the placed candidate under its new LAG id, and that
	// LAG joins the candidate's endpoints.
	added := res.Steps[0].Added
	if len(added) != 1 || added[2] != res.TotalLinksAdded {
		t.Fatalf("step 1 added %v, want all %d links on new LAG 2", added, res.TotalLinksAdded)
	}
	if l := res.Topo.LAG(2); l.A != a || l.B != c {
		t.Fatalf("new LAG joins %v-%v, want the candidate %v-%v", l.A, l.B, a, c)
	}
}

// TestAugmentNewLAGsCLIDefaults_Regression: `raha augment -new-lags` on its
// defaults converges on SmallWAN and on B4. Its edge-form MILP is
// infeasible in a SmallWAN step (no open candidate reconnects a cut
// demand) and places nothing in a B4 step whose configured tunnels still
// degrade; both steps take §7's instead of ending the run. A second run must repeat the first step for step: the
// edge form's pick among tied optima may not depend on map order.
func TestAugmentNewLAGsCLIDefaults_Regression(t *testing.T) {
	for _, tc := range []struct {
		name string
		top  *topology.Topology
	}{
		{"smallwan", topology.SmallWAN()},
		{"b4", topology.B4()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			top := tc.top
			pairs := demand.TopPairs(top, 6, 1)
			base := demand.Gravity(top, pairs, top.MeanLAGCapacity()*0.8, 1)
			cfg := Config{
				Topo:          top,
				Pairs:         pairs,
				Envelope:      demand.UpTo(base, 0.5),
				Primary:       2,
				Backup:        1,
				ProbThreshold: 1e-4,
				Solver:        milp.Params{TimeLimit: 30 * time.Second, Workers: 1},
			}
			candidates := CandidateLAGs(top, pairs, 8)
			res, err := AugmentNewLAGs(cfg, candidates)
			if err != nil {
				t.Fatal(err)
			}
			again, err := AugmentNewLAGs(cfg, candidates)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Steps, again.Steps) {
				t.Fatalf("two runs differ:\n%+v\n%+v", res.Steps, again.Steps)
			}
			if !res.Converged {
				t.Fatalf("did not converge: final degradation %g after %d steps", res.FinalDegradation, len(res.Steps))
			}
			if res.Topo.NumLAGs() == top.NumLAGs() {
				t.Fatal("no candidate LAG placed")
			}
		})
	}
}

func TestAugmentNewLAGsNeedsCandidates(t *testing.T) {
	top, pairs, base := fixture()
	cfg := Config{
		Topo: top, Pairs: pairs, Envelope: demand.Fixed(base),
		Primary: 2, MaxFailures: 1,
	}
	if _, err := AugmentNewLAGs(cfg, nil); err == nil {
		t.Fatal("no candidates must error")
	}
	// Candidates that all already exist: the loop must surface the failure
	// rather than spin.
	b, _ := top.NodeByName("B")
	d, _ := top.NodeByName("D")
	if _, err := AugmentNewLAGs(cfg, [][2]topology.Node{{b, d}}); err == nil {
		t.Fatal("exhausted candidates with remaining degradation must error")
	}
}

func TestLinkCapacityDefault(t *testing.T) {
	// Figure 1's five single-link LAGs: (8 + 12 + 9 + 8 + 12) / 5.
	top, _, _ := fixture()
	if got := meanLinkCapacity(top); got != 9.8 {
		t.Fatalf("added link capacity %g, want the mean member-link capacity 9.8", got)
	}
}

func TestCandidateLAGs(t *testing.T) {
	top := topology.SmallWAN()
	degree := func(c [2]topology.Node) int { return len(top.Incident(c[0])) + len(top.Incident(c[1])) }
	cands := CandidateLAGs(top, nil, 5)
	if len(cands) != 5 {
		t.Fatalf("candidates = %d", len(cands))
	}
	for i, c := range cands {
		if c[0] == c[1] {
			t.Fatal("self candidate")
		}
		if top.LAGBetween(c[0], c[1]) >= 0 {
			t.Fatal("candidate already exists")
		}
		if i > 0 && degree(c) > degree(cands[i-1]) {
			t.Fatalf("candidate %d has degree sum %d, above its predecessor's %d", i, degree(c), degree(cands[i-1]))
		}
	}
	// Requesting more than exist truncates.
	all := CandidateLAGs(top, nil, 1<<20)
	possible := top.NumNodes()*(top.NumNodes()-1)/2 - top.NumLAGs()
	if len(all) != possible {
		t.Fatalf("got %d candidates, want %d", len(all), possible)
	}
	// An absent demand pair is proposed after the high-degree pairs; a pair
	// already proposed (in either direction), one with a LAG and a self
	// pair are not.
	last := all[len(all)-1]
	lag := top.LAG(0)
	pairs := [][2]topology.Node{{cands[0][1], cands[0][0]}, {lag.A, lag.B}, {last[0], last[0]}, {last[1], last[0]}}
	got := CandidateLAGs(top, pairs, 5)
	if len(got) != 6 || got[5] != pairs[3] {
		t.Fatalf("with demand pairs %v: got %v, want the 5 high-degree pairs then %v", pairs, got, pairs[3])
	}
}
