package experiments

import (
	"testing"
	"time"

	"raha/internal/augment"
	"raha/internal/topology"
)

func TestSetups(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    *Setup
	}{
		{"figure1", Figure1Setup(time.Second)},
		{"production", Production(time.Second)},
		{"africa", Africa(time.Second)},
		{"uninett", Uninett(time.Second)},
		{"b4", B4(time.Second)},
		{"cogentco", CogentcoSetup(time.Second)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.s.Norm <= 0 {
				t.Fatal("normalizer must be positive")
			}
			if len(tc.s.Base) != len(tc.s.Pairs) {
				t.Fatal("base matrix shape mismatch")
			}
			dps, err := tc.s.Paths()
			if err != nil {
				t.Fatal(err)
			}
			if len(dps) != len(tc.s.Pairs) {
				t.Fatal("path set shape mismatch")
			}
			for _, dp := range dps {
				if dp.Primary < 1 {
					t.Fatal("no primary paths")
				}
			}
		})
	}
}

func TestEnvelopeVariants(t *testing.T) {
	s := Production(time.Second)
	avg := s.envelope(FixedAvg)
	max := s.envelope(FixedMax)
	vr := s.envelope(Variable)
	if !avg.IsFixed() || !max.IsFixed() || vr.IsFixed() {
		t.Fatal("variant fixedness wrong")
	}
	for k := range avg.Hi {
		if max.Hi[k] <= avg.Hi[k] {
			t.Fatal("max must exceed avg")
		}
		//raha:lint-allow float-cmp the variable envelope copies the max matrix verbatim
		if vr.Hi[k] != max.Hi[k] || vr.Lo[k] != 0 {
			t.Fatal("variable envelope must span [0, max]")
		}
	}
	if FixedAvg.String() != "fixed-avg" || FixedMax.String() != "fixed-max" || Variable.String() != "variable" {
		t.Fatal("variant names")
	}
}

func TestFigure2Shape(t *testing.T) {
	rows := Figure2(topology.AfricaWAN(), []float64{1e-5, 1e-3, 1e-1})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].MaxFailures < rows[2].MaxFailures {
		t.Fatal("curve must be nonincreasing")
	}
}

func TestFigure5SmallRun(t *testing.T) {
	// One cheap cell: fixed average demand at a permissive threshold.
	s := Production(5 * time.Second)
	rows, err := Figure5(s, FixedAvg, []float64{1e-7}, []int{2, 0}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].Degradation < rows[0].Degradation-1e-6 {
		t.Fatalf("unconstrained (%.3f) must dominate k=2 (%.3f)", rows[1].Degradation, rows[0].Degradation)
	}
}

func TestKLabel(t *testing.T) {
	if KLabel(0) != "inf" || KLabel(3) != "3" {
		t.Fatal("KLabel")
	}
}

// TestCandidateLAGs: Figure 18's candidate set reconnects every demand pair
// of the setup (a LAG or a candidate joins its ends), so the new-LAG augment
// MILP always has a sufficient augment, and it proposes no LAG twice.
func TestCandidateLAGs(t *testing.T) {
	for _, s := range []*Setup{Figure1Setup(time.Second), Production(time.Second)} {
		cands := augment.CandidateLAGs(s.Topo, s.Pairs, 5)
		proposed := make(map[[2]topology.Node]bool)
		for _, c := range cands {
			if c[0] == c[1] {
				t.Fatal("self candidate")
			}
			if s.Topo.LAGBetween(c[0], c[1]) >= 0 {
				t.Fatalf("candidate %v already exists", c)
			}
			if proposed[c] {
				t.Fatalf("candidate %v proposed twice", c)
			}
			proposed[c], proposed[[2]topology.Node{c[1], c[0]}] = true, true
		}
		for _, p := range s.Pairs {
			if p[0] != p[1] && s.Topo.LAGBetween(p[0], p[1]) < 0 && !proposed[p] {
				t.Fatalf("demand pair %v has neither a LAG nor a candidate", p)
			}
		}
	}
}

func TestAvgReduction(t *testing.T) {
	cases := []struct {
		degs []float64
		want float64
	}{
		{nil, 0},
		{[]float64{0}, 0},
		{[]float64{10}, 1},                 // one step removed everything
		{[]float64{10, 5}, 0.5},            // (10-5)/10 then 5/10, mean = 0.5
		{[]float64{10, 10, 10}, 1.0 / 3.0}, // only the final step reduces
	}
	for i, c := range cases {
		if got := avgReduction(c.degs); !close(got, c.want) {
			t.Fatalf("case %d: got %g, want %g", i, got, c.want)
		}
	}
}

func close(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

func TestSpreadWeightPositive(t *testing.T) {
	top := topology.SmallWAN()
	w := SpreadWeight(top)
	for e := 0; e < top.NumLAGs(); e++ {
		if w(e) <= 0 {
			t.Fatalf("weight(%d) = %g", e, w(e))
		}
	}
}
