package alert

import (
	"context"
	"math"
	"testing"
	"time"

	"raha/internal/demand"
	"raha/internal/milp"
	"raha/internal/paths"
	"raha/internal/topology"
)

// b4Setup builds the standard B4 alert inputs the invariant tests share.
func b4Setup(t *testing.T) (top *topology.Topology, dps []paths.DemandPaths, peak demand.Matrix, env demand.Envelope) {
	t.Helper()
	top = topology.B4()
	pairs := demand.TopPairs(top, 4, 1)
	dps, err := paths.Compute(top, pairs, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := demand.Gravity(top, pairs, top.MeanLAGCapacity()*0.8, 1)
	return top, dps, base.Scale(1.5), demand.UpTo(base, 0.3)
}

func b4Config(t *testing.T, tolerance float64) Config {
	top, dps, peak, env := b4Setup(t)
	return Config{
		Topo:          top,
		Demands:       dps,
		Peak:          peak,
		Envelope:      env,
		ProbThreshold: 1e-4,
		Tolerance:     tolerance,
		Phase1Budget:  30 * time.Second,
		Phase2Budget:  30 * time.Second,
		Workers:       1,
	}
}

// checkReportInvariants asserts the structural rules every report must obey
// regardless of tolerance: the raise decision matches the normalized
// degradation, the raising phase is recorded, and a phase-1 raise skips
// phase 2 entirely.
func checkReportInvariants(t *testing.T, rep *Report, tolerance float64) {
	t.Helper()
	if rep.Phase1 == nil {
		t.Fatal("phase 1 result missing")
	}
	if rep.Raised != (rep.NormalizedDegradation > tolerance) {
		t.Errorf("raised=%v inconsistent with normalized %g vs tolerance %g",
			rep.Raised, rep.NormalizedDegradation, tolerance)
	}
	switch {
	case rep.Raised && rep.Phase != 1 && rep.Phase != 2:
		t.Errorf("raised with phase %d", rep.Phase)
	case !rep.Raised && rep.Phase != 0:
		t.Errorf("not raised but phase %d", rep.Phase)
	case rep.Raised && rep.Phase == 1 && rep.Phase2 != nil:
		t.Error("phase 1 raised but phase 2 ran anyway")
	case !rep.Raised && rep.Phase2 == nil && rep.Phase1.Status != milp.Infeasible:
		t.Error("quiet report without a phase 2 result")
	}
}

// TestAlertToleranceMonotonicity sweeps the tolerance from 0 upward around
// the topology's actual worst degradation: raising must be monotone (once a
// tolerance is quiet, every larger tolerance is quiet), and the invariants
// must hold at every point.
func TestAlertToleranceMonotonicity(t *testing.T) {
	// Measure the worst normalized degradation with an unraisable tolerance.
	probe, err := Run(context.Background(), b4Config(t, 1e9))
	if err != nil {
		t.Fatal(err)
	}
	checkReportInvariants(t, probe, 1e9)
	worst := probe.NormalizedDegradation
	if worst <= 0 {
		t.Fatalf("B4 peak-demand sweep found no degradation (%g); the tolerance sweep below is vacuous", worst)
	}

	tolerances := []float64{0, worst / 2, worst * 1.001, worst + 1}
	raisedBefore := true // expected to start raised at tolerance 0
	for _, tol := range tolerances {
		rep, err := Run(context.Background(), b4Config(t, tol))
		if err != nil {
			t.Fatalf("tolerance %g: %v", tol, err)
		}
		checkReportInvariants(t, rep, tol)
		if rep.Raised && !raisedBefore {
			t.Errorf("tolerance %g raised after a smaller tolerance stayed quiet", tol)
		}
		raisedBefore = rep.Raised
		if tol < worst && !rep.Raised {
			t.Errorf("tolerance %g below worst %g did not raise", tol, worst)
		}
		if tol > worst && rep.Raised {
			t.Errorf("tolerance %g above worst %g raised (normalized %g)", tol, worst, rep.NormalizedDegradation)
		}
	}
}

// TestAlertCancelledReturnsPartial cancels before the solve starts: the run
// must still return a report (the solver reports its best-so-far on
// cancellation), not an error.
func TestAlertCancelledReturnsPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Run(ctx, b4Config(t, 0.5))
	if err != nil {
		t.Fatalf("cancelled alert must return a partial report, got error %v", err)
	}
	if rep.Phase1 == nil {
		t.Fatal("cancelled alert returned no phase 1 result")
	}
	checkReportInvariants(t, rep, 0.5)
}

// TestAlertInfeasibleSkipsPhase2: a threshold no scenario reaches (B4 with
// every link up is far less probable than this) makes phase 1 infeasible, and
// phase 2 — the same budget rows over a wider demand space — is not built.
func TestAlertInfeasibleSkipsPhase2(t *testing.T) {
	cfg := b4Config(t, 0.5)
	cfg.ProbThreshold = 0.999999
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkReportInvariants(t, rep, 0.5)
	if rep.Phase1.Status != milp.Infeasible {
		t.Fatalf("phase 1 status %v, want infeasible", rep.Phase1.Status)
	}
	if rep.Phase2 != nil || rep.Raised {
		t.Fatalf("infeasible phase 1 must end the run quietly: phase 2 %v, raised %v", rep.Phase2, rep.Raised)
	}
}

// TestAlertMaxFailures pins the k-failure knob: capping simultaneous
// failures can only shrink the worst degradation, and k=0 (unlimited)
// matches leaving the field unset.
func TestAlertMaxFailures(t *testing.T) {
	unlimited, err := Run(context.Background(), b4Config(t, 1e9))
	if err != nil {
		t.Fatal(err)
	}
	cfg := b4Config(t, 1e9)
	cfg.MaxFailures = 1
	capped, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1e-9
	if capped.NormalizedDegradation > unlimited.NormalizedDegradation+eps {
		t.Errorf("k=1 degradation %g exceeds unlimited %g",
			capped.NormalizedDegradation, unlimited.NormalizedDegradation)
	}
}

func TestAlertValidationErrors(t *testing.T) {
	base := func() Config { return b4Config(t, 0.5) }
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil topology", func(c *Config) { c.Topo = nil }},
		{"no demands", func(c *Config) { c.Demands = nil }},
		{"no threshold", func(c *Config) { c.ProbThreshold = 0 }},
		{"NaN threshold", func(c *Config) { c.ProbThreshold = math.NaN() }},
		{"NaN tolerance", func(c *Config) { c.Tolerance = math.NaN() }},
		{"negative tolerance", func(c *Config) { c.Tolerance = -1 }},
		{"peak shape mismatch", func(c *Config) { c.Peak = c.Peak[:1] }},
		{"no capacity", func(c *Config) { c.Topo = topology.New(); c.Topo.AddNode("only") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mutate(&cfg)
			if _, err := Run(context.Background(), cfg); err == nil {
				t.Fatal("want config error, got nil")
			}
		})
	}
}
