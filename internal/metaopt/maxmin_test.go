package metaopt

import (
	"math"
	"testing"

	"raha/internal/demand"
	"raha/internal/failures"
	"raha/internal/te"
)

// bruteForceMaxMin computes the exact worst binned-utility degradation over
// all allowed scenarios and grid demands.
func bruteForceMaxMin(t *testing.T, cfg *Config) float64 {
	t.Helper()
	caps := te.FullCapacities(cfg.Topo)
	healthyActive := te.HealthyActive(cfg.Demands)
	b := te.BinnerConfig{Bins: maxMinBins, Base: binBase(cfg), Ratio: maxMinRatio}
	best := math.Inf(-1)
	enumerate(cfg.Topo, func(s *failures.Scenario) {
		if !scenarioAllowed(cfg, s) {
			return
		}
		failedCaps := s.Capacities(cfg.Topo)
		act := s.ActivePaths(cfg.Demands)
		demandGrid(cfg.Envelope, cfg.quantBits(), func(d []float64) {
			h, err := te.MaxMinBinned(cfg.Topo, cfg.Demands, d, caps, healthyActive, b)
			if err != nil {
				t.Fatal(err)
			}
			f, err := te.MaxMinBinned(cfg.Topo, cfg.Demands, d, failedCaps, act, b)
			if err != nil {
				t.Fatal(err)
			}
			if gap := h.Objective - f.Objective; gap > best {
				best = gap
			}
		})
	})
	return best
}

func TestMaxMinGapMatchesBruteForce(t *testing.T) {
	top, dps := tiny()
	base := demand.Matrix{
		{Src: dps[0].Src, Dst: dps[0].Dst, Volume: 12},
		{Src: dps[1].Src, Dst: dps[1].Dst, Volume: 10},
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"fixed", Config{
			Topo: top, Demands: dps, Envelope: demand.Fixed(base),
			Objective: MaxMin, MaxFailures: 2,
		}},
		{"variable", Config{
			Topo: top, Demands: dps, Envelope: demand.Around(base, 0.4),
			Objective: MaxMin, MaxFailures: 2, QuantBits: 2,
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := analyzeOK(t, c.cfg)
			want := bruteForceMaxMin(t, &c.cfg)
			// The dual box can bias the model's view, but verification
			// re-solves real LPs: the verified gap must not exceed the
			// brute-force optimum, and with a generous box it matches.
			if res.Degradation > want+1e-4 {
				t.Fatalf("degradation %g exceeds brute-force optimum %g", res.Degradation, want)
			}
			if res.Degradation < want-1e-4 {
				t.Fatalf("degradation %g below brute-force optimum %g (dual box too tight?)", res.Degradation, want)
			}
		})
	}
}

func TestMaxMinFairnessVisibleInGap(t *testing.T) {
	// A failure that halves one demand's share shows up in the binned
	// utility even when total flow is preserved — the reason max-min
	// operators need this objective.
	// Single failures are absorbed by the backup paths on this fixture, so
	// give the adversary two: cutting a demand off shows up in the binned
	// utility.
	top, dps := tiny()
	base := demand.Matrix{
		{Src: dps[0].Src, Dst: dps[0].Dst, Volume: 12},
		{Src: dps[1].Src, Dst: dps[1].Dst, Volume: 10},
	}
	res := analyzeOK(t, Config{
		Topo: top, Demands: dps, Envelope: demand.Fixed(base),
		Objective: MaxMin, MaxFailures: 2,
	})
	if res.Degradation <= 0 {
		t.Fatalf("expected positive max-min degradation, got %g", res.Degradation)
	}
	if !res.Healthy.Feasible || !res.Failed.Feasible {
		t.Fatal("verification LPs must be feasible")
	}
}
