package experiments

import (
	"raha/internal/augment"
	"raha/internal/demand"
)

// AugmentRow is one point of the augmentation sweeps (Figures 11, 17, 18).
type AugmentRow struct {
	Slack        float64
	Steps        int
	AvgReduction float64 // mean per-step reduction of the normalized degradation, relative to step 0
	LinksAdded   int
	Converged    bool
}

// Figure11 sweeps the demand slack and runs the existing-LAG augment loop
// with new capacity that can fail (the paper's hardest setting). Figure 17
// is the same sweep with non-failing capacity.
func Figure11(s *Setup, slacks []float64, threshold float64, canFail bool) ([]AugmentRow, error) {
	return augmentSweep(slacks, func(slack float64) (*augment.Result, error) {
		cfg := s.augmentConfig(slack, threshold)
		cfg.NewCapacityCanFail = canFail
		return augment.AugmentExisting(cfg)
	})
}

// Figure18 sweeps the demand slack and runs the new-LAG (Appendix C)
// augment loop with non-failing new capacity, over augment.CandidateLAGs'
// candidates for the setup's demand pairs.
func Figure18(s *Setup, slacks []float64, threshold float64, maxCandidates int) ([]AugmentRow, error) {
	candidates := augment.CandidateLAGs(s.Topo, s.Pairs, maxCandidates)
	return augmentSweep(slacks, func(slack float64) (*augment.Result, error) {
		return augment.AugmentNewLAGs(s.augmentConfig(slack, threshold), candidates)
	})
}

// augmentConfig is the augment run of one sweep point: the setup's demands
// within the slack envelope, at most 8 steps.
func (s *Setup) augmentConfig(slack, threshold float64) augment.Config {
	return augment.Config{
		Topo:          s.Topo,
		Pairs:         s.Pairs,
		Envelope:      demand.UpTo(s.Base, slack),
		Primary:       s.Primary,
		Backup:        s.Backup,
		Weight:        s.Weight,
		ProbThreshold: threshold,
		QuantBits:     s.QuantBits,
		Solver:        s.solver(),
		MaxSteps:      8,
	}
}

// augmentSweep runs one augment loop per slack; a loop's error ends the
// sweep.
func augmentSweep(slacks []float64, run func(slack float64) (*augment.Result, error)) ([]AugmentRow, error) {
	var rows []AugmentRow
	for _, slack := range slacks {
		res, err := run(slack)
		if err != nil {
			return nil, err
		}
		var degs []float64
		for _, st := range res.Steps {
			degs = append(degs, st.Degradation)
		}
		rows = append(rows, AugmentRow{
			Slack:        slack,
			Steps:        len(res.Steps),
			AvgReduction: avgReduction(degs),
			LinksAdded:   res.TotalLinksAdded,
			Converged:    res.Converged,
		})
	}
	return rows, nil
}

// avgReduction reports the mean per-step fractional reduction relative to
// the initial degradation (the paper's Figure 11b metric).
func avgReduction(degs []float64) float64 {
	if len(degs) < 1 || degs[0] <= 0 {
		return 0
	}
	if len(degs) == 1 {
		return 1 // one step removed everything
	}
	var sum float64
	for i := 1; i < len(degs); i++ {
		sum += (degs[i-1] - degs[i]) / degs[0]
	}
	// The final step brings the remaining degradation to ~0.
	sum += degs[len(degs)-1] / degs[0]
	return sum / float64(len(degs))
}
