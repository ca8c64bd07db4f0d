package experiments

import (
	"time"

	"raha/internal/demand"
	"raha/internal/metaopt"
)

// TableRow is one grid cell of Tables 3 and 4: a (threshold, backup count,
// failure budget) combination and the normalized degradation found.
type TableRow struct {
	Threshold   float64
	Backups     int
	MaxFailures int // 0 = ∞
	Degradation float64
	Runtime     time.Duration
}

// Table3 reproduces the B4 grid: thresholds × backup counts × failure
// budgets, demands capped at half the mean LAG capacity (the paper's
// bottleneck guard for Zoo topologies).
func Table3(s *Setup, thresholds []float64, backups, ks []int) ([]TableRow, error) {
	var rows []TableRow
	for _, nb := range backups {
		sub := *s
		sub.Backup = nb
		dps, err := sub.Paths()
		if err != nil {
			return nil, err
		}
		env := demand.UpTo(s.Base, maxFactor-1).Cap(s.Norm / 2)
		prev := make(map[int]*metaopt.Result)
		for _, th := range thresholds {
			for _, k := range ks {
				res, err := sub.analyze(dps, env, th, k, false, prev[k])
				if err != nil {
					return nil, err
				}
				if res.Scenario != nil {
					prev[k] = res
				}
				rows = append(rows, TableRow{
					Threshold:   th,
					Backups:     nb,
					MaxFailures: k,
					Degradation: res.Degradation / s.Norm,
					Runtime:     res.Runtime,
				})
			}
		}
	}
	return rows, nil
}

// Table4 reproduces the Cogentco grid with clustering (the paper uses 8
// clusters on this 197-node topology).
func Table4(s *Setup, clusters int, thresholds []float64, ks []int) ([]TableRow, error) {
	dps, err := s.Paths()
	if err != nil {
		return nil, err
	}
	env := demand.UpTo(s.Base, maxFactor-1).Cap(s.Norm / 2)
	var rows []TableRow
	for _, th := range thresholds {
		for _, k := range ks {
			res, err := metaopt.AnalyzeClustered(metaopt.ClusterConfig{
				Config: metaopt.Config{
					Topo: s.Topo, Demands: dps, Envelope: env,
					ProbThreshold: th, MaxFailures: k,
					QuantBits: s.QuantBits,
					Solver:    s.solver(),
				},
				Clusters: clusters,
			})
			if err != nil {
				return nil, err
			}
			rows = append(rows, TableRow{
				Threshold:   th,
				Backups:     s.Backup,
				MaxFailures: k,
				Degradation: res.Degradation / s.Norm,
				Runtime:     res.Runtime,
			})
		}
	}
	return rows, nil
}
