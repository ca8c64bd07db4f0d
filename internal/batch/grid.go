package batch

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// DemandModel shapes the demand side of one sweep cell: how many
// highest-gravity pairs are modeled, how large the base gravity matrix is
// relative to mean LAG capacity, how far above base the phase-1 peak sits,
// and how much phase-2 slack the envelope allows.
type DemandModel struct {
	Name  string
	Pairs int
	// Scale is the gravity matrix's size as a multiple of mean LAG
	// capacity (the same normalization the CLI's -seed demand setup uses).
	Scale float64
	// PeakFactor scales base demand up to the phase-1 peak; 0 defaults to
	// 1.5.
	PeakFactor float64
	// Slack shapes the phase-2 envelope: each demand in
	// [0, base·(1+Slack)]. Negative pins phase 2 to the base matrix (the
	// fixed-demand mode).
	Slack float64
}

// Named demand models selectable in a grid spec.
var namedDemandModels = map[string]DemandModel{
	"peak":    {Name: "peak", Pairs: 4, Scale: 0.8, PeakFactor: 1.5, Slack: -1},
	"elastic": {Name: "elastic", Pairs: 4, Scale: 0.8, PeakFactor: 1.5, Slack: 0.3},
	"surge":   {Name: "surge", Pairs: 6, Scale: 1.0, PeakFactor: 1.5, Slack: 0.6},
}

// DemandModelNames lists the named demand models a grid spec may select.
func DemandModelNames() []string {
	names := make([]string, 0, len(namedDemandModels))
	for n := range namedDemandModels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Grid is the per-topology cell matrix: every combination of a k-failure
// depth, a probability threshold, and a demand model becomes one alert run.
type Grid struct {
	// MaxFailures are the k-failure depths to sweep (0 = unlimited).
	MaxFailures []int
	// Thresholds are the scenario probability thresholds (each > 0).
	Thresholds []float64
	// Demands are the demand models.
	Demands []DemandModel
}

// DefaultGrid is the sweep's standard 2×2×2 cell matrix.
func DefaultGrid() Grid {
	return Grid{
		MaxFailures: []int{0, 2},
		Thresholds:  []float64{1e-4, 1e-3},
		Demands:     []DemandModel{namedDemandModels["peak"], namedDemandModels["elastic"]},
	}
}

// Cell is one point of the grid.
type Cell struct {
	MaxFailures int
	Threshold   float64
	Demand      DemandModel
}

// Name is the cell's compact display key, e.g. "k2/p1e-04/elastic".
func (c Cell) Name() string {
	return fmt.Sprintf("k%d/p%.0e/%s", c.MaxFailures, c.Threshold, c.Demand.Name)
}

// Cells enumerates the grid's cross product in deterministic order
// (failure depth outermost, demand model innermost).
func (g Grid) Cells() []Cell {
	out := make([]Cell, 0, len(g.MaxFailures)*len(g.Thresholds)*len(g.Demands))
	for _, k := range g.MaxFailures {
		for _, p := range g.Thresholds {
			for _, d := range g.Demands {
				out = append(out, Cell{MaxFailures: k, Threshold: p, Demand: d})
			}
		}
	}
	return out
}

func (g Grid) validate() error {
	if len(g.MaxFailures) == 0 || len(g.Thresholds) == 0 || len(g.Demands) == 0 {
		return fmt.Errorf("batch: grid needs at least one k depth, one threshold, and one demand model")
	}
	for _, k := range g.MaxFailures {
		if k < 0 {
			return fmt.Errorf("batch: negative k-failure depth %d", k)
		}
	}
	for _, p := range g.Thresholds {
		if !(p > 0 && p < 1) { // NaN fails the comparison too
			return fmt.Errorf("batch: probability threshold %g outside (0, 1)", p)
		}
	}
	for _, d := range g.Demands {
		if d.Pairs < 1 {
			return fmt.Errorf("batch: demand model %q needs at least one pair", d.Name)
		}
		if d.Scale <= 0 {
			return fmt.Errorf("batch: demand model %q needs a positive scale", d.Name)
		}
	}
	return nil
}

// ParseGrid parses the CLI's -grid spec: semicolon-separated dimensions
// "k=0,2;p=1e-4,1e-3;d=peak,elastic", where k lists failure depths, p lists
// probability thresholds, and d lists named demand models (see
// DemandModelNames). Omitted dimensions take the DefaultGrid values; an
// empty spec is the default grid.
func ParseGrid(spec string) (Grid, error) {
	g := DefaultGrid()
	if strings.TrimSpace(spec) == "" {
		return g, nil
	}
	for _, dim := range strings.Split(spec, ";") {
		dim = strings.TrimSpace(dim)
		if dim == "" {
			continue
		}
		key, list, ok := strings.Cut(dim, "=")
		if !ok {
			return Grid{}, fmt.Errorf("batch: grid dimension %q is not key=v1,v2,...", dim)
		}
		vals := strings.Split(list, ",")
		switch strings.TrimSpace(key) {
		case "k":
			g.MaxFailures = g.MaxFailures[:0]
			for _, v := range vals {
				k, err := strconv.Atoi(strings.TrimSpace(v))
				if err != nil {
					return Grid{}, fmt.Errorf("batch: grid k value %q: %w", v, err)
				}
				g.MaxFailures = append(g.MaxFailures, k)
			}
		case "p":
			g.Thresholds = g.Thresholds[:0]
			for _, v := range vals {
				p, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
				if err != nil {
					return Grid{}, fmt.Errorf("batch: grid p value %q: %w", v, err)
				}
				g.Thresholds = append(g.Thresholds, p)
			}
		case "d":
			g.Demands = g.Demands[:0]
			for _, v := range vals {
				name := strings.TrimSpace(v)
				dm, ok := namedDemandModels[name]
				if !ok {
					return Grid{}, fmt.Errorf("batch: unknown demand model %q (have %s)", name, strings.Join(DemandModelNames(), ", "))
				}
				g.Demands = append(g.Demands, dm)
			}
		default:
			return Grid{}, fmt.Errorf("batch: unknown grid dimension %q (want k, p, or d)", key)
		}
	}
	if err := g.validate(); err != nil {
		return Grid{}, err
	}
	return g, nil
}
