package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"raha"
)

// sweepFlags are the `raha alert -all` knobs, registered alongside the
// common alert flags.
type sweepFlags struct {
	all           *bool
	builtins      *bool
	zooDir        *string
	synthetic     *int
	grid          *string
	budgetPerTopo *time.Duration
	shard         *string
	reportPath    *string
}

func newSweepFlags(fs *flag.FlagSet) *sweepFlags {
	return &sweepFlags{
		all:           fs.Bool("all", false, "sweep a whole fleet of topologies instead of one (batch alerting)"),
		builtins:      fs.Bool("builtins", true, "with -all: include the four built-in topologies"),
		zooDir:        fs.String("zoo-dir", "", "with -all: sweep every Topology Zoo GML file in this directory"),
		synthetic:     fs.Int("synthetic", 0, "with -all: add N seeded synthetic WANs of growing size"),
		grid:          fs.String("grid", "", "with -all: per-topology cell grid, e.g. \"k=0,2;p=1e-4,1e-3;d=peak,elastic\" (empty = default 2x2x2)"),
		budgetPerTopo: fs.Duration("budget-per-topo", 30*time.Second, "with -all: wall-clock budget per topology's whole grid (0 = unlimited)"),
		shard:         fs.String("shard", "", "with -all: sweep only shard i of m, as \"i/m\" (1-based)"),
		reportPath:    fs.String("report", "", "with -all: write the full JSON sweep report to this file"),
	}
}

// sweepSpelling lists the single-analysis flags alert -all does not read,
// each with how a sweep expresses the same choice.
var sweepSpelling = map[string]string{
	"topology":  "choose the fleet with -builtins, -zoo-dir or -synthetic",
	"pairs":     "choose demand models with -grid 'd=…'",
	"slack":     "choose demand models with -grid 'd=…'",
	"primary":   "every sweep cell routes 2 primary and 1 backup path per demand",
	"backup":    "every sweep cell routes 2 primary and 1 backup path per demand",
	"threshold": "sweep thresholds with -grid 'k=…;p=…'",
	"k":         "sweep failure depths with -grid 'k=…;p=…'",
	"budget":    "bound each topology's grid with -budget-per-topo",
}

// rejectIgnored refuses any single-analysis flag set explicitly on an alert
// -all command line rather than let the sweep silently ignore it.
func rejectIgnored(fs *flag.FlagSet) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if hint, ok := sweepSpelling[f.Name]; ok && err == nil {
			err = fmt.Errorf("alert -all does not read -%s: %s", f.Name, hint)
		}
	})
	return err
}

// parseShard parses the -shard "i/m" selector; empty means the whole fleet.
func parseShard(spec string) (shard, numShards int, err error) {
	if strings.TrimSpace(spec) == "" {
		return 0, 0, nil
	}
	if _, err := fmt.Sscanf(spec, "%d/%d", &shard, &numShards); err != nil {
		return 0, 0, fmt.Errorf("-shard must be \"i/m\" (e.g. 2/8), got %q", spec)
	}
	return shard, numShards, nil
}

// sweepSources assembles the fleet from the source flags.
func sweepSources(sw *sweepFlags, seed int64) ([]raha.SweepSource, error) {
	var sources []raha.SweepSource
	if *sw.builtins {
		sources = append(sources, raha.SweepBuiltins()...)
	}
	if *sw.zooDir != "" {
		zoo, err := raha.SweepZooDir(*sw.zooDir)
		if err != nil {
			return nil, err
		}
		if len(zoo) == 0 {
			return nil, fmt.Errorf("no .gml files in %s", *sw.zooDir)
		}
		sources = append(sources, zoo...)
	}
	if *sw.synthetic > 0 {
		sources = append(sources, raha.SweepSynthetic(*sw.synthetic, seed)...)
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("no topologies selected: enable -builtins, point -zoo-dir at GML files, or set -synthetic N")
	}
	return sources, nil
}

// alertAll runs the whole-fleet batch alert sweep. Per-topology failures are
// partial results inside the report, so the sweep itself exits 0; only
// configuration mistakes return an error.
func alertAll(ctx context.Context, c *commonFlags, sw *sweepFlags, tolerance float64) (err error) {
	if err := rejectIgnored(c.fs); err != nil {
		return err
	}
	o, err := c.obs.start()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := o.close(); err == nil {
			err = cerr
		}
	}()
	sources, err := sweepSources(sw, *c.seed)
	if err != nil {
		return err
	}
	grid, err := raha.ParseSweepGrid(*sw.grid)
	if err != nil {
		return err
	}
	shard, numShards, err := parseShard(*sw.shard)
	if err != nil {
		return err
	}

	total := len(sources)
	if numShards > 1 {
		total = 0
		for i := range sources {
			if i%numShards == shard-1 {
				total++
			}
		}
	}
	cells := len(grid.Cells())
	o.log.Infof("sweeping %d topologies × %d cells (tolerance %.2f, budget %v per topology)",
		total, cells, tolerance, *sw.budgetPerTopo)

	// The shared -progress flag (on by default when stderr is a terminal)
	// selects per-topology progress lines instead of the solver's live line.
	showProgress := *c.obs.progress
	var (
		progressMu sync.Mutex
		done       int
	)
	onTopoDone := func(tr raha.SweepTopoResult) {
		if !showProgress {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		done++
		if tr.Err != "" {
			fmt.Fprintf(os.Stderr, "[%d/%d] %-24s FAILED: %s\n", done, total, tr.Name, tr.Err)
			return
		}
		fmt.Fprintf(os.Stderr, "[%d/%d] %-24s worst %.3f×cap (%s) in %v\n",
			done, total, tr.Name, tr.WorstNormalized, tr.WorstCell, tr.Runtime.Round(time.Millisecond))
	}

	rep, err := raha.SweepContext(ctx, raha.SweepConfig{
		Sources:              sources,
		Grid:                 grid,
		Tolerance:            tolerance,
		BudgetPerTopo:        *sw.budgetPerTopo,
		Workers:              *c.workers,
		Shard:                shard,
		NumShards:            numShards,
		Seed:                 *c.seed,
		Check:                *c.check,
		ConnectivityEnforced: *c.ce,
		Tracer:               o.tracer(),
		OnTopoDone:           onTopoDone,
	})
	if err != nil {
		return err
	}
	if *sw.reportPath != "" {
		data, merr := json.MarshalIndent(rep, "", "  ")
		if merr != nil {
			return merr
		}
		if werr := os.WriteFile(*sw.reportPath, append(data, '\n'), 0o644); werr != nil {
			return werr
		}
		o.log.Infof("wrote JSON report to %s", *sw.reportPath)
	}
	printSweepReport(rep)
	return nil
}

func printSweepReport(rep *raha.SweepReport) {
	status := ""
	if rep.Cancelled {
		status = " (cancelled — partial results)"
	}
	shard := ""
	if rep.NumShards > 1 {
		shard = fmt.Sprintf(" [shard %d/%d]", rep.Shard, rep.NumShards)
	}
	fmt.Printf("sweep%s: %d topologies (%d failed), %d/%d cells ok (%d closed by the budget bound, %d by a looser neighbour), %v elapsed%s\n",
		shard, rep.TopoCount, rep.TopoFailed, rep.CellsOK, rep.CellsTotal, rep.CellsClosedByBound, rep.CellsClosedByNeighbour,
		rep.Elapsed.Round(time.Millisecond), status)

	if len(rep.Ranking) > 0 {
		fmt.Println("\nmost fragile topologies:")
		fmt.Printf("  %4s  %-24s %10s  %-6s %-5s  %-20s %8s %9s\n",
			"rank", "topology", "worst×cap", "raised", "phase", "cell", "nodes", "lp-solves")
		for i, fe := range rep.Ranking {
			raised := "no"
			phase := "-"
			if fe.Raised {
				raised = "YES"
				phase = fmt.Sprintf("%d", fe.Phase)
			}
			fmt.Printf("  %4d  %-24s %10.3f  %-6s %-5s  %-20s %8d %9d\n",
				i+1, fe.Name, fe.Normalized, raised, phase, fe.Cell, fe.Nodes, fe.LPSolves)
		}
	}
	if len(rep.Failures) > 0 {
		fmt.Printf("\npartial results (%d failures recorded):\n", len(rep.Failures))
		for _, f := range rep.Failures {
			where := f.Topology
			if f.Cell != "" {
				where += "/" + f.Cell
			}
			fmt.Printf("  %-32s %s\n", where, f.Err)
		}
	}
	fmt.Printf("\nthroughput: %.1f cells/min, %.1f topologies/min\n", rep.CellsPerMin, rep.ToposPerMin)
	if lat := rep.CellLatency; lat.Count > 0 {
		fmt.Printf("cell latency: p50 %v, p90 %v, p99 %v (max %v over %d cells)\n",
			time.Duration(lat.P50Ns).Round(time.Millisecond),
			time.Duration(lat.P90Ns).Round(time.Millisecond),
			time.Duration(lat.P99Ns).Round(time.Millisecond),
			time.Duration(lat.MaxNs).Round(time.Millisecond), lat.Count)
	}
}
