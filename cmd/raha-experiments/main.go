// Command raha-experiments regenerates every table and figure of the
// paper's evaluation as CSV files (one per experiment). It drives the same
// internal/experiments protocol functions as the repository's benchmarks,
// with a configurable per-analysis solver budget:
//
//	raha-experiments -out results/ -budget 10s
//	raha-experiments -only figure5,figure6 -budget 30s
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"raha/internal/experiments"
	"raha/internal/obs"
	"raha/internal/topology"
)

// The worker budget and solver switches plus the observability hooks, set
// once from flags in main and applied to every Setup by tuned.
var (
	workerBudget int
	checkModels  bool
	noPresolve   bool
	tracer       obs.Tracer
	log          *obs.Logger
	prog         *obs.ProgressLine // non-nil only while a sweep runs with -progress
)

// tuned applies the global solver flags and observability hooks to a
// freshly built Setup.
func tuned(s *experiments.Setup) *experiments.Setup {
	s.Workers = workerBudget
	s.Check = checkModels
	s.DisablePresolve = noPresolve
	s.Tracer = tracer
	s.OnProgress = func(p experiments.SweepProgress) { prog.Update(p.String()) }
	return s
}

func main() {
	out := flag.String("out", "results", "output directory for CSV files")
	budget := flag.Duration("budget", 5*time.Second, "solver time budget per analysis")
	only := flag.String("only", "", "comma-separated experiment names (default: all)")
	workers := flag.Int("workers", 0, "worker budget per sweep stage: spent across its independent analyses first, the leftover inside each solve (0 = all cores, 1 = serial)")
	check := flag.Bool("check", false, "run the static model checker before every solve; error diagnostics abort the sweep")
	presolve := flag.String("presolve", "on", "MILP presolve and per-node domain propagation: on or off")
	quiet := flag.Bool("q", false, "quiet: print errors only")
	verbose := flag.Bool("v", false, "verbose: per-sweep diagnostics (overrides -q)")
	progress := flag.Bool("progress", obs.IsTerminal(os.Stderr), "live per-figure progress line with ETA on stderr")
	metricsAddr := flag.String("metrics-addr", "", "serve live solver counters (expvar) and pprof on this address")
	tracePath := flag.String("trace", "", "write a JSONL event trace of every sweep to this file")
	flag.Parse()
	workerBudget = *workers
	checkModels = *check
	switch *presolve {
	case "on":
	case "off":
		noPresolve = true
	default:
		fail(fmt.Errorf("-presolve must be on or off, got %q", *presolve))
	}

	level := obs.Normal
	if *quiet {
		level = obs.Quiet
	}
	if *verbose {
		level = obs.Verbose
	}
	log = obs.NewLogger(os.Stderr, level)
	// The per-experiment summary lines are the command's progress report;
	// they stay on stdout but honor -q.
	sum := obs.NewLogger(os.Stdout, level)

	var jsonl *obs.JSONLTracer
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fail(fmt.Errorf("-trace: %w", err))
		}
		defer func() {
			if err := jsonl.Err(); err != nil {
				fail(fmt.Errorf("-trace: %w", err))
			}
			if err := f.Close(); err != nil {
				fail(fmt.Errorf("-trace: %w", err))
			}
		}()
		jsonl = obs.NewJSONLTracer(f)
		tracer = jsonl
	}
	if *metricsAddr != "" {
		srv, addr, err := obs.Serve(*metricsAddr)
		if err != nil {
			fail(fmt.Errorf("-metrics-addr: %w", err))
		}
		defer func() {
			// Graceful: an in-flight /metrics scrape finishes, but exit is
			// never held up for more than a moment.
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_ = srv.Shutdown(ctx) // best-effort teardown on exit
			cancel()
		}()
		log.Infof("metrics: http://%s/metrics  expvar: http://%s/debug/vars  profiles: http://%s/debug/pprof/", addr, addr, addr)
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fail(err)
	}
	want := map[string]bool{}
	for _, n := range strings.Split(*only, ",") {
		if n = strings.TrimSpace(strings.ToLower(n)); n != "" {
			want[n] = true
		}
	}
	run := func(name string) bool { return len(want) == 0 || want[name] }

	type gen struct {
		name string
		fn   func() ([]string, error)
	}
	gens := []gen{
		{"figure2", func() ([]string, error) {
			rows := experiments.Figure2(topology.AfricaWAN(), []float64{1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1})
			out := []string{"threshold,max_failures"}
			for _, r := range rows {
				out = append(out, fmt.Sprintf("%g,%d", r.Threshold, r.MaxFailures))
			}
			return out, nil
		}},
		{"figure3", func() ([]string, error) {
			s := tuned(experiments.Production(*budget))
			rows, err := experiments.Figure3(s, []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4}, 1e-4)
			if err != nil {
				return nil, err
			}
			out := []string{"slack,raha,max,avg"}
			for _, r := range rows {
				out = append(out, fmt.Sprintf("%g,%g,%g,%g", r.Slack, r.Raha, r.Max, r.Avg))
			}
			return out, nil
		}},
		{"figure5", func() ([]string, error) { return degCSV(*budget, false) }},
		{"figure6", func() ([]string, error) { return degCSV(*budget, true) }},
		{"figure7", func() ([]string, error) {
			s := tuned(experiments.Production(*budget))
			rows, err := experiments.Figure7(s, []float64{0, 0.5, 1, 2, 3, 4}, []int{1, 2, 3, 4, 0}, 1e-4)
			if err != nil {
				return nil, err
			}
			out := []string{"slack,k,degradation"}
			for _, r := range rows {
				out = append(out, fmt.Sprintf("%g,%s,%g", r.Slack, experiments.KLabel(r.MaxFailures), r.Degradation))
			}
			return out, nil
		}},
		{"figure8", func() ([]string, error) {
			s := tuned(experiments.Uninett(*budget))
			out := []string{"clusters,threshold,k,degradation,runtime_ms"}
			for _, clusters := range []int{0, 2} {
				rows, err := experiments.Figure8(s, clusters, []float64{1e-1, 1e-3, 1e-5, 1e-7}, []int{1, 2, 4, 0})
				if err != nil {
					return nil, err
				}
				for _, r := range rows {
					out = append(out, fmt.Sprintf("%d,%g,%s,%g,%d", r.Clusters, r.Threshold, experiments.KLabel(r.MaxFailures), r.Degradation, r.Runtime.Milliseconds()))
				}
			}
			return out, nil
		}},
		{"figure9", func() ([]string, error) {
			s := tuned(experiments.Production(*budget))
			rows, err := experiments.Figure9(s, []int{0, 2, 4, 6, 8, 10}, 1e-4, 0)
			if err != nil {
				return nil, err
			}
			out := []string{"clusters,degradation,runtime_ms"}
			for _, r := range rows {
				out = append(out, fmt.Sprintf("%d,%g,%d", r.Clusters, r.Degradation, r.Runtime.Milliseconds()))
			}
			return out, nil
		}},
		{"figure10", func() ([]string, error) {
			s := tuned(experiments.Production(*budget))
			rows, err := experiments.Figure10(s, []int{1, 2, 4, 8, 16}, []float64{1e-1, 1e-3, 1e-5, 1e-7}, []int{1, 2, 4, 8, 0}, 1e-4)
			if err != nil {
				return nil, err
			}
			return runtimeCSV(rows), nil
		}},
		{"figure11", func() ([]string, error) { return augmentCSV(*budget, true, false) }},
		{"figure17", func() ([]string, error) { return augmentCSV(*budget, false, false) }},
		{"figure18", func() ([]string, error) { return augmentCSV(*budget, false, true) }},
		{"figure12", func() ([]string, error) { return pathCSV(*budget, false, nil, experiments.Variable) }},
		{"figure12b", func() ([]string, error) { return pathCSV(*budget, true, nil, experiments.Variable) }},
		{"figure13", func() ([]string, error) {
			s := tuned(experiments.Production(*budget))
			return pathCSVWith(s, false, experiments.SpreadWeight(s.Topo), experiments.Variable)
		}},
		{"figure15", func() ([]string, error) { return pathCSV(*budget, false, nil, experiments.FixedMax) }},
		{"figure14", func() ([]string, error) {
			s := tuned(experiments.Production(*budget))
			rows, err := experiments.Figure14(s, []int{0, 1, 2, 3, 4}, 1e-4)
			if err != nil {
				return nil, err
			}
			return runtimeCSV(rows), nil
		}},
		{"figure16", func() ([]string, error) {
			s := tuned(experiments.Production(0))
			rows, err := experiments.Figure16(s, []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second, 16 * time.Second}, 1e-4, 0)
			if err != nil {
				return nil, err
			}
			out := []string{"timeout_ms,runtime_ms,degradation,status"}
			for _, r := range rows {
				out = append(out, fmt.Sprintf("%d,%d,%g,%v", r.Timeout.Milliseconds(), r.Runtime.Milliseconds(), r.Degradation, r.Status))
			}
			return out, nil
		}},
		{"table3", func() ([]string, error) {
			s := tuned(experiments.B4(*budget))
			rows, err := experiments.Table3(s, []float64{1e-1, 1e-2, 1e-4}, []int{1, 2, 4}, []int{1, 2, 4, 0})
			if err != nil {
				return nil, err
			}
			return tableCSV(rows), nil
		}},
		{"table4", func() ([]string, error) {
			s := tuned(experiments.CogentcoSetup(*budget))
			rows, err := experiments.Table4(s, 8, []float64{1e-1, 1e-2}, []int{1, 2, 4, 0})
			if err != nil {
				return nil, err
			}
			return tableCSV(rows), nil
		}},
		{"mlu", func() ([]string, error) {
			s := tuned(experiments.Production(*budget))
			rows, err := experiments.MLUSlack(s, []float64{0, 0.1, 0.2, 0.4}, 1e-4)
			if err != nil {
				return nil, err
			}
			out := []string{"slack,mlu_degradation,runtime_ms"}
			for _, r := range rows {
				out = append(out, fmt.Sprintf("%g,%g,%d", r.Slack, r.Degradation, r.Runtime.Milliseconds()))
			}
			return out, nil
		}},
		{"fixed-runtime", func() ([]string, error) {
			s := tuned(experiments.Africa(0))
			rows, err := experiments.FixedRuntime(s, 3, []float64{1e-2, 1e-4, 1e-6})
			if err != nil {
				return nil, err
			}
			return runtimeCSV(rows), nil
		}},
	}

	for _, g := range gens {
		if !run(g.name) {
			continue
		}
		log.Debugf("%s: starting", g.name)
		if *progress {
			prog = obs.NewProgressLine(os.Stderr)
		}
		start := time.Now()
		lines, err := g.fn()
		prog.Done() // clear the live line before the summary (nil-safe)
		prog = nil
		if err != nil {
			fail(fmt.Errorf("%s: %w", g.name, err))
		}
		path := filepath.Join(*out, g.name+".csv")
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			fail(err)
		}
		sum.Infof("%-14s %4d rows  %-10v -> %s", g.name, len(lines)-1, time.Since(start).Round(time.Millisecond), path)
	}

	// Run-wide solver totals from the process counters: how much LP work
	// the sweeps did and how much of it rode on warm starts.
	c := func(name string) int64 { return obs.Default.Counter(name).Value() }
	log.Debugf("solver totals: %d MILP solves, %d nodes, %d LP solves (%d iterations), %d warm-started (%d dual iterations, %d cold fallbacks)",
		c("milp.solves"), c("milp.nodes"), c("lp.solves"), c("lp.iterations"),
		c("lp.warm_solves"), c("lp.dual_iterations"), c("milp.cold_fallbacks"))
	log.Debugf("presolve totals: %d vars fixed, %d rows removed, %d bounds tightened, %d big-M coefs shrunk, %d propagation prunes",
		c("milp.presolve_fixed_vars"), c("milp.presolve_removed_rows"),
		c("milp.presolve_tightened_bounds"), c("milp.presolve_tightened_coefs"),
		c("milp.propagation_prunes"))
	if busy, wait, idle := c("milp.worker_busy_ns"), c("milp.worker_wait_ns"), c("milp.worker_idle_ns"); busy+wait+idle > 0 {
		wall := busy + wait + idle
		log.Debugf("worker utilization (run-wide, traced solves): busy %.0f%%, queue wait %.0f%%, idle %.0f%% of %v worker-time",
			100*float64(busy)/float64(wall), 100*float64(wait)/float64(wall),
			100*float64(idle)/float64(wall), time.Duration(wall).Round(time.Millisecond))
	}
}

func degCSV(budget time.Duration, ce bool) ([]string, error) {
	s := tuned(experiments.Production(budget))
	out := []string{"variant,threshold,k,degradation,runtime_ms,status"}
	for _, v := range []experiments.DemandVariant{experiments.FixedAvg, experiments.FixedMax, experiments.Variable} {
		rows, err := experiments.Figure5(s, v, []float64{1e-1, 1e-3, 1e-5, 1e-7}, []int{1, 2, 3, 4, 0}, ce)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			out = append(out, fmt.Sprintf("%v,%g,%s,%g,%d,%v", r.Variant, r.Threshold, experiments.KLabel(r.MaxFailures), r.Degradation, r.Runtime.Milliseconds(), r.Status))
		}
	}
	return out, nil
}

func augmentCSV(budget time.Duration, canFail, newLAGs bool) ([]string, error) {
	s := tuned(experiments.Production(budget))
	slacks := []float64{0, 0.5, 1.0, 1.5, 2.0}
	var (
		rows []experiments.AugmentRow
		err  error
	)
	if newLAGs {
		rows, err = experiments.Figure18(s, slacks[:3], 1e-4, 8)
	} else {
		rows, err = experiments.Figure11(s, slacks, 1e-4, canFail)
	}
	if err != nil {
		return nil, err
	}
	out := []string{"slack,steps,avg_reduction,links_added,converged"}
	for _, r := range rows {
		out = append(out, fmt.Sprintf("%g,%d,%g,%d,%v", r.Slack, r.Steps, r.AvgReduction, r.LinksAdded, r.Converged))
	}
	return out, nil
}

func pathCSV(budget time.Duration, ce bool, w func(int) float64, v experiments.DemandVariant) ([]string, error) {
	s := tuned(experiments.Production(budget))
	return pathCSVWith(s, ce, w, v)
}

func pathCSVWith(s *experiments.Setup, ce bool, w func(int) float64, v experiments.DemandVariant) ([]string, error) {
	if w != nil {
		s.Weight = w
	}
	rows, err := experiments.Figure12(s, []int{1, 2, 4, 8, 16}, []int{0, 1, 2, 4}, []int{1, 2, 4, 0}, 1e-4, ce, v)
	if err != nil {
		return nil, err
	}
	out := []string{"primary,backup,k,degradation"}
	for _, r := range rows {
		out = append(out, fmt.Sprintf("%d,%d,%s,%g", r.Primaries, r.Backups, experiments.KLabel(r.MaxFailures), r.Degradation))
	}
	return out, nil
}

func runtimeCSV(rows []experiments.RuntimeRow) []string {
	out := []string{"factor,value,runtime_ms,degradation"}
	for _, r := range rows {
		out = append(out, fmt.Sprintf("%s,%g,%d,%g", r.Factor, r.Value, r.Runtime.Milliseconds(), r.Degradation))
	}
	return out
}

func tableCSV(rows []experiments.TableRow) []string {
	out := []string{"threshold,backups,k,degradation,runtime_ms"}
	for _, r := range rows {
		out = append(out, fmt.Sprintf("%g,%d,%s,%g,%d", r.Threshold, r.Backups, experiments.KLabel(r.MaxFailures), r.Degradation, r.Runtime.Milliseconds()))
	}
	return out
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "raha-experiments: %v\n", err)
	os.Exit(1)
}
