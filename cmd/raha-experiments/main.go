// Command raha-experiments regenerates every table and figure of the
// paper's evaluation as CSV files, one per entry of the internal/experiments
// registry, and checks each against the paper's claim:
//
//	raha-experiments -out results/
//	raha-experiments -only figure5,figure6 -budget 30s
//
// A violated claim is reported on stderr and makes the exit status 1 once
// every file is written; an unknown -only name exits 2.
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
)

func main() { os.Exit(run()) }

func run() int {
	out := flag.String("out", "results", "output directory for CSV files")
	budget := flag.Duration("budget", 0, "solver time budget per analysis, overriding every experiment's own (0 = each experiment's default)")
	only := flag.String("only", "", "comma-separated experiment names (default: all)")
	workers := flag.Int("workers", 0, "worker budget per sweep stage: spent across its independent analyses first, the leftover inside each solve (0 = all cores, 1 = serial)")
	check := flag.Bool("check", false, "run the static model checker before every solve; error diagnostics abort the sweep")
	quiet := flag.Bool("q", false, "quiet: print errors only")
	verbose := flag.Bool("v", false, "verbose: per-sweep diagnostics (overrides -q)")
	progress := flag.Bool("progress", obs.IsTerminal(os.Stderr), "live per-figure progress line with ETA on stderr")
	metricsAddr := flag.String("metrics-addr", "", "serve live solver counters (expvar) and pprof on this address")
	tracePath := flag.String("trace", "", "write a JSONL event trace of every sweep to this file")
	flag.Parse()
	selected, err := experiments.Select(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "raha-experiments: -only: %v\n", err)
		return 2
	}

	level := obs.Normal
	if *quiet {
		level = obs.Quiet
	}
	if *verbose {
		level = obs.Verbose
	}
	log := obs.NewLogger(os.Stderr, level)
	// The per-experiment summary lines are the command's progress report;
	// they stay on stdout but honor -q.
	sum := obs.NewLogger(os.Stdout, level)

	var (
		tracer obs.Tracer
		jsonl  *obs.JSONLTracer
	)
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
	var prog *obs.ProgressLine // non-nil only while an experiment runs with -progress
	tune := func(s *experiments.Setup) {
		s.Workers = *workers
		s.Check = *check
		s.Tracer = tracer
		s.OnProgress = func(p experiments.SweepProgress) { prog.Update(p.String()) }
	}
	violated := 0
	for _, e := range selected {
		log.Debugf("%s: starting", e.Name)
		if *progress {
			prog = obs.NewProgressLine(os.Stderr)
		}
		start := time.Now()
		t, err := e.Run(*budget, tune)
		prog.Done() // clear the live line before the summary (nil-safe)
		prog = nil
		if err != nil {
			fail(fmt.Errorf("%s: %w", e.Name, err))
		}
		path := filepath.Join(*out, e.Name+".csv")
		if err := os.WriteFile(path, []byte(strings.Join(t.Lines, "\n")+"\n"), 0o644); err != nil {
			fail(err)
		}
		sum.Infof("%-14s %4d rows  %-10v -> %s", e.Name, len(t.Lines)-1, time.Since(start).Round(time.Millisecond), path)
		if t.Claim != nil {
			log.Errorf("%s: paper claim violated: %v", e.Name, t.Claim)
			violated++
		}
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
	if violated > 0 {
		log.Errorf("%d of %d experiments contradict the paper's claim", violated, len(selected))
		return 1
	}
	return 0
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "raha-experiments: %v\n", err)
	os.Exit(1)
}
