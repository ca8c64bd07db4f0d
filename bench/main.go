// Command bench is the repository's benchmark: four WAN-analysis workloads
// driven through the public raha entry points, each in its own process as
// one closed-loop client. See README.md in this directory.
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash bench/run.sh --sets <n>
//	bash bench/run.sh --compare <parent.json> <change.json>
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "workload to run: uninett_optimal, b4_budget, africa_fixed or fleet_sweep")
		seed     = fs.Int64("seed", 1, "presentation-order seed: the instance pool is fixed, the order it is visited in is drawn from this")
		secs     = fs.Float64("seconds", 20, "how long the closed loop measures (it finishes the pass it is in)")
		trace    = fs.Int("trace", 0, "1 = traced run: print the per-layer metrics and write out/trace-<workload>.json")
		shift    = fs.Int64("shift", 0, "added to every generator seed: other instances of the same shape; pinned answers are skipped, re-simulation is not")
		record   = fs.String("record", "", "also write the run's full record (spread, exact counts) to this file")
		sets     = fs.Int("sets", 0, "noise protocol: run this many untraced sets of all workloads round-robin, then one traced set")
		out      = fs.String("out", "bench/out", "directory for -sets records and trace files")
		compare  = fs.Bool("compare", false, "compare two -sets records: bench -compare parent.json change.json")
		manifest = fs.Bool("manifest", false, "print BENCHMARK.json as the metric tables define it")
		attr     = fs.String("attribute", "", "print the per-layer attribution tables of this -sets record (markdown)")
		bounds   = fs.String("benchmark", "BENCHMARK.json", "BENCHMARK.json to take -compare bounds from")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	switch {
	case *manifest:
		if err := printManifest(os.Stdout); err != nil {
			return fail(err)
		}
		return 0
	case *attr != "":
		if err := attribute(os.Stdout, *attr); err != nil {
			return fail(err)
		}
		return 0
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two record files, got %d", fs.NArg()))
		}
		regressed, err := compareRecords(os.Stdout, *bounds, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	case *sets > 0:
		if err := runSets(*sets, *secs, *shift, *out); err != nil {
			return fail(err)
		}
		return 0
	}

	w, err := newWorkload(*name, *seed, *shift)
	if err != nil {
		return fail(err)
	}
	rd, err := measure(w, *seed, *secs, *trace != 0)
	if err != nil {
		return fail(fmt.Errorf("%s: %w", *name, err))
	}
	rec := report(*name, *seed, *shift, *secs, rd)
	if rd.tr != nil {
		if err := rd.tr.flush(fmt.Sprintf("%s/trace-%s.json", *out, *name)); err != nil {
			return fail(err)
		}
	}
	if *record != "" {
		if err := writeJSON(*record, rec); err != nil {
			return fail(err)
		}
	}
	if err := printRecord(os.Stdout, rec); err != nil {
		return fail(err)
	}
	return 0
}
