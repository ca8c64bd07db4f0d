// Command raha-benchdiff compares the layer benchmarks' custom metrics
// between two `go test -json -bench` streams, e.g.
//
//	go test -json -run '^$' -bench . -benchmem -benchtime 1x ./internal/... >new.json
//
// on two checkouts. It is an ad-hoc reading aid, not a gate and not a
// record: regressions are judged by `bash bench/run.sh --sets 10` +
// `--compare` (bench/README.md), and no benchmark output is committed. It
// extracts every benchmark's custom
// metrics — nodes/sec (the branch-and-bound throughput figure the
// performance roadmap tracks), the fleet-sweep breadth figures cells/min
// and topos/min, bytes/solve (allocated heap per analysis, the memory
// figure the sparse-LP rewrite is pinned by), warmstarts/solve, and
// coldfallbacks/solve — and prints the old→new change side by side, with a
// warning for any regression beyond a tolerance.
//
//	raha-benchdiff old.json new.json
//
// Three regressions are flagged: a throughput drop beyond regressTol on any
// higher-is-better headline metric (nodes/sec, cells/min, topos/min,
// speedup-w4, parallel-efficiency, node-throughput-w4), growth beyond the
// same tolerance on a
// lower-is-better headline (bytes/solve), and a growing cold-fallback share
// (cold / (warm + cold)) — the silent failure mode where warm starts still
// "work" but more and more node LPs quietly fall back to cold two-phase
// solves.
//
// The comparison is advisory with one exception: single-iteration CI
// benchmarks are a smoke signal, not a statistically stable measurement, so
// throughput regressions print WARNING lines and the tool still exits 0.
// parallel-efficiency is the exception — when EVERY benchmark reporting it
// in both records drops beyond regressTol, a FAIL line prints and the tool
// exits 1. The all-of-them rule is what makes a single-pass gate sound: a
// genuine scheduler regression (lock contention, steal storms, a broken
// termination protocol) is global — it suppresses the parallel tier on
// every instance at once — while a wall-clock ratio on any one instance
// swings with search-order luck (a parallel search explores a slightly
// different tree each run). One instance down and the others steady is
// noise or a trade-off and stays a WARNING; all instances down is the
// scheduler.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// regressTol is the relative nodes/sec drop that triggers a warning line.
// Single-shot benchmark runs jitter well past a few percent; only a drop
// large enough to suggest a real change in solver behaviour is worth a
// human's attention.
const regressTol = 0.10

// coldShareTol and coldShareFloor gate the cold-fallback warning: the share
// of node LPs that fell back to a cold solve must have grown by more than
// coldShareTol percentage points AND ended above coldShareFloor. The floor
// keeps tiny absolute counts (one cold solve out of twenty) from tripping
// the warning on noise.
const (
	coldShareTol   = 0.10
	coldShareFloor = 0.05
)

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: raha-benchdiff OLD_BENCH.json NEW_BENCH.json")
		os.Exit(2)
	}
	oldM, err := parseFile(os.Args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "raha-benchdiff: %s: %v\n", os.Args[1], err)
		os.Exit(1)
	}
	newM, err := parseFile(os.Args[2])
	if err != nil {
		fmt.Fprintf(os.Stderr, "raha-benchdiff: %s: %v\n", os.Args[2], err)
		os.Exit(1)
	}
	if report(os.Stdout, os.Args[1], os.Args[2], oldM, newM) {
		os.Exit(1)
	}
}

func parseFile(path string) (map[string]map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseBench(f)
}

// testEvent is the subset of test2json's event schema the parser needs.
type testEvent struct {
	Action string
	Output string
}

// benchLine matches one completed benchmark result line; the -N GOMAXPROCS
// suffix is stripped so records taken on different machines still align.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.+)$`)

// parseBench reads a `go test -json` stream and returns every metric per
// benchmark name — the standard ns/op plus any ReportMetric extras
// (nodes/sec, warmstarts/solve, ...). Output events may split a single
// benchmark line across several records (test2json flushes on partial
// writes), so the stream's output is reassembled before line parsing.
func parseBench(r io.Reader) (map[string]map[string]float64, error) {
	var text strings.Builder
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev testEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return nil, fmt.Errorf("not a go-test JSON stream: %w", err)
		}
		if ev.Action == "output" {
			text.WriteString(ev.Output)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	out := make(map[string]map[string]float64)
	for _, line := range strings.Split(text.String(), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		metrics := make(map[string]float64)
		// The tail is tab-separated "<value> <unit>" pairs.
		for _, field := range strings.Split(m[2], "\t") {
			parts := strings.Fields(strings.TrimSpace(field))
			if len(parts) != 2 {
				continue
			}
			v, err := strconv.ParseFloat(parts[0], 64)
			if err != nil {
				continue
			}
			metrics[parts[1]] = v
		}
		if len(metrics) > 0 {
			out[m[1]] = metrics
		}
	}
	return out, nil
}

// diffMetric collects the old→new rows of one metric across the benchmarks
// present in both records, most-regressed first (lower = worse for
// higher-is-better metrics, which every diffed metric here is except the
// per-solve fallback counts — those are diffed for display, not sorted
// semantics).
type row struct {
	name     string
	old, new float64
	change   float64 // relative: +0.25 = 25% higher
}

func diffMetric(oldM, newM map[string]map[string]float64, metric string) []row {
	var rows []row
	for name, om := range oldM {
		nm, ok := newM[name]
		if !ok {
			continue
		}
		ov, o1 := om[metric]
		nv, n1 := nm[metric]
		if !o1 || !n1 || ov <= 0 {
			continue
		}
		rows = append(rows, row{name, ov, nv, nv/ov - 1})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].change != rows[j].change { //raha:lint-allow float-cmp sort tie-break on identical ratios is harmless
			return rows[i].change < rows[j].change
		}
		return rows[i].name < rows[j].name
	})
	return rows
}

// coldShare is cold / (warm + cold) for one benchmark's record, false when
// the metrics are absent or no node LP ran warm or cold at all.
func coldShare(m map[string]float64) (float64, bool) {
	warm, okW := m["warmstarts/solve"]
	cold, okC := m["coldfallbacks/solve"]
	if !okW || !okC || warm+cold <= 0 {
		return 0, false
	}
	return cold / (warm + cold), true
}

// headlineMetrics are the higher-is-better throughput figures diffed and
// regression-checked per benchmark: branch-and-bound node throughput, the
// fleet-sweep breadth figures (grid cells and topologies analyzed per
// minute, from BenchmarkFleetSweep), and the worker-pool scaling figures
// (speedup@4 and speedup@4 / 4, from the *Scaling benchmarks).
var headlineMetrics = []string{"nodes/sec", "cells/min", "topos/min", "speedup-w4", "parallel-efficiency", "node-throughput-w4"}

// hardFailMetric is the one headline figure the comparison is NOT advisory
// about: when every benchmark reporting parallel-efficiency in both records
// drops beyond regressTol, the process exits 1. Per-instance wall ratios
// swing with search-order luck, so one instance regressing alone is only a
// WARNING — but a real scheduler regression hits every instance, and that
// unanimous signature is stable enough to gate a single CI pass on.
// (node-throughput-w4 stays advisory: it isolates scheduler overhead from
// tree-size effects and is the first figure to read when the gate fires.)
const hardFailMetric = "parallel-efficiency"

// lowerBetterMetrics are the headline figures where DOWN is good: allocated
// bytes per analysis (from the Analyze* benchmarks). They get the same
// per-benchmark diff table and the same regressTol advisory warning, with
// the sign flipped — growth is the regression.
var lowerBetterMetrics = []string{"bytes/solve"}

// newMetricNotes lists what the new record measures that the old one does
// not: whole benchmarks without a baseline, and new metrics on existing
// benchmarks. Without the note, a freshly added metric would be silently
// absent from every diff table and look like it was measured and unchanged.
func newMetricNotes(oldM, newM map[string]map[string]float64) []string {
	var notes []string
	for name, nm := range newM {
		om, ok := oldM[name]
		if !ok {
			notes = append(notes, fmt.Sprintf("note: new benchmark %s (no baseline in old record)", name))
			continue
		}
		for metric := range nm {
			if _, ok := om[metric]; !ok {
				notes = append(notes, fmt.Sprintf("note: new metric %s on %s (no baseline in old record)", metric, name))
			}
		}
	}
	sort.Strings(notes)
	return notes
}

// report prints the old→new comparison for every benchmark present in both
// records: one table per headline throughput metric, then the warm-start
// metrics, then warnings for throughput regressions and growing
// cold-fallback shares. It returns true when the hard-fail gate tripped
// (every benchmark reporting parallel-efficiency dropped beyond tolerance),
// which main converts to exit status 1. The body renders into a builder (whose writes cannot fail) and
// flushes once; a failed flush is reported on stderr but does not affect
// the gate.
func report(out io.Writer, oldPath, newPath string, oldM, newM map[string]map[string]float64) bool {
	w := &strings.Builder{}
	failed := writeReport(w, oldPath, newPath, oldM, newM)
	if _, err := io.WriteString(out, w.String()); err != nil {
		fmt.Fprintln(os.Stderr, "raha-benchdiff:", err)
	}
	return failed
}

func writeReport(w *strings.Builder, oldPath, newPath string, oldM, newM map[string]map[string]float64) (failed bool) {
	tables := 0
	for _, metric := range append(append([]string{}, headlineMetrics...), lowerBetterMetrics...) {
		rows := diffMetric(oldM, newM, metric)
		if len(rows) == 0 {
			continue
		}
		tables++
		fmt.Fprintf(w, "benchdiff %s -> %s (%s)\n", oldPath, newPath, metric)
		for _, r := range rows {
			fmt.Fprintf(w, "  %-36s %10.1f -> %10.1f  %+6.1f%%\n", r.name, r.old, r.new, 100*r.change)
		}
	}
	notes := newMetricNotes(oldM, newM)
	if tables == 0 {
		fmt.Fprintf(w, "benchdiff: no common throughput benchmarks between %s and %s\n", oldPath, newPath)
		for _, n := range notes {
			fmt.Fprintln(w, n)
		}
		return false
	}
	for _, n := range notes {
		fmt.Fprintln(w, n)
	}
	for _, metric := range []string{"warmstarts/solve", "coldfallbacks/solve"} {
		rows := diffMetric(oldM, newM, metric)
		if len(rows) == 0 {
			continue
		}
		fmt.Fprintf(w, "benchdiff %s -> %s (%s)\n", oldPath, newPath, metric)
		for _, r := range rows {
			fmt.Fprintf(w, "  %-36s %10.1f -> %10.1f  %+6.1f%%\n", r.name, r.old, r.new, 100*r.change)
		}
	}

	for _, metric := range headlineMetrics {
		rows := diffMetric(oldM, newM, metric)
		var regressed []row
		for _, r := range rows {
			if r.change < -regressTol {
				regressed = append(regressed, r)
			}
		}
		if metric == hardFailMetric && len(rows) > 0 && len(regressed) == len(rows) {
			// Unanimous: every instance's parallel tier got worse. That is
			// the scheduler, not search-order luck on one instance.
			failed = true
			for _, r := range regressed {
				fmt.Fprintf(w, "FAIL: %s %s regressed %.1f%% vs the last committed record — every scaling benchmark regressed together; this is a scheduler regression\n",
					r.name, metric, -100*r.change)
			}
			continue
		}
		for _, r := range regressed {
			fmt.Fprintf(w, "WARNING: %s %s regressed %.1f%% vs the last committed record (advisory; single-shot CI benchmarks are noisy)\n",
				r.name, metric, -100*r.change)
		}
	}
	for _, metric := range lowerBetterMetrics {
		for _, r := range diffMetric(oldM, newM, metric) {
			if r.change > regressTol {
				fmt.Fprintf(w, "WARNING: %s %s grew %.1f%% vs the last committed record (advisory; single-shot CI benchmarks are noisy)\n",
					r.name, metric, 100*r.change)
			}
		}
	}
	// The silent warm-start failure mode: throughput may look fine while an
	// increasing share of node LPs falls back to cold two-phase solves.
	var names []string
	for name := range oldM {
		if _, ok := newM[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		oldShare, ok1 := coldShare(oldM[name])
		newShare, ok2 := coldShare(newM[name])
		if !ok1 || !ok2 {
			continue
		}
		if newShare > oldShare+coldShareTol && newShare > coldShareFloor {
			fmt.Fprintf(w, "WARNING: %s cold-fallback share grew %.1f%% -> %.1f%% of node LPs — warm starts are silently degrading (advisory)\n",
				name, 100*oldShare, 100*newShare)
		}
	}
	return failed
}
