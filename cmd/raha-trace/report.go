package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

func summarizeCmd(args []string) error {
	fs := flag.NewFlagSet("summarize", flag.ExitOnError)
	_ = fs.Parse(args) // ExitOnError: flag errors exit instead of returning
	if fs.NArg() != 1 {
		return fmt.Errorf("summarize: want one trace path, got %d args", fs.NArg())
	}
	tr, err := parseTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	return summarize(os.Stdout, tr)
}

// summarize prints the phase attribution: how the solve's worker-time
// splits into presolve, LP, heuristic, branching, queue wait, and idle.
// The denominator is root presolve plus every worker's wall clock, so the
// shares sum to ~100%. Like the other reports it renders into a builder
// (whose writes cannot fail) and flushes once, so the only write error to
// handle is the final one.
func summarize(out io.Writer, tr *trace) error {
	if tr.solves == 0 {
		return fmt.Errorf("%s: no solve_end events — not a solver trace", tr.path)
	}
	attributed := tr.attributedNs()
	if attributed <= 0 {
		return fmt.Errorf("%s: zero attributed time — trace was written without timing instrumentation", tr.path)
	}
	denom := tr.presolveNs + tr.workerWallNs()
	w := &strings.Builder{}

	fmt.Fprintf(w, "trace: %s  (%d events: %s)\n", tr.path, tr.events, tr.sortedLayers())
	fmt.Fprintf(w, "solves %d  nodes %d  lp solves %d  wall %.3fs",
		tr.solves, tr.nodes, tr.lpSolves, tr.runtimeS)
	if tr.runtimeS > 0 {
		fmt.Fprintf(w, "  (%.0f nodes/sec)", float64(tr.nodes)/tr.runtimeS)
	}
	fmt.Fprintln(w)
	if tr.lpSolves > 0 {
		fmt.Fprintf(w, "warm starts %d/%d (%.0f%%)  cold fallbacks %d\n",
			tr.warmStarts, tr.lpSolves, 100*float64(tr.warmStarts)/float64(tr.lpSolves),
			tr.coldFallbacks)
	}
	if tr.objLimitStops > 0 {
		fmt.Fprintf(w, "objective cutoff: %d LPs stopped at the incumbent; %d of %d bound-pruned nodes cut off\n",
			tr.objLimitStops, tr.lpCutoffs, tr.reasons["bound"])
	}
	if tr.budgetPrunes > 0 {
		fmt.Fprintf(w, "budget bound: %d children discarded at creation (not in the node count)\n", tr.budgetPrunes)
	}
	fmt.Fprintf(w, "\nphase attribution (of %s worker-time):\n", fmtNs(denom))
	row := func(name string, ns int64) {
		fmt.Fprintf(w, "  %-12s %10s  %5.1f%%\n", name, fmtNs(ns), pct(ns, denom))
	}
	row("presolve", tr.presolveNs)
	row("LP warm", tr.lpWarmNs)
	row("LP cold", tr.lpColdNs)
	row("heuristic", tr.heurNs)
	row("branching", tr.branchNs)
	row("queue wait", tr.queuePopNs+tr.queuePushNs)
	row("idle", tr.idleNs())
	if rest := denom - attributed - tr.idleNs(); rest > 0 {
		row("unaccounted", rest)
	}
	if tr.queuePops > 0 {
		fmt.Fprintf(w, "\nqueue: %d pops avg %s, %d pushes avg %s\n",
			tr.queuePops, fmtNs(tr.queuePopNs/tr.queuePops),
			tr.queuePushes, fmtNs(safeDiv(tr.queuePushNs, tr.queuePushes)))
	}
	_, err := io.WriteString(out, w.String())
	return err
}

func workersCmd(args []string) error {
	fs := flag.NewFlagSet("workers", flag.ExitOnError)
	timeline := fs.Bool("timeline", false, "print the sampled per-worker busy-share timeline")
	requireSteals := fs.Bool("require-steals", false, "exit non-zero unless the trace records at least one successful steal")
	maxIdle := fs.Float64("max-idle", -1, "exit non-zero when the total idle share exceeds this percentage (-1 disables)")
	_ = fs.Parse(args) // ExitOnError: flag errors exit instead of returning
	if fs.NArg() != 1 {
		return fmt.Errorf("workers: want one trace path, got %d args", fs.NArg())
	}
	tr, err := parseTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	if err := workersReport(os.Stdout, tr, *timeline); err != nil {
		return err
	}
	return assertWorkers(tr, *requireSteals, *maxIdle)
}

// assertWorkers is the CI gate behind -require-steals and -max-idle: a
// traced parallel solve whose workers never stole, or spent most of their
// lifetime idle, means the scheduler is not moving load — the report
// above still prints, so the failure log shows the table it judged.
func assertWorkers(tr *trace, requireSteals bool, maxIdlePct float64) error {
	if requireSteals && tr.steals == 0 {
		return fmt.Errorf("%s: no successful steals recorded (%d attempts failed) — work never moved between workers", tr.path, tr.failedSteals)
	}
	if maxIdlePct >= 0 {
		if idle := pct(tr.idleNs(), tr.workerWallNs()); idle > maxIdlePct {
			return fmt.Errorf("%s: idle share %.1f%% exceeds the %.1f%% ceiling — workers are starving", tr.path, idle, maxIdlePct)
		}
	}
	return nil
}

// workersReport prints the per-worker utilization table — the direct
// answer to "why is Workers=4 slower than serial": high wait shares mean
// queue contention, high idle shares mean starvation.
func workersReport(out io.Writer, tr *trace, timeline bool) error {
	if len(tr.workers) == 0 {
		return fmt.Errorf("%s: no per-worker data (trace predates worker accounting or solve was unobserved)", tr.path)
	}
	w := &strings.Builder{}
	fmt.Fprintf(w, "trace: %s  (%d solves, %d workers)\n\n", tr.path, tr.solves, len(tr.workers))
	fmt.Fprintf(w, "worker    nodes   steals   stolen       busy       wait       idle       wall\n")
	var tot workerAgg
	for i, wk := range tr.workers {
		fmt.Fprintf(w, "%6d %8d %8d %8d %9.1f%% %9.1f%% %9.1f%% %10s\n",
			i, wk.nodes, wk.steals, wk.stolenNodes,
			pct(wk.busyNs, wk.wallNs), pct(wk.waitNs, wk.wallNs),
			pct(wk.idleNs, wk.wallNs), fmtNs(wk.wallNs))
		tot.nodes += wk.nodes
		tot.steals += wk.steals
		tot.stolenNodes += wk.stolenNodes
		tot.busyNs += wk.busyNs
		tot.waitNs += wk.waitNs
		tot.idleNs += wk.idleNs
		tot.wallNs += wk.wallNs
	}
	fmt.Fprintf(w, " total %8d %8d %8d %9.1f%% %9.1f%% %9.1f%% %10s\n",
		tot.nodes, tot.steals, tot.stolenNodes,
		pct(tot.busyNs, tot.wallNs), pct(tot.waitNs, tot.wallNs),
		pct(tot.idleNs, tot.wallNs), fmtNs(tot.wallNs))
	if tr.queuePops > 0 {
		fmt.Fprintf(w, "\nqueue: %d pops avg %s, %d pushes avg %s\n",
			tr.queuePops, fmtNs(tr.queuePopNs/tr.queuePops),
			tr.queuePushes, fmtNs(safeDiv(tr.queuePushNs, tr.queuePushes)))
	}
	if tr.steals > 0 || tr.failedSteals > 0 {
		fmt.Fprintf(w, "steals: %d ok (%d nodes moved, avg %s), %d failed scans\n",
			tr.steals, tr.stolenNodes, fmtNs(safeDiv(tr.stealNs, tr.steals)),
			tr.failedSteals)
	}
	if timeline {
		printTimeline(w, tr)
	}
	_, err := io.WriteString(out, w.String())
	return err
}

// printTimeline differences consecutive worker_sample events into interval
// busy shares: one row per sample, one column per worker.
func printTimeline(w *strings.Builder, tr *trace) {
	if len(tr.samples) < 2 {
		fmt.Fprintf(w, "\nno sampled timeline (fewer than two worker_sample events)\n")
		return
	}
	fmt.Fprintf(w, "\nbusy share per sample interval:\n      t")
	for i := range tr.samples[0].busyNs {
		fmt.Fprintf(w, "     w%d", i)
	}
	fmt.Fprintln(w)
	for i := 1; i < len(tr.samples); i++ {
		prev, cur := tr.samples[i-1], tr.samples[i]
		dt := (cur.t - prev.t) * 1e9
		if dt <= 0 || len(cur.busyNs) != len(prev.busyNs) {
			continue
		}
		fmt.Fprintf(w, "%6.2fs", cur.t)
		for j := range cur.busyNs {
			fmt.Fprintf(w, " %5.0f%%", 100*float64(cur.busyNs[j]-prev.busyNs[j])/dt)
		}
		fmt.Fprintln(w)
	}
}

func treeCmd(args []string) error {
	fs := flag.NewFlagSet("tree", flag.ExitOnError)
	_ = fs.Parse(args) // ExitOnError: flag errors exit instead of returning
	if fs.NArg() != 1 {
		return fmt.Errorf("tree: want one trace path, got %d args", fs.NArg())
	}
	tr, err := parseTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	return treeReport(os.Stdout, tr)
}

// treeReport prints the search-tree shape: how deep the tree grew, how
// nodes were fathomed, and when incumbents arrived.
func treeReport(out io.Writer, tr *trace) error {
	if len(tr.depths) == 0 {
		return fmt.Errorf("%s: no node events — trace has no search tree", tr.path)
	}
	w := &strings.Builder{}
	var total, maxCount int64
	maxDepth := 0
	for d, c := range tr.depths {
		total += c
		if d > maxDepth {
			maxDepth = d
		}
		if c > maxCount {
			maxCount = c
		}
	}
	fmt.Fprintf(w, "trace: %s  (%d nodes, max depth %d)\n\ndepth histogram:\n", tr.path, total, maxDepth)
	for d := 0; d <= maxDepth; d++ {
		c := tr.depths[d]
		bar := ""
		if maxCount > 0 {
			bar = strings.Repeat("#", int(40*c/maxCount))
		}
		fmt.Fprintf(w, "%4d %8d %s\n", d, c, bar)
	}

	fmt.Fprintf(w, "\nfathom reasons:\n")
	type rc struct {
		reason string
		count  int64
	}
	rcs := make([]rc, 0, len(tr.reasons))
	for r, c := range tr.reasons {
		rcs = append(rcs, rc{r, c})
	}
	sort.Slice(rcs, func(i, j int) bool {
		if rcs[i].count != rcs[j].count {
			return rcs[i].count > rcs[j].count
		}
		return rcs[i].reason < rcs[j].reason
	})
	for _, x := range rcs {
		fmt.Fprintf(w, "  %-12s %8d  %5.1f%%\n", x.reason, x.count, pct(x.count, total))
	}

	fmt.Fprintf(w, "\nincumbent timeline (%d updates):\n", len(tr.incumbents))
	const maxRows = 30
	for i, p := range tr.incumbents {
		if i == maxRows {
			fmt.Fprintf(w, "  … %d more\n", len(tr.incumbents)-maxRows)
			break
		}
		fmt.Fprintf(w, "  %8.3fs  obj %-12g after %d nodes\n", p.t, p.obj, p.nodes)
	}
	_, err := io.WriteString(out, w.String())
	return err
}

func diffCmd(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	_ = fs.Parse(args) // ExitOnError: flag errors exit instead of returning
	if fs.NArg() != 2 {
		return fmt.Errorf("diff: want two trace paths, got %d args", fs.NArg())
	}
	old, err := parseTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	cur, err := parseTrace(fs.Arg(1))
	if err != nil {
		return err
	}
	return diffReport(os.Stdout, old, cur)
}

// diffReport prints the two traces' headline numbers side by side —
// enough to see whether a change moved time between phases.
func diffReport(out io.Writer, old, cur *trace) error {
	if old.solves == 0 || cur.solves == 0 {
		return fmt.Errorf("diff: both traces must contain solve_end events (%s: %d, %s: %d)",
			old.path, old.solves, cur.path, cur.solves)
	}
	w := &strings.Builder{}
	fmt.Fprintf(w, "old: %s\nnew: %s\n\n", old.path, cur.path)
	fmt.Fprintf(w, "%-14s %12s %12s %9s\n", "metric", "old", "new", "delta")
	num := func(name string, o, n float64, format string) {
		d := "-"
		if o != 0 {
			d = fmt.Sprintf("%+.1f%%", 100*(n-o)/o)
		}
		fmt.Fprintf(w, "%-14s %12s %12s %9s\n",
			name, fmt.Sprintf(format, o), fmt.Sprintf(format, n), d)
	}
	num("solves", float64(old.solves), float64(cur.solves), "%.0f")
	num("nodes", float64(old.nodes), float64(cur.nodes), "%.0f")
	num("wall s", old.runtimeS, cur.runtimeS, "%.3f")
	num("nodes/sec", perSec(old.nodes, old.runtimeS), perSec(cur.nodes, cur.runtimeS), "%.0f")
	ns := func(name string, o, n int64) {
		num(name, float64(o)/1e6, float64(n)/1e6, "%.1fms")
	}
	ns("presolve", old.presolveNs, cur.presolveNs)
	ns("LP warm", old.lpWarmNs, cur.lpWarmNs)
	ns("LP cold", old.lpColdNs, cur.lpColdNs)
	ns("heuristic", old.heurNs, cur.heurNs)
	ns("branching", old.branchNs, cur.branchNs)
	ns("queue wait", old.queuePopNs+old.queuePushNs, cur.queuePopNs+cur.queuePushNs)
	ns("idle", old.idleNs(), cur.idleNs())
	num("pop avg ns", avg(old.queuePopNs, old.queuePops), avg(cur.queuePopNs, cur.queuePops), "%.0f")
	num("push avg ns", avg(old.queuePushNs, old.queuePushes), avg(cur.queuePushNs, cur.queuePushes), "%.0f")
	num("steals", float64(old.steals), float64(cur.steals), "%.0f")
	num("stolen nodes", float64(old.stolenNodes), float64(cur.stolenNodes), "%.0f")
	_, err := io.WriteString(out, w.String())
	return err
}

func pct(part, whole int64) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

func perSec(n int64, secs float64) float64 {
	if secs <= 0 {
		return 0
	}
	return float64(n) / secs
}

func avg(sum, n int64) float64 {
	if n <= 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

func safeDiv(a, b int64) int64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

func fmtNs(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d)/1e6)
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
