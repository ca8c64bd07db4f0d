package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"raha/internal/milp"
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
	st := &tr.stats
	denom := st.PresolveNs + tr.workerWallNs()
	w := &strings.Builder{}

	fmt.Fprintf(w, "trace: %s  (%d events: %s)\n", tr.path, tr.events, tr.sortedLayers())
	fmt.Fprintf(w, "solves %d  nodes %d  lp solves %d  wall %.3fs",
		tr.solves, tr.nodes, st.LPSolves, tr.runtimeS)
	if tr.runtimeS > 0 {
		fmt.Fprintf(w, "  (%.0f nodes/sec)", float64(tr.nodes)/tr.runtimeS)
	}
	fmt.Fprintln(w)
	if st.LPSolves > 0 {
		fmt.Fprintf(w, "warm starts %d/%d (%.0f%%)  cold fallbacks %d\n",
			st.WarmStarts, st.LPSolves, 100*float64(st.WarmStarts)/float64(st.LPSolves),
			st.ColdFallbacks)
	}
	if st.LPObjLimitStops > 0 {
		fmt.Fprintf(w, "objective cutoff: %d LPs stopped at the incumbent; %d of %d bound-pruned nodes cut off\n",
			st.LPObjLimitStops, st.LPCutoffs, tr.reasons["bound"])
	}
	if st.BudgetPrunes > 0 {
		fmt.Fprintf(w, "budget bound: %d children discarded at creation (not in the node count)\n", st.BudgetPrunes)
	}
	fmt.Fprintf(w, "\nphase attribution (of %s worker-time):\n", fmtNs(denom))
	row := func(name string, ns int64) {
		fmt.Fprintf(w, "  %-12s %10s  %5.1f%%\n", name, fmtNs(ns), pct(ns, denom))
	}
	row("presolve", st.PresolveNs)
	row("LP warm", st.LPWarmNs)
	row("LP cold", st.LPColdNs)
	row("heuristic", st.HeurNs)
	row("branching", st.BranchNs)
	row("queue wait", st.QueuePopNs+st.QueuePushNs)
	row("idle", tr.idleNs())
	if rest := denom - attributed - tr.idleNs(); rest > 0 {
		row("unaccounted", rest)
	}
	printQueue(w, st)
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
	if requireSteals && tr.stats.Steals == 0 {
		return fmt.Errorf("%s: no successful steals recorded (%d attempts failed) — work never moved between workers", tr.path, tr.stats.FailedSteals)
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
	st := &tr.stats
	if len(st.PerWorker) == 0 {
		return fmt.Errorf("%s: no per-worker data (trace predates worker accounting or solve was unobserved)", tr.path)
	}
	w := &strings.Builder{}
	fmt.Fprintf(w, "trace: %s  (%d solves, %d workers)\n\n", tr.path, tr.solves, len(st.PerWorker))
	fmt.Fprintf(w, "worker    nodes   steals   stolen       busy       wait       idle       wall\n")
	row := func(name string, wk milp.WorkerStats) {
		fmt.Fprintf(w, "%6s %8d %8d %8d %9.1f%% %9.1f%% %9.1f%% %10s\n",
			name, wk.Nodes, wk.Steals, wk.StolenNodes,
			pct(wk.BusyNs, wk.WallNs), pct(wk.QueueWaitNs, wk.WallNs),
			pct(wk.IdleNs, wk.WallNs), fmtNs(wk.WallNs))
	}
	var tot milp.WorkerStats
	for i, wk := range st.PerWorker {
		row(fmt.Sprint(i), wk)
		tot.Nodes += wk.Nodes
		tot.Steals += wk.Steals
		tot.StolenNodes += wk.StolenNodes
		tot.BusyNs += wk.BusyNs
		tot.QueueWaitNs += wk.QueueWaitNs
		tot.IdleNs += wk.IdleNs
		tot.WallNs += wk.WallNs
	}
	row("total", tot)
	printQueue(w, st)
	if st.Steals > 0 || st.FailedSteals > 0 {
		fmt.Fprintf(w, "steals: %d ok (%d nodes moved, avg %s), %d failed scans\n",
			st.Steals, st.StolenNodes, fmtNs(safeDiv(st.StealNs, st.Steals)),
			st.FailedSteals)
	}
	if timeline {
		printTimeline(w, tr)
	}
	_, err := io.WriteString(out, w.String())
	return err
}

// printQueue prints the average claim and publish latencies.
func printQueue(w *strings.Builder, st *milp.Stats) {
	if st.QueuePops > 0 {
		fmt.Fprintf(w, "\nqueue: %d pops avg %s, %d pushes avg %s\n",
			st.QueuePops, fmtNs(st.QueuePopNs/st.QueuePops),
			st.QueuePushes, fmtNs(safeDiv(st.QueuePushNs, st.QueuePushes)))
	}
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
	o, c := &old.stats, &cur.stats
	ns("presolve", o.PresolveNs, c.PresolveNs)
	ns("LP warm", o.LPWarmNs, c.LPWarmNs)
	ns("LP cold", o.LPColdNs, c.LPColdNs)
	ns("heuristic", o.HeurNs, c.HeurNs)
	ns("branching", o.BranchNs, c.BranchNs)
	ns("queue wait", o.QueuePopNs+o.QueuePushNs, c.QueuePopNs+c.QueuePushNs)
	ns("idle", old.idleNs(), cur.idleNs())
	num("pop avg ns", avg(o.QueuePopNs, o.QueuePops), avg(c.QueuePopNs, c.QueuePops), "%.0f")
	num("push avg ns", avg(o.QueuePushNs, o.QueuePushes), avg(c.QueuePushNs, c.QueuePushes), "%.0f")
	num("steals", float64(o.Steals), float64(c.Steals), "%.0f")
	num("stolen nodes", float64(o.StolenNodes), float64(c.StolenNodes), "%.0f")
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
