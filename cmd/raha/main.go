// Command raha is the command-line front end of the Raha WAN degradation
// analyzer.
//
// Subcommands:
//
//	probe    — Figure-2 analysis: how many links can simultaneously fail
//	           within each probability threshold.
//	analyze  — find the worst-case (demand, failure) degradation scenario.
//	augment  — iteratively add capacity until no probable failure degrades
//	           the network.
//	alert    — the production two-phase check: fixed peak demand first,
//	           then the full demand envelope. With -all, sweeps a whole
//	           fleet of topologies (built-ins, a Topology Zoo directory,
//	           seeded synthetic WANs) crossed with a grid of analysis
//	           settings and ranks the most fragile topologies.
//
// Topologies are selected with -topology: a built-in name (smallwan, b4,
// uninett2010, cogentco, africa, figure1) or a path to a Topology Zoo GML
// file.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strings"
	"time"

	"raha"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// Ctrl-C cancels the in-flight search; the solver stops promptly and
	// the subcommand reports the best scenario found so far.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var err error
	switch os.Args[1] {
	case "probe":
		err = probe(os.Args[2:])
	case "analyze":
		err = analyze(ctx, os.Args[2:])
	case "augment":
		err = augmentCmd(os.Args[2:])
	case "alert":
		err = alert(ctx, os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "raha: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if errors.Is(err, errAlertRaised) {
		os.Exit(1) // the ALERT line on stdout already said why
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "raha: %v\n", err)
		os.Exit(1)
	}
}

// errAlertRaised is what a raised alert returns once its own teardown has
// run: main maps it to exit status 1 without a "raha:" line.
var errAlertRaised = errors.New("alert raised")

func usage() {
	fmt.Fprintln(os.Stderr, `usage: raha <probe|analyze|augment|alert> [flags]

Run "raha <subcommand> -h" for flags.`)
}

// loadTopology resolves -topology values.
func loadTopology(name string) (*raha.Topology, error) {
	switch strings.ToLower(name) {
	case "smallwan":
		return raha.SmallWAN(), nil
	case "b4":
		return raha.B4(), nil
	case "uninett2010":
		return raha.Uninett2010(), nil
	case "cogentco":
		return raha.Cogentco(), nil
	case "africa", "africawan":
		return raha.AfricaWAN(), nil
	case "figure1":
		return raha.Figure1(), nil
	}
	src, err := os.ReadFile(name)
	if err != nil {
		return nil, fmt.Errorf("topology %q is not a built-in name and cannot be read as a GML file: %w", name, err)
	}
	top, err := raha.ParseGML(string(src), 100)
	if err != nil {
		return nil, err
	}
	// Zoo files carry no failure telemetry; use a uniform probability the
	// way the paper assigns production-derived values.
	top.SetLinkFailProb(0.001)
	return top, nil
}

type commonFlags struct {
	fs        *flag.FlagSet
	topology  *string
	pairs     *int
	primary   *int
	backup    *int
	slack     *float64
	threshold *float64
	maxFail   *int
	ce        *bool
	budget    *time.Duration
	seed      *int64
	workers   *int
	check     *bool
	obs       *obsFlags
}

func newCommon(name string) *commonFlags {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	return &commonFlags{
		fs:        fs,
		topology:  fs.String("topology", "smallwan", "built-in topology name or GML file path"),
		pairs:     fs.Int("pairs", 6, "number of (highest-gravity) demand pairs to model"),
		primary:   fs.Int("primary", 2, "primary paths per demand"),
		backup:    fs.Int("backup", 1, "backup paths per demand"),
		slack:     fs.Float64("slack", 0.5, "demand slack: each demand in [0, base*(1+slack)]; negative = fixed base demand"),
		threshold: fs.Float64("threshold", 1e-4, "failure-scenario probability threshold (0 disables)"),
		maxFail:   fs.Int("k", 0, "maximum number of link failures (0 = unlimited)"),
		ce:        fs.Bool("ce", false, "enforce connectivity (at least one path up per demand)"),
		budget:    fs.Duration("budget", 30*time.Second, "solver time budget"),
		seed:      fs.Int64("seed", 1, "seed for the gravity demand model"),
		workers:   fs.Int("workers", 0, "worker budget: branch-and-bound workers of a solve; a sweep (alert -all) spends it across topologies first (0 = all cores, 1 = serial)"),
		check:     fs.Bool("check", false, "run the static model checker before each solve; error diagnostics abort the solve"),
		obs:       newObsFlags(fs),
	}
}

// solver assembles the solver params from the flags and the run's
// observability bundle. The solve is timed exactly when it is observed
// (-trace or -progress), which is what -v's time attribution reads.
func (c *commonFlags) solver(o *runObs) raha.SolverParams {
	return raha.SolverParams{
		TimeLimit:  *c.budget,
		Workers:    *c.workers,
		Tracer:     o.tracer(),
		OnProgress: o.solveProgress(),
		Check:      *c.check,
	}
}

func (c *commonFlags) setup() (*raha.Topology, []raha.DemandPaths, raha.Matrix, raha.Envelope, error) {
	top, err := loadTopology(*c.topology)
	if err != nil {
		return nil, nil, nil, raha.Envelope{}, err
	}
	pairs := raha.TopPairs(top, *c.pairs, *c.seed)
	dps, err := raha.ComputePaths(top, pairs, *c.primary, *c.backup, nil)
	if err != nil {
		return nil, nil, nil, raha.Envelope{}, err
	}
	base := raha.Gravity(top, pairs, top.MeanLAGCapacity()*0.8, *c.seed)
	env := raha.Fixed(base)
	if *c.slack >= 0 {
		env = raha.UpTo(base, *c.slack)
	}
	return top, dps, base, env, nil
}

func probe(args []string) error {
	fs := flag.NewFlagSet("probe", flag.ExitOnError)
	topo := fs.String("topology", "smallwan", "built-in topology name or GML file path")
	_ = fs.Parse(args) // ExitOnError: flag errors exit instead of returning
	top, err := loadTopology(*topo)
	if err != nil {
		return err
	}
	fmt.Printf("topology: %d nodes, %d LAGs, %d links, mean LAG capacity %.1f\n",
		top.NumNodes(), top.NumLAGs(), top.NumLinks(), top.MeanLAGCapacity())
	thresholds := []float64{1e-7, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1}
	curve := raha.FailureCurve(top, thresholds)
	fmt.Println("threshold  max simultaneous link failures")
	for i, th := range thresholds {
		fmt.Printf("%9.0e  %d\n", th, curve[i])
	}
	return nil
}

func analyze(ctx context.Context, args []string) error {
	c := newCommon("analyze")
	_ = c.fs.Parse(args) // ExitOnError: flag errors exit instead of returning
	o, err := c.obs.start()
	if err != nil {
		return err
	}
	top, dps, _, env, err := c.setup()
	if err != nil {
		_ = o.close() // the setup error wins; teardown is best-effort
		return err
	}
	o.log.Infof("analyzing %s: %d demands, %d LAGs, threshold %.0e, budget %v",
		*c.topology, len(dps), top.NumLAGs(), *c.threshold, *c.budget)
	res, err := raha.AnalyzeContext(ctx, raha.Config{
		Topo:                 top,
		Demands:              dps,
		Envelope:             env,
		ProbThreshold:        *c.threshold,
		MaxFailures:          *c.maxFail,
		ConnectivityEnforced: *c.ce,
		Solver:               c.solver(o),
	})
	if cerr := o.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	printResult(ctx, o, *c.budget, top, dps, res)
	return nil
}

// stopReason explains why a solve ended short of proven optimality.
func stopReason(ctx context.Context, budget time.Duration, res *raha.Result) string {
	switch res.Status {
	case raha.StatusOptimal, raha.StatusInfeasible, raha.StatusUnbounded:
		return "" // the search ran to completion
	}
	if ctx.Err() != nil {
		return "cancelled"
	}
	if budget > 0 && res.Runtime >= budget {
		return "time limit"
	}
	return "stopped early"
}

func printResult(ctx context.Context, o *runObs, budget time.Duration, top *raha.Topology, dps []raha.DemandPaths, res *raha.Result) {
	status := fmt.Sprintf("%v", res.Status)
	if why := stopReason(ctx, budget, res); why != "" {
		status += " (" + why + ")"
	}
	if res.ClosedByBound {
		status += " (closed by the budget bound)"
	}
	fmt.Printf("status:      %s — %d nodes explored in %v\n", status, res.Nodes, res.Runtime.Round(time.Millisecond))
	if g := res.Gap; !math.IsInf(g, 0) && !math.IsNaN(g) && res.Status != raha.StatusOptimal {
		fmt.Printf("gap:         %.2f%% (best bound %.2f)\n", 100*g, res.Bound)
	}
	if b := res.BudgetBound; b != nil {
		// What the failure budget alone proves, before any model is built;
		// the best bound above is never weaker than it.
		fmt.Printf("budget bound: %.2f (%.3f × mean LAG capacity)\n", *b, *b/top.MeanLAGCapacity())
	}
	if o != nil {
		st := res.Stats
		o.log.Debugf("solver stats: %d LP solves (%d iterations, %d degenerate pivots), %d warm-started (%d iterations, %d cold fallbacks), prunes: %d infeasible / %d bound (%d cut off at the incumbent) / %d iterlimit, %d integral, %d branched, %d incumbents, peak open %d",
			st.LPSolves, st.LPIterations, st.DegeneratePivots,
			st.WarmStarts, st.WarmIters, st.ColdFallbacks,
			st.PrunedInfeasible, st.PrunedBound, st.LPCutoffs, st.PrunedIterLimit,
			st.Integral, st.NodesBranched, st.IncumbentUpdates, st.MaxOpen)
		o.log.Debugf("presolve stats: %d vars fixed, %d rows removed, %d bounds tightened, %d big-M coefs shrunk; %d propagation prunes, %d budget prunes, %d pseudocost branches",
			st.PresolveFixedVars, st.PresolveRemovedRows, st.PresolveTightenedBounds,
			st.PresolveTightenedCoefs, st.PropagationPrunes, st.BudgetPrunes, st.PseudocostBranches)
		// Only an observed solve (-trace or -progress) keeps wall clocks,
		// and only a timed one has per-worker shares to show.
		if len(st.PerWorker) == 0 {
			o.log.Debugf("time attribution: the solve was not observed, so not timed; rerun with -trace FILE and read it with raha-trace summarize FILE")
		} else {
			o.log.Debugf("time attribution: presolve %v, LP warm %v, LP cold %v, heuristic %v, branching %v, queue wait %v",
				time.Duration(st.PresolveNs).Round(time.Microsecond),
				time.Duration(st.LPWarmNs).Round(time.Microsecond),
				time.Duration(st.LPColdNs).Round(time.Microsecond),
				time.Duration(st.HeurNs).Round(time.Microsecond),
				time.Duration(st.BranchNs).Round(time.Microsecond),
				time.Duration(st.QueuePopNs+st.QueuePushNs).Round(time.Microsecond))
			parts := make([]string, len(st.PerWorker))
			for i, w := range st.PerWorker {
				parts[i] = fmt.Sprintf("w%d: %d nodes, busy %.0f%%, wait %.0f%%, idle %.0f%%",
					i, w.Nodes, 100*w.BusyShare(), 100*w.WaitShare(), 100*w.IdleShare())
			}
			o.log.Debugf("worker utilization: %s", strings.Join(parts, "  "))
		}
	}
	// An interrupted or timed-out search may stop before any scenario was
	// found; there is nothing to report beyond the status.
	if res.Scenario == nil {
		fmt.Println("no degradation scenario found before the search stopped; raise -budget or let it run longer")
		return
	}
	if res.Healthy != nil && res.Failed != nil {
		fmt.Printf("healthy:     %.1f\n", res.Healthy.Objective)
		fmt.Printf("failed:      %.1f\n", res.Failed.Objective)
	}
	fmt.Printf("degradation: %.1f (%.3f × mean LAG capacity)\n", res.Degradation, res.Degradation/top.MeanLAGCapacity())
	names := res.Scenario.FailedLinkNames(top)
	fmt.Printf("failed links (%d): %s\n", len(names), strings.Join(names, ", "))
	fmt.Printf("scenario probability: %.3e\n", expSafe(res.Scenario.LogProb(top)))
	fmt.Println("worst-case demands:")
	for k, d := range res.Demands {
		fmt.Printf("  %s -> %s: %.1f\n", top.Name(dps[k].Src), top.Name(dps[k].Dst), d)
	}
}

func expSafe(logp float64) float64 {
	// Clamp so %e formatting never sees a full underflow.
	const minLog = -700
	if logp < minLog {
		logp = minLog
	}
	return math.Exp(logp)
}

func augmentCmd(args []string) (err error) {
	c := newCommon("augment")
	newLAGs := c.fs.Bool("new-lags", false, "add new LAGs (Appendix C) instead of augmenting existing ones")
	candidates := c.fs.Int("candidates", 8, "candidate new-LAG count (with -new-lags)")
	canFail := c.fs.Bool("can-fail", false, "added capacity can itself fail")
	_ = c.fs.Parse(args) // ExitOnError: flag errors exit instead of returning
	o, err := c.obs.start()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := o.close(); err == nil {
			err = cerr
		}
	}()
	top, _, _, env, err := c.setup()
	if err != nil {
		return err
	}
	cfg := raha.AugmentConfig{
		Topo:                 top,
		Pairs:                env.Pairs,
		Envelope:             env,
		Primary:              *c.primary,
		Backup:               *c.backup,
		ProbThreshold:        *c.threshold,
		MaxFailures:          *c.maxFail,
		ConnectivityEnforced: *c.ce,
		Solver:               c.solver(o),
		NewCapacityCanFail:   *canFail,
	}
	o.log.Infof("augmenting %s until no probable failure degrades it (threshold %.0e)", *c.topology, *c.threshold)
	if *newLAGs {
		res, err := raha.AugmentNewLAGs(cfg, candidateLAGs(top, *candidates))
		if err != nil {
			return err
		}
		fmt.Printf("converged: %v after %d steps, %d links in %d new LAGs, final degradation %.1f\n",
			res.Converged, len(res.Steps), res.TotalLinksAdded, res.Topo.NumLAGs()-top.NumLAGs(), res.FinalDegradation)
		for i, st := range res.Steps {
			fmt.Printf("  step %d: degradation %.1f, added %d links\n", i+1, st.Degradation, st.LinksAdded)
		}
		return nil
	}
	res, err := raha.AugmentExisting(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("converged: %v after %d steps, %d links added, final degradation %.1f\n",
		res.Converged, len(res.Steps), res.TotalLinksAdded, res.FinalDegradation)
	for i, st := range res.Steps {
		fmt.Printf("  step %d: degradation %.1f, added %d links across %d LAGs\n", i+1, st.Degradation, st.LinksAdded, len(st.Added))
	}
	return nil
}

// candidateLAGs proposes absent pairs between high-degree nodes.
func candidateLAGs(top *raha.Topology, n int) [][2]raha.Node {
	var out [][2]raha.Node
	for a := 0; a < top.NumNodes() && len(out) < n; a++ {
		for b := a + 1; b < top.NumNodes() && len(out) < n; b++ {
			na, nb := raha.Node(a), raha.Node(b)
			if top.LAGBetween(na, nb) < 0 {
				out = append(out, [2]raha.Node{na, nb})
			}
		}
	}
	return out
}

func alert(ctx context.Context, args []string) (err error) {
	c := newCommon("alert")
	tolerance := c.fs.Float64("tolerance", 0.5, "alert when degradation exceeds this multiple of mean LAG capacity")
	sw := newSweepFlags(c.fs)
	_ = c.fs.Parse(args) // ExitOnError: flag errors exit instead of returning
	if *sw.all {
		return alertAll(ctx, c, sw, *tolerance)
	}
	o, err := c.obs.start()
	if err != nil {
		return err
	}
	defer func() {
		// A teardown error outranks a raised alert: both exit 1, and only
		// the error has something left to print.
		if cerr := o.close(); cerr != nil && (err == nil || errors.Is(err, errAlertRaised)) {
			err = cerr
		}
	}()
	top, dps, base, env, err := c.setup()
	if err != nil {
		return err
	}
	o.log.Infof("alert check on %s: phase 1 at fixed peak demand, phase 2 over the envelope (tolerance %.2f)",
		*c.topology, *tolerance)
	rep, err := raha.AlertContext(ctx, raha.AlertConfig{
		Topo:                 top,
		Demands:              dps,
		Peak:                 base.Scale(1.5),
		Envelope:             env,
		ProbThreshold:        *c.threshold,
		Tolerance:            *tolerance,
		MaxFailures:          *c.maxFail,
		ConnectivityEnforced: *c.ce,
		Phase1Budget:         *c.budget,
		Phase2Budget:         *c.budget,
		Workers:              *c.workers,
		Tracer:               o.tracer(),
		OnProgress:           o.solveProgress(),
		Check:                *c.check,
	})
	if err != nil {
		return err
	}
	for phase, res := range []*raha.Result{rep.Phase1, rep.Phase2} {
		phase++
		if res == nil {
			continue
		}
		why := stopReason(ctx, *c.budget, res)
		if why == "" {
			why = "complete"
		}
		o.log.Infof("phase %d: %v (%s), %d nodes in %v, degradation %.1f",
			phase, res.Status, why, res.Nodes, res.Runtime.Round(time.Millisecond), res.Degradation)
	}
	if rep.Raised {
		fmt.Printf("ALERT (phase %d): worst degradation %.3f × mean LAG capacity exceeds tolerance %.3f\n",
			rep.Phase, rep.NormalizedDegradation, *tolerance)
		return errAlertRaised
	}
	fmt.Printf("ok: worst degradation %.3f × mean LAG capacity within tolerance %.3f\n",
		rep.NormalizedDegradation, *tolerance)
	return nil
}
