package batch

import (
	"context"
	"fmt"
	"math"
	"time"

	"raha/internal/alert"
	"raha/internal/conc"
	"raha/internal/demand"
	"raha/internal/metaopt"
	"raha/internal/milp"
	"raha/internal/obs"
	"raha/internal/paths"
	"raha/internal/topology"
)

// Process-wide sweep counters (obs.Default, exported through expvar as
// "raha" by internal/obs).
var (
	cTopologies = obs.Default.Counter("batch.topologies")
	cCells      = obs.Default.Counter("batch.cells")
	cFailures   = obs.Default.Counter("batch.failures")
)

// minPhaseBudget floors the per-phase solver time limit carved out of a
// per-topology budget, so a dense grid cannot starve every cell into
// returning nothing at all.
const minPhaseBudget = 50 * time.Millisecond

// Config parameterizes a fleet sweep.
type Config struct {
	// Sources are the topologies to sweep, in shard-stable order.
	Sources []Source
	// Grid is the per-topology cell matrix. A zero value is DefaultGrid.
	Grid Grid

	// Tolerance is the alert pain threshold (normalized by mean LAG
	// capacity) applied to every cell.
	Tolerance float64

	ConnectivityEnforced bool
	QuantBits            int

	// BudgetPerTopo caps the wall-clock spent on one topology's whole
	// grid; the per-phase solver limit is BudgetPerTopo/(2·cells), floored
	// at 50ms. Zero means no limit.
	BudgetPerTopo time.Duration

	// Workers is the sweep's worker budget (< 1 = all cores), split over
	// the shard's source count by conc.Split: a fleet-sized sweep runs
	// Workers topologies at once with serial solves (N topologies × serial
	// solves beats 1 solve × N workers — DESIGN.md §2.14), while a source
	// list shorter than the budget routes the leftover workers inside each
	// solve. The split is emitted as a "parallelism" trace event.
	Workers int

	// Shard/NumShards select a 1-based slice of the fleet: shard i of M
	// sweeps the sources whose index ≡ i−1 (mod M). Zero values sweep
	// everything.
	Shard, NumShards int

	// Seed drives the gravity demand models (0 defaults to 1).
	Seed int64

	// Check runs the static model checker before every solve; an
	// error-severity diagnostic becomes that cell's recorded failure.
	Check bool

	// Tracer receives sweep_topo_start/sweep_topo_end events plus
	// everything the per-cell solves emit. May be nil.
	Tracer obs.Tracer

	// OnTopoDone, when non-nil, is called as each topology finishes (from
	// sweep worker goroutines — must be safe for concurrent use).
	OnTopoDone func(TopoResult)
}

func (cfg *Config) validate() error {
	if len(cfg.Sources) == 0 {
		return fmt.Errorf("batch: sweep needs at least one topology source")
	}
	if cfg.Tolerance < 0 {
		return fmt.Errorf("batch: negative tolerance %g", cfg.Tolerance)
	}
	if math.IsNaN(cfg.Tolerance) {
		return fmt.Errorf("batch: tolerance is NaN")
	}
	if cfg.NumShards < 0 || cfg.Shard < 0 {
		return fmt.Errorf("batch: negative shard selector %d/%d", cfg.Shard, cfg.NumShards)
	}
	if (cfg.NumShards == 0) != (cfg.Shard == 0) {
		return fmt.Errorf("batch: shard selector needs both N and M (got %d/%d)", cfg.Shard, cfg.NumShards)
	}
	if cfg.NumShards > 0 && cfg.Shard > cfg.NumShards {
		return fmt.Errorf("batch: shard %d of %d does not exist", cfg.Shard, cfg.NumShards)
	}
	return nil
}

// shardSources returns the sources this shard owns.
func shardSources(sources []Source, shard, numShards int) []Source {
	if numShards <= 1 {
		return sources
	}
	var out []Source
	for i, s := range sources {
		if i%numShards == shard-1 {
			out = append(out, s)
		}
	}
	return out
}

// Run sweeps the configured fleet. Per-topology failures (load errors,
// solver errors, panics, invariant violations, budget exhaustion) are
// recorded in the report and never abort the sweep; the only error returns
// are configuration mistakes. Cancelling ctx stops scheduling new work and
// returns the partial report with Cancelled set — also without error.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	grid := cfg.Grid
	if len(grid.MaxFailures) == 0 && len(grid.Thresholds) == 0 && len(grid.Demands) == 0 {
		grid = DefaultGrid()
	}
	if err := grid.validate(); err != nil {
		return nil, err
	}
	cells := grid.Cells()
	sources := shardSources(cfg.Sources, cfg.Shard, cfg.NumShards)

	// Spend the worker budget at the tier that has the independent work:
	// across topologies when the shard is wide, inside each solve when it
	// is not.
	fanout, perSolve := conc.Split(cfg.Workers, len(sources))
	if tr := cfg.Tracer; tr != nil {
		tr.Emit("batch", "parallelism", obs.F{
			"units":          len(sources),
			"fanout":         fanout,
			"solver_workers": perSolve,
		})
	}

	start := time.Now()
	results := make([]TopoResult, len(sources))
	// Errors never propagate out of the per-topology fn, so ForEach can
	// only stop early on ctx cancellation; the zero-valued slots left
	// behind are marked skipped below.
	_ = conc.ForEach(ctx, len(sources), fanout, func(ctx context.Context, i int) error {
		results[i] = runTopology(ctx, &cfg, sources[i], cells, perSolve)
		if cfg.OnTopoDone != nil {
			cfg.OnTopoDone(results[i])
		}
		return nil
	})
	for i := range results {
		if results[i].Name == "" { // never started: cancelled before its turn
			results[i] = TopoResult{
				Name:    sources[i].Name,
				Kind:    sources[i].Kind,
				Skipped: true,
				Err:     "sweep cancelled before this topology started",
			}
		}
	}
	return assembleReport(&cfg, results, time.Since(start), ctx.Err() != nil), nil
}

// runTopology loads one source and runs the full grid on it under the
// per-topology budget, each solve width workers wide. Every failure mode
// lands in the returned TopoResult.
func runTopology(ctx context.Context, cfg *Config, src Source, cells []Cell, width int) (res TopoResult) {
	res = TopoResult{Name: src.Name, Kind: src.Kind}
	if tr := cfg.Tracer; tr != nil {
		tr.Emit("batch", "sweep_topo_start", obs.F{
			"topology": src.Name,
			"kind":     src.Kind,
			"cells":    len(cells),
		})
	}
	start := time.Now()
	defer func() {
		res.Runtime = time.Since(start)
		cTopologies.Inc()
		if tr := cfg.Tracer; tr != nil {
			ok, failed, closed, byNeighbour := res.cellCounts()
			tr.Emit("batch", "sweep_topo_end", obs.F{
				"topology":                  src.Name,
				"cells_ok":                  ok,
				"cells_failed":              failed,
				"cells_closed_by_bound":     closed,
				"cells_closed_by_neighbour": byNeighbour,
				"worst":                     res.WorstNormalized,
				"failed":                    res.Err != "",
				"runtime_s":                 res.Runtime.Seconds(),
			})
		}
	}()

	top, err := loadSource(src)
	if err != nil {
		res.Err = err.Error()
		cFailures.Inc()
		return res
	}
	res.Nodes, res.LAGs, res.Links = top.NumNodes(), top.NumLAGs(), top.NumLinks()
	if !top.Connected() {
		res.Err = "topology is not connected"
		cFailures.Inc()
		return res
	}
	if top.MeanLAGCapacity() <= 0 {
		res.Err = "topology has no capacity"
		cFailures.Inc()
		return res
	}

	topoCtx := ctx
	var phaseBudget time.Duration
	if cfg.BudgetPerTopo > 0 {
		var cancel context.CancelFunc
		topoCtx, cancel = context.WithTimeout(ctx, cfg.BudgetPerTopo)
		defer cancel()
		phaseBudget = cfg.BudgetPerTopo / time.Duration(2*len(cells))
		if phaseBudget < minPhaseBudget {
			phaseBudget = minPhaseBudget
		}
	}

	// The pair selection and the tunnels over it depend on the topology, the
	// seed and the model's pair count only, so cells share them instead of
	// re-ranking all n·(n−1) pairs and re-running Yen's algorithm each. They
	// share what their phases proved too, so the cells are solved loosest
	// first and reported in grid order.
	memo := newTopoMemo(src.Name)
	res.Cells = make([]CellResult, len(cells))
	for _, i := range solveOrder(cells) {
		cell := cells[i]
		var cr CellResult
		switch {
		case ctx.Err() != nil:
			cr = CellResult{Cell: cell, Err: "sweep cancelled"}
		case topoCtx.Err() != nil:
			cr = CellResult{Cell: cell, Err: "topology budget exhausted"}
		default:
			cr = runCell(topoCtx, cfg, top, cell, phaseBudget, width, memo)
		}
		cCells.Inc()
		if cr.Err != "" {
			cFailures.Inc()
		}
		res.Cells[i] = cr
	}
	for _, cr := range res.Cells {
		if cr.Err == "" && (cr.Normalized > res.WorstNormalized || res.WorstCell == "") {
			res.WorstNormalized = cr.Normalized
			res.WorstCell = cr.Name()
			res.WorstPhase = cr.Phase
			res.WorstRaised = cr.Raised
		}
	}
	return res
}

// loadSource runs the source's loader with panic isolation: a panicking
// loader (or generator) becomes a load error, not a dead sweep.
func loadSource(src Source) (top *topology.Topology, err error) {
	defer func() {
		if p := recover(); p != nil {
			top, err = nil, fmt.Errorf("load panicked: %v", p)
		}
	}()
	top, err = src.Load()
	if err == nil && top == nil {
		err = fmt.Errorf("loader returned no topology")
	}
	return top, err
}

// tunnels is what one topology's cells share per demand-pair count: the
// demand.TopPairs selection and the paths.Compute tunnels over it (two
// primary, one backup), or the error computing them gave. alert.Run and the
// model builders under it only read both (TestSweepFixtureCorpus compares
// the cache against a fresh Compute after a whole grid has used it).
type tunnels struct {
	pairs [][2]topology.Node
	dps   []paths.DemandPaths
	err   error
}

// runCell runs the two-phase alert check for one grid cell and self-checks
// the result's invariants. Panics anywhere below (path computation, model
// build, solver, verification) are caught and recorded as the cell's
// failure. memo holds what the topology's cells share: its tunnels, keyed by
// pair count — a computation that panics caches nothing, so every cell
// reports it — and the phases they have solved, which answer or seed this
// cell's (topoMemo.solve).
func runCell(ctx context.Context, cfg *Config, top *topology.Topology, cell Cell, phaseBudget time.Duration, width int, memo *topoMemo) (cr CellResult) {
	cr.Cell = cell
	start := time.Now()
	defer func() {
		cr.Runtime = time.Since(start)
		if p := recover(); p != nil {
			cr.Err = fmt.Sprintf("panic: %v", p)
		}
	}()

	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	dm := cell.Demand
	tn, ok := memo.tunnels[dm.Pairs]
	if !ok {
		tn.pairs = demand.TopPairs(top, dm.Pairs, seed)
		if len(tn.pairs) > 0 {
			tn.dps, tn.err = paths.Compute(top, tn.pairs, 2, 1, nil)
		}
		memo.tunnels[dm.Pairs] = tn
	}
	pairs, dps := tn.pairs, tn.dps
	if len(pairs) == 0 {
		cr.Err = "no demand pairs"
		return cr
	}
	if tn.err != nil {
		cr.Err = tn.err.Error()
		return cr
	}
	base := demand.Gravity(top, pairs, top.MeanLAGCapacity()*dm.Scale, seed)
	pf := dm.PeakFactor
	if pf <= 0 {
		pf = 1.5
	}
	peak := base.Scale(pf)
	env := demand.Fixed(base)
	if dm.Slack >= 0 {
		env = demand.UpTo(base, dm.Slack)
	}

	acfg := alert.Config{
		Topo:                 top,
		Demands:              dps,
		Peak:                 peak,
		Envelope:             env,
		ProbThreshold:        cell.Threshold,
		Tolerance:            cfg.Tolerance,
		MaxFailures:          cell.MaxFailures,
		ConnectivityEnforced: cfg.ConnectivityEnforced,
		QuantBits:            cfg.QuantBits,
		Phase1Budget:         phaseBudget,
		Phase2Budget:         phaseBudget,
		Workers:              width,
		Tracer:               cfg.Tracer,
		Check:                cfg.Check,
	}
	var reused [2]bool // per phase: answered by an earlier cell's proof
	phase := 0
	rep, err := alert.RunWith(ctx, acfg, func(ctx context.Context, q metaopt.Config) (*metaopt.Result, error) {
		res, from, err := memo.solve(ctx, cell, q)
		phase++
		if from != nil {
			reused[phase-1] = true
			if tr := cfg.Tracer; tr != nil {
				tr.Emit("batch", "phase_reused", obs.F{
					"topology": memo.name,
					"cell":     cell.Name(),
					"phase":    phase,
					"from":     from.cell.Name(),
				})
			}
		}
		return res, err
	})
	if err != nil {
		cr.Err = err.Error()
		return cr
	}

	cr.Raised = rep.Raised
	cr.Phase = rep.Phase
	cr.Normalized = rep.NormalizedDegradation
	cr.ClosedByBound = true
	closed := true // every phase was reused or ended by a bound
	for i, p := range []*metaopt.Result{rep.Phase1, rep.Phase2} {
		if p == nil {
			continue
		}
		// A reused phase's search was the earlier cell's, and counted there.
		if !reused[i] {
			cr.NodesExplored += int64(p.Nodes)
			cr.LPSolves += p.Stats.LPSolves
		}
		cr.Status = p.Status.String()
		cr.ClosedByBound = cr.ClosedByBound && p.ClosedByBound
		// Solver.Bound drained the search: the knapsack's bound, or the looser
		// neighbours' where that was tighter — the only other bound a sweep
		// hands a solve. ClosedByBound alone also covers the knapsack closing
		// the analysis before any search.
		drained := p.Status == milp.Optimal && p.Stats.BoundPrunes > 0
		closed = closed && (reused[i] || drained || p.ClosedByBound)
	}
	cr.ClosedByNeighbour = closed && !cr.ClosedByBound
	if err := checkCell(top, &acfg, rep); err != nil {
		cr.Err = "invariant: " + err.Error()
	}
	return cr
}

// checkCell asserts the self-checking harness's three invariant families on
// one finished cell; any violation is the cell's recorded failure.
//
//  1. Node accounting: every explored branch-and-bound node of each phase
//     must land in exactly one outcome counter, and LP solves must cover
//     the nodes (the same invariant internal/milp's tests pin, here
//     re-checked on every fleet topology — the sweep doubles as a fuzzer
//     for presolve/propagation/warm-start paths).
//  2. Postsolve round-trip: the returned demands must lie inside the
//     phase's envelope and the scenario must be shaped like the topology —
//     presolve's postsolve map must have restored the original space.
//  3. Alert consistency: Raised ⇔ NormalizedDegradation > Tolerance, the
//     raising phase is recorded, and a phase-1 alert skips phase 2.
func checkCell(top *topology.Topology, acfg *alert.Config, rep *alert.Report) error {
	// (3) Alert consistency.
	if rep.Raised != (rep.NormalizedDegradation > acfg.Tolerance) {
		return fmt.Errorf("raised=%v inconsistent with normalized %g vs tolerance %g",
			rep.Raised, rep.NormalizedDegradation, acfg.Tolerance)
	}
	switch {
	case rep.Raised && rep.Phase != 1 && rep.Phase != 2:
		return fmt.Errorf("raised with phase %d", rep.Phase)
	case !rep.Raised && rep.Phase != 0:
		return fmt.Errorf("not raised but phase %d", rep.Phase)
	case rep.Raised && rep.Phase == 1 && rep.Phase2 != nil:
		return fmt.Errorf("phase 1 raised but phase 2 ran anyway")
	case rep.Phase1 == nil:
		return fmt.Errorf("phase 1 result missing")
	}
	if math.IsNaN(rep.NormalizedDegradation) || math.IsInf(rep.NormalizedDegradation, 0) {
		return fmt.Errorf("normalized degradation %g is not finite", rep.NormalizedDegradation)
	}

	p1env, p2env := acfg.PhaseEnvelopes()
	if err := checkPhase(top, rep.Phase1, p1env); err != nil {
		return fmt.Errorf("phase 1: %w", err)
	}
	if err := checkPhase(top, rep.Phase2, p2env); err != nil {
		return fmt.Errorf("phase 2: %w", err)
	}
	return nil
}

func checkPhase(top *topology.Topology, res *metaopt.Result, env demand.Envelope) error {
	if res == nil {
		return nil
	}
	// (1) Node accounting.
	st := res.Stats
	outcomes := st.NodesBranched + st.PrunedInfeasible + st.PrunedBound +
		st.PrunedIterLimit + st.Integral + st.UnboundedNodes
	if outcomes != int64(res.Nodes) {
		return fmt.Errorf("node accounting: outcome sum %d != nodes %d (%+v)", outcomes, res.Nodes, st)
	}
	if st.LPSolves < int64(res.Nodes) {
		return fmt.Errorf("node accounting: %d LP solves < %d nodes", st.LPSolves, res.Nodes)
	}
	if st.WarmStarts+st.ColdFallbacks > st.LPSolves {
		return fmt.Errorf("node accounting: warm %d + cold %d > LP solves %d", st.WarmStarts, st.ColdFallbacks, st.LPSolves)
	}
	if res.Scenario == nil {
		return nil // limit hit before any incumbent: nothing to round-trip
	}

	// (2) Postsolve round-trip.
	if math.IsNaN(res.Degradation) || res.Degradation < -1e-6 {
		return fmt.Errorf("degradation %g out of range", res.Degradation)
	}
	if len(res.Demands) != len(env.Lo) {
		return fmt.Errorf("postsolve: %d demands for a %d-demand envelope", len(res.Demands), len(env.Lo))
	}
	for k, d := range res.Demands {
		tol := 1e-6 * (1 + math.Abs(env.Hi[k]))
		if d < env.Lo[k]-tol || d > env.Hi[k]+tol {
			return fmt.Errorf("postsolve: demand %d = %g outside envelope [%g, %g]", k, d, env.Lo[k], env.Hi[k])
		}
	}
	if got := len(res.Scenario.LinkDown); got != top.NumLAGs() {
		return fmt.Errorf("postsolve: scenario covers %d LAGs, topology has %d", got, top.NumLAGs())
	}
	for e := range res.Scenario.LinkDown {
		if got, want := len(res.Scenario.LinkDown[e]), len(top.LAG(e).Links); got != want {
			return fmt.Errorf("postsolve: scenario LAG %d has %d links, topology has %d", e, got, want)
		}
	}
	return nil
}
