package main

import (
	"runtime"
	"time"

	"raha"
	"raha/internal/obs"
)

// metricDef is one row of BENCHMARK.json. Bound is set on end-to-end
// metrics only.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// workloadDef is one workload row of BENCHMARK.json.
type workloadDef struct{ Name, Why string }

var workloadDefs = []workloadDef{
	{"uninett_optimal", "variable-demand analyses on Uninett2010 run to proven optimality: a deep tree over a small LP, so milp search and warm dual-simplex re-solves do nearly all the work"},
	{"b4_budget", "the same analysis on B4 stopped by a 1 s budget with the gap still open: wall is pinned, so solver speed shows only as gap closed at the stop"},
	{"africa_fixed", "the fixed-demand alert on AfricaWAN: a big model and a tiny tree, so presolve, the cold root LP and LU factorization dominate and tree search does not"},
	{"fleet_sweep", "one alert sweep over 54 builtin, GML and synthetic topologies on 2 workers: many small cold solves, so parsing, pairs, paths, model build, GC and fan-out show"},
}

func workloadNames() []string {
	out := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		out[i] = w.Name
	}
	return out
}

// endToEnd lists the metrics an operator sees, in BENCHMARK.json order.
// Bounds come from the baseline sets in out/baseline (README, "Bounds").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_wall_s", "s", "lower", 0.25},
	{"cpu_s_per_op", "s", "lower", 0.25},
	{"cells_per_s", "1/s", "higher", 0.25},
	{"gap_closed_frac", "ratio", "higher", 0.15},
	{"degradation_norm", "x_lag_cap", "higher", 0.01},
}

// setupStats is one set-up: its wall time and the reference kernel's time
// around it.
type setupStats struct{ wall, ref time.Duration }

// runData is everything one process measured.
type runData struct {
	refShare float64 // the workload's refShare: how its times are scaled to the nominal machine speed
	setups   []setupStats
	ops      []opStats       // untraced ops: the end-to-end figures come from these
	traced   []opStats       // traced ops (traced runs only)
	refs     []time.Duration // every reference sample of the run
	peakRSS  float64         // MB; 0 when the host does not report it
	tr       *tracing        // nil on untraced runs
	advisory map[string]advisoryValue
}

// passStats is a run's typical pass over the pool, summed over the
// instances. Every pass does the same work, so what differs between two ops
// on one instance is the machine, and its slow phases (a neighbour on the
// shared host) outlast a run: no statistic of the raw times is steady. The
// reference kernel sampled around each op is slowed along with the op, so
// each time is first scaled to the nominal machine speed (atNominal, with
// the workload's refShare) and the median per instance taken. What
// interference costs an op that ends on a timer is gap, so the outcome
// fields are the best of each instance's ops.
type passStats struct {
	instances int
	wall, cpu float64 // seconds
	cells     int     // verified analyses of one pass
	closed    float64 // Σ (1 − gap) of one pass
}

func gatedPass(ops []opStats, share float64) passStats {
	type inst struct {
		wall, cpu []float64
		closed    float64
		cells     int
	}
	byInst := map[int]*inst{}
	for _, op := range ops {
		in := byInst[op.inst]
		if in == nil {
			in = &inst{}
			byInst[op.inst] = in
		}
		in.wall, in.cpu = append(in.wall, atNominal(op.wall, op.ref, share)), append(in.cpu, atNominal(op.cpu, op.ref, share))
		if op.failed == 0 {
			in.cells, in.closed = max(in.cells, op.attempted), max(in.closed, op.closedSum)
		}
	}
	ps := passStats{instances: len(byInst)}
	for _, in := range byInst {
		ps.wall += median(in.wall)
		ps.cpu += median(in.cpu)
		ps.cells += in.cells
		ps.closed += in.closed
	}
	return ps
}

func endToEndValues(rd *runData) map[string]float64 {
	var (
		verified    int
		degradation float64
		setups      []float64
	)
	for _, op := range rd.ops {
		if op.failed == 0 {
			verified += op.attempted
			degradation += op.degSum
		}
	}
	for _, su := range rd.setups {
		setups = append(setups, atNominal(su.wall, su.ref, rd.refShare))
	}
	ps := gatedPass(rd.ops, rd.refShare)
	k := float64(max(1, ps.instances))
	return map[string]float64{
		"setup_s":          median(setups),
		"op_wall_s":        ps.wall / k,
		"cpu_s_per_op":     ps.cpu / k,
		"cells_per_s":      ratio(float64(ps.cells), ps.wall),
		"gap_closed_frac":  ratio(ps.closed, float64(ps.cells)),
		"degradation_norm": ratio(degradation, float64(verified)),
	}
}

// opWallP50 is the median wall time of one op: the median per instance,
// averaged over the instances (they differ in cost), as the clock read it.
// It goes in the record, ungated: it follows the machine's phases.
func opWallP50(ops []opStats) float64 {
	walls := map[int][]float64{}
	for _, op := range ops {
		walls[op.inst] = append(walls[op.inst], op.wall.Seconds())
	}
	var p50 float64
	for _, w := range walls {
		p50 += median(w) / float64(len(walls))
	}
	return p50
}

// perLayer lists the layer metrics of a traced run, in BENCHMARK.json
// order. Every one is a mean per traced op unless its name says otherwise;
// a metric a workload does not exercise reads 0.
var perLayer = []metricDef{
	{Name: "topology.load_s", Unit: "s", Better: "lower"},
	{Name: "topology.gml_parse_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "topology.load_failures", Unit: "count", Better: "lower"},
	{Name: "demand.pairs_s", Unit: "s", Better: "lower"},
	{Name: "demand.pairs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "paths.compute_s", Unit: "s", Better: "lower"},
	{Name: "paths.paths_per_s", Unit: "1/s", Better: "higher"},
	{Name: "paths.demands", Unit: "count", Better: "lower"},
	{Name: "failures.encode_s", Unit: "s", Better: "lower"},
	{Name: "failures.encode_vars", Unit: "count", Better: "lower"},
	{Name: "failures.encode_rows", Unit: "count", Better: "lower"},
	{Name: "te.resim_s", Unit: "s", Better: "lower"},
	{Name: "te.resim_solves", Unit: "count", Better: "lower"},
	{Name: "metaopt.analyze_s", Unit: "s", Better: "lower"},
	{Name: "metaopt.hint_s", Unit: "s", Better: "lower"},
	{Name: "metaopt.solve_s", Unit: "s", Better: "lower"},
	{Name: "metaopt.verify_s", Unit: "s", Better: "lower"},
	{Name: "metaopt.build_self_s", Unit: "s", Better: "lower"},
	{Name: "metaopt.hint_solves", Unit: "count", Better: "lower"},
	{Name: "milp.model_vars", Unit: "count", Better: "lower"},
	{Name: "milp.model_rows", Unit: "count", Better: "lower"},
	{Name: "milp.model_ints", Unit: "count", Better: "lower"},
	{Name: "milp.presolved_vars", Unit: "count", Better: "lower"},
	{Name: "milp.presolved_rows", Unit: "count", Better: "lower"},
	{Name: "milp.presolve_s", Unit: "s", Better: "lower"},
	{Name: "milp.nodes", Unit: "count", Better: "lower"},
	{Name: "milp.nodes_per_s", Unit: "1/s", Better: "higher"},
	{Name: "milp.branch_s", Unit: "s", Better: "lower"},
	{Name: "milp.heur_s", Unit: "s", Better: "lower"},
	{Name: "milp.queue_s", Unit: "s", Better: "lower"},
	{Name: "milp.search_self_s", Unit: "s", Better: "lower"},
	{Name: "milp.prop_prunes", Unit: "count", Better: "higher"},
	{Name: "milp.pruned_bound_frac", Unit: "ratio", Better: "higher"},
	{Name: "milp.iterlimit_prunes", Unit: "count", Better: "lower"},
	{Name: "milp.incumbent_updates", Unit: "count", Better: "lower"},
	{Name: "milp.first_incumbent_s", Unit: "s", Better: "lower"},
	{Name: "milp.primal_dual_integral_s", Unit: "s", Better: "lower"},
	{Name: "lp.solves", Unit: "count", Better: "lower"},
	{Name: "lp.iterations", Unit: "count", Better: "lower"},
	{Name: "lp.iters_per_solve", Unit: "count", Better: "lower"},
	{Name: "lp.warm_s", Unit: "s", Better: "lower"},
	{Name: "lp.cold_s", Unit: "s", Better: "lower"},
	{Name: "lp.warm_ms_per_solve", Unit: "ms", Better: "lower"},
	{Name: "lp.cold_ms_per_solve", Unit: "ms", Better: "lower"},
	{Name: "lp.phase1_iterations", Unit: "count", Better: "lower"},
	{Name: "lp.dual_iterations", Unit: "count", Better: "lower"},
	{Name: "lp.refactorizations", Unit: "count", Better: "lower"},
	{Name: "lp.refactor_per_solve", Unit: "ratio", Better: "lower"},
	{Name: "lp.warm_hit_frac", Unit: "ratio", Better: "higher"},
	{Name: "lp.degenerate_pivot_frac", Unit: "ratio", Better: "lower"},
	{Name: "lp.iteration_limit_hits", Unit: "count", Better: "lower"},
	{Name: "alert.run_s", Unit: "s", Better: "lower"},
	{Name: "alert.phase2_runs", Unit: "count", Better: "lower"},
	{Name: "batch.sweep_s", Unit: "s", Better: "lower"},
	{Name: "batch.cells", Unit: "count", Better: "higher"},
	{Name: "batch.cell_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "batch.cell_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "batch.topo_max_s", Unit: "s", Better: "lower"},
	{Name: "batch.fanout_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "obs.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "obs.events", Unit: "count", Better: "lower"},
	{Name: "obs.op_self_s", Unit: "s", Better: "lower"},
	{Name: "machine.ref_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "machine.alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "machine.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "machine.nproc", Unit: "count", Better: "higher"},
	{Name: "machine.gomaxprocs", Unit: "count", Better: "higher"},
}

// layerAcc sums what the traced ops of a run tell about each layer. Times
// are nanoseconds; perLayerValues divides by the op count.
type layerAcc struct {
	ops int

	pairs                  int // pairs generated inside demand.pairs spans
	pathDemands, pathCount int // inside paths.compute spans
	gmlNs                  time.Duration
	gmlBytes               int
	encodes                int
	encodeVars, encodeRows int
	loadFailures           int
	resimSolves            int

	analyzeNs, hintNs, solveNs, verifyNs time.Duration
	hintSolves                           int

	modelVars, modelRows, modelInts, preVars, preRows float64
	presolveNs, branchNs, heurNs, lpWarmNs, lpColdNs  float64
	firstIncumbent, pdi                               float64

	counters map[string]int64 // obs.Default deltas over traced ops

	alertNs    time.Duration
	phase2Runs int

	cells                      int
	cellP50Ms, cellP99Ms       float64
	topoMaxS, fanoutEfficiency float64
}

func newLayerAcc() *layerAcc {
	return &layerAcc{counters: map[string]int64{}}
}

func (la *layerAcc) addCounters(delta map[string]int64) {
	for k, v := range delta {
		la.counters[k] += v
	}
}

func (la *layerAcc) addPaths(dps []raha.DemandPaths) {
	la.pathDemands += len(dps)
	for _, dp := range dps {
		la.pathCount += len(dp.Paths)
	}
}

func (la *layerAcc) addEncode(vars, rows int) {
	la.encodes++
	la.encodeVars += vars
	la.encodeRows += rows
}

// addAnalysis folds one single-analysis result: the metaopt time split and
// the exact MILP's own phase clocks (hint solves are inside hintNs).
func (la *layerAcc) addAnalysis(res *raha.Result, viaAlert bool) {
	la.analyzeNs += res.Runtime
	la.hintNs += res.HintRuntime
	la.solveNs += res.SolveRuntime
	la.verifyNs += res.VerifyRuntime
	la.presolveNs += float64(res.Stats.PresolveNs)
	la.branchNs += float64(res.Stats.BranchNs)
	la.heurNs += float64(res.Stats.HeurNs)
	la.lpWarmNs += float64(res.Stats.LPWarmNs)
	la.lpColdNs += float64(res.Stats.LPColdNs)
	la.resimSolves += 2
	if viaAlert {
		la.alertNs += res.Runtime
	}
}

// addSolves folds the event log of one op. On the fleet the cells carry no
// Stats, so the phase clocks come from the solve_end events of every solve
// and the model size is the mean over solves; a single analysis reports the
// size of its exact (last) MILP.
func (la *layerAcc) addSolves(st solveTrace, fleet bool) {
	la.hintSolves += st.hints
	if fleet {
		n := float64(max(1, st.solves))
		la.modelVars += st.sumVars / n
		la.modelRows += st.sumRows / n
		la.modelInts += st.sumInt / n
		la.preVars += st.sumPreVars / float64(max(1, st.presolves))
		la.preRows += st.sumPreRows / float64(max(1, st.presolves))
		la.presolveNs += st.presolveNs
		la.branchNs += st.branchNs
		la.heurNs += st.heurNs
		la.lpWarmNs += st.lpWarmNs
		la.lpColdNs += st.lpColdNs
		la.solveNs += time.Duration(st.runtimeNs)
		return
	}
	la.modelVars += st.vars
	la.modelRows += st.rows
	la.modelInts += st.ints
	la.preVars += st.preVars
	la.preRows += st.preRows
	la.firstIncumbent += st.firstIncumbent
	la.pdi += st.pdi
}

// addSweep folds one sweep report. topoRuntimes come from the
// sweep_topo_end events: TopoResult.Runtime reads 0 at the baseline commit.
func (la *layerAcc) addSweep(rep *raha.SweepReport, topoRuntimes []float64, workers int, wall time.Duration) {
	var sum, longest float64
	for _, s := range topoRuntimes {
		sum += s
		longest = max(longest, s)
	}
	la.topoMaxS += longest
	la.fanoutEfficiency += sum / (float64(workers) * wall.Seconds())
	la.cells += rep.CellsTotal
	la.loadFailures += rep.TopoFailed
	la.cellP50Ms += float64(rep.CellLatency.P50Ns) / 1e6
	la.cellP99Ms += float64(rep.CellLatency.P99Ns) / 1e6
	for _, t := range rep.Topologies {
		for _, c := range t.Cells {
			la.alertNs += c.Runtime
			if c.Err == "" && !(c.Raised && c.Phase == 1) {
				la.phase2Runs++
			}
		}
	}
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

func perLayerValues(rd *runData) map[string]float64 {
	la := rd.tr.la
	ops := float64(max(1, la.ops))
	perOp := func(v float64) float64 { return v / ops }
	sec := func(ns float64) float64 { return ns / 1e9 / ops }
	ss := spanStats(rd.tr.rec.spans)
	meanSpan := func(name string) float64 { return ratio(float64(ss[name].ns)/1e9, float64(ss[name].n)) }
	c := func(name string) float64 { return float64(la.counters[name]) }
	hist := func(name string) obs.HistogramSnapshot { return obs.Default.Histogram(name).Snapshot() }
	warm, cold := hist("milp.lp_warm_ns"), hist("milp.lp_cold_ns")
	queue := hist("milp.queue_pop_ns").SumNs + hist("milp.queue_push_ns").SumNs

	sk := rd.tr.sink
	solveNs := float64(la.solveNs)
	lpNs := la.lpWarmNs + la.lpColdNs
	var alloc uint64
	for _, op := range rd.ops {
		alloc += op.allocBytes
	}

	return map[string]float64{
		"topology.load_s":             meanSpan("topology.load"),
		"topology.gml_parse_mb_per_s": ratio(float64(la.gmlBytes)/1e6, la.gmlNs.Seconds()),
		"topology.load_failures":      perOp(float64(la.loadFailures)),
		"demand.pairs_s":              meanSpan("demand.pairs"),
		"demand.pairs_per_s":          ratio(float64(la.pairs), float64(ss["demand.pairs"].ns)/1e9),
		"paths.compute_s":             sec(float64(ss["paths.compute"].ns)),
		"paths.paths_per_s":           ratio(float64(la.pathCount), float64(ss["paths.compute"].ns)/1e9),
		"paths.demands":               perOp(float64(la.pathDemands)),
		"failures.encode_s":           meanSpan("failures.encode"),
		"failures.encode_vars":        ratio(float64(la.encodeVars), float64(la.encodes)),
		"failures.encode_rows":        ratio(float64(la.encodeRows), float64(la.encodes)),
		"te.resim_s":                  sec(float64(ss["te.resim"].ns)),
		"te.resim_solves":             perOp(float64(la.resimSolves)),

		"metaopt.analyze_s":    sec(float64(la.analyzeNs)),
		"metaopt.hint_s":       sec(float64(la.hintNs)),
		"metaopt.solve_s":      sec(solveNs),
		"metaopt.verify_s":     sec(float64(la.verifyNs)),
		"metaopt.build_self_s": sec(max(0, float64(la.analyzeNs-la.hintNs-la.verifyNs)-solveNs)),
		"metaopt.hint_solves":  perOp(float64(la.hintSolves)),

		"milp.model_vars":             perOp(la.modelVars),
		"milp.model_rows":             perOp(la.modelRows),
		"milp.model_ints":             perOp(la.modelInts),
		"milp.presolved_vars":         perOp(la.preVars),
		"milp.presolved_rows":         perOp(la.preRows),
		"milp.presolve_s":             sec(la.presolveNs),
		"milp.nodes":                  perOp(c("milp.nodes")),
		"milp.nodes_per_s":            ratio(c("milp.nodes"), solveNs/1e9),
		"milp.branch_s":               sec(la.branchNs),
		"milp.heur_s":                 sec(la.heurNs),
		"milp.queue_s":                sec(float64(queue)),
		"milp.search_self_s":          sec(max(0, solveNs-lpNs-la.presolveNs-la.heurNs-la.branchNs)),
		"milp.prop_prunes":            perOp(c("milp.propagation_prunes")),
		"milp.pruned_bound_frac":      ratio(float64(sk.prunedBound.Load()), float64(sk.nodes.Load())),
		"milp.iterlimit_prunes":       perOp(float64(sk.prunedIterLimit.Load())),
		"milp.incumbent_updates":      perOp(c("milp.incumbents")),
		"milp.first_incumbent_s":      perOp(la.firstIncumbent),
		"milp.primal_dual_integral_s": perOp(la.pdi),

		"lp.solves":                perOp(c("lp.solves")),
		"lp.iterations":            perOp(c("lp.iterations")),
		"lp.iters_per_solve":       ratio(c("lp.iterations"), c("lp.solves")),
		"lp.warm_s":                sec(float64(warm.SumNs)),
		"lp.cold_s":                sec(float64(cold.SumNs)),
		"lp.warm_ms_per_solve":     ratio(float64(warm.SumNs)/1e6, float64(warm.Count)),
		"lp.cold_ms_per_solve":     ratio(float64(cold.SumNs)/1e6, float64(cold.Count)),
		"lp.phase1_iterations":     perOp(c("lp.phase1_iterations")),
		"lp.dual_iterations":       perOp(c("lp.dual_iterations")),
		"lp.refactorizations":      perOp(c("lp.refactorizations")),
		"lp.refactor_per_solve":    ratio(c("lp.refactorizations"), c("lp.solves")),
		"lp.warm_hit_frac":         ratio(c("milp.warm_starts"), c("milp.warm_starts")+c("milp.cold_fallbacks")),
		"lp.degenerate_pivot_frac": ratio(c("lp.degenerate_pivots"), c("lp.iterations")),
		"lp.iteration_limit_hits":  perOp(c("lp.iteration_limit")),

		"alert.run_s":       sec(float64(la.alertNs)),
		"alert.phase2_runs": perOp(float64(la.phase2Runs)),

		"batch.sweep_s":           sec(float64(ss["batch.sweep"].ns)),
		"batch.cells":             perOp(float64(la.cells)),
		"batch.cell_p50_ms":       perOp(la.cellP50Ms),
		"batch.cell_p99_ms":       perOp(la.cellP99Ms),
		"batch.topo_max_s":        perOp(la.topoMaxS),
		"batch.fanout_efficiency": perOp(la.fanoutEfficiency),

		"obs.trace_overhead_ratio": ratio(gatedPass(rd.traced, rd.refShare).wall, gatedPass(rd.ops, rd.refShare).wall),
		"obs.events":               perOp(float64(sk.total.Load())),
		"obs.op_self_s":            sec(float64(ss["op"].ns)),

		"machine.ref_ms_p50":      median(seconds(rd.refs)) * 1e3,
		"machine.alloc_mb_per_op": ratio(float64(alloc)/1e6, float64(len(rd.ops))),
		"machine.peak_rss_mb":     rd.peakRSS,
		"machine.nproc":           float64(runtime.NumCPU()),
		"machine.gomaxprocs":      float64(runtime.GOMAXPROCS(0)),
	}
}
