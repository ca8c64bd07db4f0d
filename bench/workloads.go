package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"raha"
	"raha/internal/failures"
	"raha/internal/milp"
	"raha/internal/obs"
)

// probThreshold is the scenario probability floor of every analysis here.
const probThreshold = 1e-4

// alertTolerance is the operator's pain threshold (× mean LAG capacity).
const alertTolerance = 0.5

// zooDir holds the GML fixtures fleet_sweep parses, relative to the
// repository root (the benchmark's working directory).
const zooDir = "internal/topology/testdata"

// opStats is what one op (the operator-visible unit: paths → analysis →
// verified result) reports. Analyses are counted individually so that a
// sweep's cells weigh the same as single analyses.
type opStats struct {
	inst       int // which instance of the pool
	wall, cpu  time.Duration
	ref        time.Duration // the reference kernel's time around the op (measure sets it)
	allocBytes uint64
	attempted  int // analyses attempted (cells on fleet_sweep)
	failed     int // errored, failed the oracle, or missed a pinned answer
	proved     int // ended optimal or infeasible
	closedSum  float64
	degSum     float64 // Σ verified degradation / mean LAG capacity
	nodes      int64   // milp.nodes delta over the op: repeats exactly at Workers 1
	lpIters    int64   // lp.iterations delta, likewise
	errs       []string
}

func (s *opStats) fail(format string, args ...any) {
	s.errs = append(s.errs, fmt.Sprintf(format, args...))
}

// meter brackets the timed part of an op.
type meter struct {
	start   time.Time
	cpu     time.Duration
	alloc   uint64
	counter map[string]int64
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{counter: obs.Default.Snapshot(), alloc: ms.TotalAlloc, cpu: cpuTime(), start: time.Now()}
}

// stop fills the timing fields of st and returns the obs counter deltas.
func (m meter) stop(st *opStats) map[string]int64 {
	st.wall = time.Since(m.start)
	st.cpu = cpuTime() - m.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st.allocBytes = ms.TotalAlloc - m.alloc
	delta := obs.Default.Snapshot()
	for k, v := range m.counter {
		delta[k] -= v
	}
	st.nodes, st.lpIters = delta["milp.nodes"], delta["lp.iterations"]
	return delta
}

// workload is one closed-loop client's job. setup builds the inputs and
// runs one untimed warm-up op; op runs instance i (0 ≤ i < instances()).
type workload interface {
	setup(tr *tracing) error
	instances() int
	// refShare is how much of the reference kernel's slow-down this
	// workload's ops share, as an exponent (atNominal): the slope of log op
	// time on log kernel time across the machine's phases, measured once
	// (README, "Times at the nominal machine speed"). 0 where an op ends on
	// a timer and so takes the same time on any machine.
	refShare() float64
	op(i int, tr *tracing) opStats
	// probe runs the direct layer calls a traced pass adds for instance i
	// (outside any op): failures.Encode, and on the fleet the loaders.
	probe(i int, tr *tracing)
	// advisory returns figures the host may be unable to measure.
	advisory() map[string]advisoryValue
}

// analysisSpec describes a pool of single-topology analyses: one instance
// per generator seed, all with the same shape.
type analysisSpec struct {
	topo    func() *raha.Topology
	pairs   int
	seeds   []int64 // TopPairs and Gravity seed of each instance
	primary int     // primary paths per pair (plus one backup)

	// Variable-demand analysis: raha.Analyze over UpTo(gravity, slack).
	slack     float64
	quantBits int
	timeLimit time.Duration

	// Fixed-demand alert: raha.Alert at peak = gravity × peakFactor. Zero
	// selects the variable-demand analysis above.
	peakFactor float64

	// share is the workload's refShare: 0 with a timeLimit.
	share float64

	// exhaustive workloads must end Optimal; pins, when set, are the
	// verified degradations (× mean LAG capacity) the instances must hit.
	exhaustive bool
	pins       []float64
	pinTol     float64

	// tamper, when set, edits each result before the oracle sees it
	// (tests only: proves a wrong answer is counted as failed).
	tamper func(*raha.Result)
}

type instance struct {
	top   *raha.Topology
	pairs [][2]raha.Node
	base  raha.Matrix
}

type analysisWorkload struct {
	analysisSpec
	inst []instance
}

func (w *analysisWorkload) instances() int { return len(w.seeds) }

func (w *analysisWorkload) refShare() float64 { return w.share }

func (w *analysisWorkload) setup(tr *tracing) error {
	rec := tr.recorder()
	w.inst = w.inst[:0]
	for _, seed := range w.seeds {
		sp := rec.begin("topology.load")
		top := w.topo()
		rec.end(sp)
		sp = rec.begin("demand.pairs")
		pairs := raha.TopPairs(top, w.pairs, seed)
		base := raha.Gravity(top, pairs, top.MeanLAGCapacity(), seed)
		rec.end(sp)
		if tr != nil {
			tr.la.pairs += len(pairs)
		}
		w.inst = append(w.inst, instance{top: top, pairs: pairs, base: base})
	}
	if st := w.op(0, nil); st.failed > 0 {
		return fmt.Errorf("warm-up op failed: %s", strings.Join(st.errs, "; "))
	}
	return nil
}

func (w *analysisWorkload) op(i int, tr *tracing) opStats {
	in := w.inst[i]
	rec := tr.recorder()
	st := opStats{inst: i, attempted: 1}
	var (
		res *raha.Result
		env raha.Envelope
	)
	from := tr.mark()
	m := startMeter()
	opSpan := rec.begin("op")
	sp := rec.begin("paths.compute")
	dps, err := raha.ComputePaths(in.top, in.pairs, w.primary, 1, nil)
	rec.end(sp)
	if err == nil {
		if w.peakFactor > 0 {
			res, env, err = w.alert(in, dps, tr)
		} else {
			res, env, err = w.analyze(in, dps, tr)
		}
	}
	rec.end(opSpan)
	delta := m.stop(&st)

	norm := in.top.MeanLAGCapacity()
	if err == nil && w.tamper != nil {
		w.tamper(res)
	}
	if err == nil {
		err = oracle{top: in.top, dps: dps, env: env, threshold: probThreshold}.check(res, rec)
	}
	switch {
	case err != nil:
		st.fail("instance %d: %v", i, err)
	case w.exhaustive && res.Status != raha.StatusOptimal:
		st.fail("instance %d: ended %v, want optimal", i, res.Status)
	case w.pins != nil && math.Abs(res.Degradation/norm-w.pins[i]) > w.pinTol*w.pins[i]:
		st.fail("instance %d: degradation %.6f × mean LAG capacity, pinned %.4f", i, res.Degradation/norm, w.pins[i])
	}
	if len(st.errs) > 0 {
		st.failed = 1
		return st
	}
	if res.Status == raha.StatusOptimal || res.Status == raha.StatusInfeasible {
		st.proved = 1
	}
	st.closedSum = 1 - math.Min(1, res.Gap)
	st.degSum = res.Degradation / norm
	if tr != nil {
		tr.la.ops++
		tr.la.addPaths(dps)
		tr.la.addAnalysis(res, w.peakFactor > 0)
		tr.la.addCounters(delta)
		tr.la.addSolves(readSolves(tr.sink.cut(from)), false)
	}
	return st
}

func (w *analysisWorkload) config(in instance, dps []raha.DemandPaths, workers int) raha.Config {
	return raha.Config{
		Topo:          in.top,
		Demands:       dps,
		Envelope:      raha.UpTo(in.base, w.slack),
		QuantBits:     w.quantBits,
		ProbThreshold: probThreshold,
		Solver:        raha.SolverParams{Workers: workers, TimeLimit: w.timeLimit},
	}
}

func (w *analysisWorkload) analyze(in instance, dps []raha.DemandPaths, tr *tracing) (*raha.Result, raha.Envelope, error) {
	cfg := w.config(in, dps, 1)
	if tr != nil {
		cfg.Solver.Tracer = tr.sink
		cfg.Solver.OnProgress = tr.sink.progress
		cfg.Solver.ProgressEvery = 50 * time.Millisecond
	}
	sp := tr.recorder().begin("metaopt.analyze")
	res, err := raha.Analyze(cfg)
	tr.recorder().end(sp)
	return res, cfg.Envelope, err
}

// alert runs the two-phase check and returns phase 1's result: every
// instance is sized so that phase 1 raises and phase 2 is skipped.
func (w *analysisWorkload) alert(in instance, dps []raha.DemandPaths, tr *tracing) (*raha.Result, raha.Envelope, error) {
	peak := in.base.Scale(w.peakFactor)
	cfg := raha.AlertConfig{
		Topo:          in.top,
		Demands:       dps,
		Peak:          peak,
		ProbThreshold: probThreshold,
		Tolerance:     alertTolerance,
		Workers:       1,
	}
	if tr != nil {
		cfg.Tracer = tr.sink
		cfg.OnProgress = tr.sink.progress
	}
	sp := tr.recorder().begin("alert.run")
	rep, err := raha.Alert(cfg)
	tr.recorder().end(sp)
	if err != nil {
		return nil, raha.Envelope{}, err
	}
	if !rep.Raised || rep.Phase != 1 || rep.Phase2 != nil {
		return nil, raha.Envelope{}, fmt.Errorf("alert did not raise in phase 1 (raised %v, phase %d)", rep.Raised, rep.Phase)
	}
	return rep.Phase1, raha.Fixed(peak), nil
}

func (w *analysisWorkload) probe(i int, tr *tracing) {
	in := w.inst[i]
	dps, err := raha.ComputePaths(in.top, in.pairs, w.primary, 1, nil)
	if err != nil {
		return // the op on this instance reports the same error
	}
	tr.la.addEncode(encodeProbe(in.top, dps, tr.rec))
}

// advisory measures the two-worker scaling of the tree search on the
// first instance of a variable-demand pool.
func (w *analysisWorkload) advisory() map[string]advisoryValue {
	if !w.exhaustive || w.peakFactor > 0 {
		return nil
	}
	in := w.inst[0]
	return map[string]advisoryValue{"milp.node_throughput_w2": scalingProbe(func(workers int) (float64, error) {
		dps, err := raha.ComputePaths(in.top, in.pairs, w.primary, 1, nil)
		if err != nil {
			return 0, err
		}
		res, err := raha.Analyze(w.config(in, dps, workers))
		if err != nil {
			return 0, err
		}
		return ratio(float64(res.Nodes), res.SolveRuntime.Seconds()), nil
	})}
}

// encodeProbe calls the failures layer directly: the §5 encoding plus the
// probability budget on an empty model, as metaopt does at the start of
// every build.
func encodeProbe(top *raha.Topology, dps []raha.DemandPaths, rec *recorder) (vars, rows int) {
	sp := rec.begin("failures.encode")
	m := milp.NewModel()
	enc := failures.Encode(m, top, dps)
	err := enc.AddProbabilityThreshold(m, probThreshold, true)
	rec.end(sp)
	if err != nil {
		return 0, 0
	}
	return m.NumVars(), m.NumConstraints()
}

// fleetWorkload is one raha.Sweep per op over builtin, GML and synthetic
// topologies. Its single instance is the fleet; the seed shuffles the order
// the sources are handed to the sweep in.
type fleetWorkload struct {
	builtins  []raha.SweepSource
	synthetic []raha.SweepSource
	rng       *rand.Rand
	workers   int
	budget    time.Duration

	sources []raha.SweepSource // builtins + GML files + synthetic

	pin *fleetPin // nil = no pinned outcome
}

// fleetPin is the sweep outcome the default fleet must reproduce.
type fleetPin struct {
	cellsOK, optimal, infeasible int
	rankHead                     string
	degradation                  float64 // mean normalized, over OK cells
}

// poisoned names the two GML fixtures that must fail to load.
var poisoned = map[string]bool{"dupid": true, "isolated": true}

func (w *fleetWorkload) instances() int { return 1 }

// Two workers, 1.35 GB allocated per op and thousands of tiny LPs: the fleet
// shares two thirds of the slow-down of the one-thread kernel.
func (w *fleetWorkload) refShare() float64 { return 0.65 }

func (w *fleetWorkload) advisory() map[string]advisoryValue { return nil }

func (w *fleetWorkload) setup(_ *tracing) error {
	zoo, err := raha.SweepZooDir(zooDir)
	if err != nil {
		return err
	}
	w.sources = append(append(append([]raha.SweepSource(nil), w.builtins...), zoo...), w.synthetic...)
	// Warm-up: the GML files only, not the whole fleet.
	rep, err := raha.Sweep(w.config(zoo, nil))
	if err != nil {
		return err
	}
	if rep.CellsFailed > 0 {
		return fmt.Errorf("warm-up sweep: %d cells failed", rep.CellsFailed)
	}
	return nil
}

func (w *fleetWorkload) config(sources []raha.SweepSource, tr *tracing) raha.SweepConfig {
	cfg := raha.SweepConfig{
		Sources:       sources,
		Grid:          raha.DefaultSweepGrid(),
		Tolerance:     alertTolerance,
		BudgetPerTopo: w.budget,
		Workers:       w.workers,
	}
	if tr != nil {
		cfg.Tracer = tr.sink
	}
	return cfg
}

func (w *fleetWorkload) op(_ int, tr *tracing) opStats {
	rec := tr.recorder()
	from := tr.mark()
	sources := append([]raha.SweepSource(nil), w.sources...)
	w.rng.Shuffle(len(sources), func(i, j int) { sources[i], sources[j] = sources[j], sources[i] })

	var st opStats
	m := startMeter()
	opSpan := rec.begin("op")
	sp := rec.begin("batch.sweep")
	rep, err := raha.Sweep(w.config(sources, tr))
	rec.end(sp)
	rec.end(opSpan)
	delta := m.stop(&st)
	if err != nil {
		st.attempted, st.failed = 1, 1
		st.fail("sweep: %v", err)
		return st
	}

	st.attempted, st.failed = rep.CellsTotal, rep.CellsFailed
	var optimal, infeasible int
	for _, t := range rep.Topologies {
		if (t.Err != "") != poisoned[t.Name] {
			st.fail("topology %s: load/shape failure %q, poisoned %v", t.Name, t.Err, poisoned[t.Name])
		}
		for _, c := range t.Cells {
			if c.Err != "" {
				st.fail("%s %s: %s", t.Name, c.Name(), c.Err)
				continue
			}
			if math.IsNaN(c.Normalized) || c.Normalized < -oracleTol || c.Raised != (c.Normalized > alertTolerance) {
				st.fail("%s %s: normalized %g, raised %v", t.Name, c.Name(), c.Normalized, c.Raised)
			}
			switch c.Status {
			case raha.StatusOptimal.String():
				optimal++
			case raha.StatusInfeasible.String():
				infeasible++
			}
			st.degSum += c.Normalized
		}
	}
	if pin := w.pin; pin != nil {
		if rep.CellsOK != pin.cellsOK || optimal != pin.optimal || infeasible != pin.infeasible {
			st.fail("cells ok/optimal/infeasible = %d/%d/%d, pinned %d/%d/%d",
				rep.CellsOK, optimal, infeasible, pin.cellsOK, pin.optimal, pin.infeasible)
		}
		if len(rep.Ranking) == 0 || rep.Ranking[0].Name != pin.rankHead {
			st.fail("fragility ranking no longer headed by %s", pin.rankHead)
		}
		if mean := st.degSum / float64(max(1, rep.CellsOK)); math.Abs(mean-pin.degradation) > 1e-4*pin.degradation {
			st.fail("mean normalized degradation %.8f, pinned %.8f", mean, pin.degradation)
		}
	}
	if len(st.errs) > rep.CellsFailed {
		// A fleet-level check failed: no cell of this sweep can be trusted.
		st.failed = st.attempted
		return st
	}
	st.proved = optimal + infeasible
	// Cells expose no gap: a proved cell counts as closed, any other as open.
	st.closedSum = float64(st.proved)
	if tr != nil {
		tr.la.ops++
		tr.la.addCounters(delta)
		solves := readSolves(tr.sink.cut(from))
		tr.la.addSolves(solves, true)
		tr.la.addSweep(rep, solves.topoRuntime, w.workers, st.wall)
	}
	return st
}

// probe times the layers a sweep hides, by calling them directly on every
// source the way a sweep cell does: load (GML parse), TopPairs + Gravity,
// k-shortest paths, failure encoding.
func (w *fleetWorkload) probe(_ int, tr *tracing) {
	rec, la := tr.rec, tr.la
	entries, err := os.ReadDir(zooDir)
	if err != nil {
		return
	}
	for _, e := range entries {
		src, err := os.ReadFile(filepath.Join(zooDir, e.Name()))
		if err != nil || filepath.Ext(e.Name()) != ".gml" {
			continue
		}
		start := time.Now()
		_, _ = raha.ParseGML(string(src), 100) // the poisoned fixtures fail here by design
		la.gmlNs += time.Since(start)
		la.gmlBytes += len(src)
	}
	for _, s := range w.sources {
		sp := rec.begin("topology.load")
		top, err := s.Load()
		rec.end(sp)
		if err != nil || !top.Connected() {
			continue
		}
		sp = rec.begin("demand.pairs")
		pairs := raha.TopPairs(top, 4, 1)
		raha.Gravity(top, pairs, top.MeanLAGCapacity()*0.8, 1)
		rec.end(sp)
		la.pairs += len(pairs)
		sp = rec.begin("paths.compute")
		dps, err := raha.ComputePaths(top, pairs, 2, 1, nil)
		rec.end(sp)
		if err != nil {
			continue
		}
		la.addPaths(dps)
		la.addEncode(encodeProbe(top, dps, rec))
	}
}

// newWorkload builds the named workload. seed drives presentation order
// only, so every seed does the same work. shift is added to every generator
// seed: 0 gives the pinned instances, anything else gives other instances of
// the same shape, checked by re-simulation alone.
func newWorkload(name string, seed, shift int64) (workload, error) {
	var spec analysisSpec
	switch name {
	case "uninett_optimal":
		spec = analysisSpec{
			topo: raha.Uninett2010, pairs: 10, seeds: []int64{2014, 2015, 2021}, primary: 4,
			slack: 0.5, quantBits: 2, share: 0.75,
			exhaustive: true, pins: []float64{2.4372, 1.3080, 1.2954}, pinTol: 1e-4,
		}
	case "b4_budget":
		spec = analysisSpec{
			topo: raha.B4, pairs: 12, seeds: []int64{4, 5, 6}, primary: 4,
			slack: 0.5, quantBits: 3, timeLimit: time.Second,
			pins: []float64{2.5777, 2.1411, 2.5777}, pinTol: 0.01,
		}
	case "africa_fixed":
		spec = analysisSpec{
			topo: raha.AfricaWAN, pairs: 150, seeds: []int64{2, 3, 4}, primary: 2,
			peakFactor: 1.5, share: 1,
			exhaustive: true, pins: []float64{1.6738, 3.7179, 3.2557}, pinTol: 1e-4,
		}
	case "fleet_sweep":
		w := &fleetWorkload{
			builtins:  raha.SweepBuiltins(),
			synthetic: raha.SweepSynthetic(40, 7+shift),
			rng:       rand.New(rand.NewSource(seed)),
			workers:   min(2, runtime.GOMAXPROCS(0)),
			budget:    30 * time.Second,
		}
		if shift == 0 {
			w.pin = &fleetPin{cellsOK: 416, optimal: 274, infeasible: 142, rankHead: "zoostyle", degradation: 0.35911255}
		}
		return w, nil
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	if shift != 0 {
		// Other instances: nothing is known about them beforehand, not
		// even that their trees can be exhausted, so they get a budget.
		spec.pins, spec.exhaustive = nil, false
		if spec.timeLimit == 0 {
			spec.timeLimit = 5 * time.Second
		}
		for i := range spec.seeds {
			spec.seeds[i] += shift
		}
	}
	return &analysisWorkload{analysisSpec: spec}, nil
}
