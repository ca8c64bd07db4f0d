package batch

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"raha/internal/demand"
	"raha/internal/obs"
	"raha/internal/paths"
	"raha/internal/topology"
)

// tinyGrid keeps sweep tests fast: one cell per topology.
func tinyGrid() Grid {
	return Grid{
		MaxFailures: []int{1},
		Thresholds:  []float64{1e-3},
		Demands:     []DemandModel{namedDemandModels["peak"]},
	}
}

// stubSources returns sources whose loaders fail: enough for tests of the
// sweep's scheduling, which never reaches a solve.
func stubSources(names ...string) []Source {
	var out []Source
	for _, n := range names {
		out = append(out, Source{
			Name: n, Kind: "test",
			Load: func() (*topology.Topology, error) { return nil, errors.New("stub") },
		})
	}
	return out
}

// memTracer records emitted events for assertions.
type memTracer struct {
	mu       sync.Mutex
	events   []string           // "layer/ev"
	topoSecs map[string]float64 // sweep_topo_end's runtime_s by topology
	splits   [][3]int           // batch/parallelism: units, fanout, solver_workers
	maxWidth int                // widest milp/solve_start
}

func (m *memTracer) Emit(layer, ev string, fields obs.F) {
	m.mu.Lock()
	m.events = append(m.events, layer+"/"+ev)
	switch ev {
	case "sweep_topo_end":
		if m.topoSecs == nil {
			m.topoSecs = make(map[string]float64)
		}
		m.topoSecs[fields["topology"].(string)] = fields["runtime_s"].(float64)
	case "parallelism":
		m.splits = append(m.splits, [3]int{fields["units"].(int), fields["fanout"].(int), fields["solver_workers"].(int)})
	case "solve_start":
		m.maxWidth = max(m.maxWidth, fields["workers"].(int))
	}
	m.mu.Unlock()
}

func (m *memTracer) count(key string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, e := range m.events {
		if e == key {
			n++
		}
	}
	return n
}

// TestSweepFixtureCorpus runs the real sweep over the committed GML corpus.
// The corpus deliberately contains two poisoned files — dupid.gml (parse
// error) and isolated.gml (disconnected) — so this test pins the acceptance
// criterion: a fleet with failing members completes, records the failures as
// partial results, and still ranks the healthy topologies.
func TestSweepFixtureCorpus(t *testing.T) {
	sources, err := ZooDir("../topology/testdata")
	if err != nil {
		t.Fatal(err)
	}
	if len(sources) < 6 {
		t.Fatalf("fixture corpus too small: %d sources", len(sources))
	}
	tr := &memTracer{}
	rep, err := Run(context.Background(), Config{
		Sources:       sources,
		Grid:          tinyGrid(),
		Tolerance:     0.05,
		BudgetPerTopo: 30 * time.Second,
		Tracer:        tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cancelled {
		t.Error("uncancelled sweep reported Cancelled")
	}
	if rep.TopoCount != len(sources) {
		t.Errorf("TopoCount %d, want %d", rep.TopoCount, len(sources))
	}

	wantFailures := map[string]string{
		"dupid":    "duplicate node id",
		"isolated": "not connected",
	}
	for _, tres := range rep.Topologies {
		// Runtime is set as runTopology returns (it once stayed 0: the
		// deferred write went to a copy), failed loads included, and is the
		// figure the end event carries.
		if secs, ok := tr.topoSecs[tres.Name]; tres.Runtime <= 0 || !ok || math.Float64bits(secs) != math.Float64bits(tres.Runtime.Seconds()) {
			t.Errorf("topology %s: Runtime %v, sweep_topo_end runtime_s %v (present %v)", tres.Name, tres.Runtime, secs, ok)
		}
		want, poisoned := wantFailures[tres.Name]
		if poisoned {
			if !strings.Contains(tres.Err, want) {
				t.Errorf("topology %s: Err %q, want substring %q", tres.Name, tres.Err, want)
			}
			if len(tres.Cells) != 0 {
				t.Errorf("failed topology %s has %d cell results", tres.Name, len(tres.Cells))
			}
			continue
		}
		if tres.Err != "" {
			t.Errorf("topology %s failed unexpectedly: %s", tres.Name, tres.Err)
		}
		for _, cr := range tres.Cells {
			if cr.Err != "" {
				t.Errorf("topology %s cell %s failed: %s", tres.Name, cr.Cell.Name(), cr.Err)
				continue
			}
			// The acceptance invariant, re-asserted from the outside.
			if cr.Raised != (cr.Normalized > 0.05) {
				t.Errorf("topology %s cell %s: raised=%v with normalized %g",
					tres.Name, cr.Cell.Name(), cr.Raised, cr.Normalized)
			}
			if cr.Status == "" {
				t.Errorf("topology %s cell %s: empty solve status", tres.Name, cr.Cell.Name())
			}
		}
	}
	if rep.TopoFailed != len(wantFailures) {
		t.Errorf("TopoFailed %d, want %d", rep.TopoFailed, len(wantFailures))
	}
	if len(rep.Failures) < len(wantFailures) {
		t.Errorf("Failures has %d entries, want at least %d", len(rep.Failures), len(wantFailures))
	}
	if rep.CellsOK == 0 {
		t.Error("no successful cells over the fixture corpus")
	}
	if rep.CellsOK+rep.CellsFailed != rep.CellsTotal {
		t.Errorf("cell counts inconsistent: %d ok + %d failed != %d total", rep.CellsOK, rep.CellsFailed, rep.CellsTotal)
	}

	// Ranking: only healthy topologies, most fragile first.
	if len(rep.Ranking) != len(sources)-len(wantFailures) {
		t.Errorf("ranking has %d entries, want %d", len(rep.Ranking), len(sources)-len(wantFailures))
	}
	for i := 1; i < len(rep.Ranking); i++ {
		if rep.Ranking[i].Normalized > rep.Ranking[i-1].Normalized {
			t.Errorf("ranking not sorted: %q (%g) after %q (%g)",
				rep.Ranking[i].Name, rep.Ranking[i].Normalized,
				rep.Ranking[i-1].Name, rep.Ranking[i-1].Normalized)
		}
	}
	for _, fe := range rep.Ranking {
		if _, poisoned := wantFailures[fe.Name]; poisoned {
			t.Errorf("failed topology %q appears in the fragility ranking", fe.Name)
		}
	}

	if rep.CellsPerMin <= 0 || rep.ToposPerMin <= 0 {
		t.Errorf("throughput not computed: %g cells/min, %g topos/min", rep.CellsPerMin, rep.ToposPerMin)
	}
	if rep.CellLatency.Count == 0 {
		t.Error("cell latency histogram empty despite successful cells")
	}
	if rep.CellLatency.Count > int64(rep.CellsOK) {
		t.Errorf("cell latency histogram holds %d samples, only %d cells succeeded",
			rep.CellLatency.Count, rep.CellsOK)
	}
	if rep.CellLatency.P99Ns < rep.CellLatency.P50Ns || rep.CellLatency.MaxNs < rep.CellLatency.P99Ns/2 {
		t.Errorf("cell latency quantiles inconsistent: %+v", rep.CellLatency)
	}
	if got := tr.count("batch/sweep_topo_start"); got != len(sources) {
		t.Errorf("sweep_topo_start emitted %d times, want %d", got, len(sources))
	}
	if got := tr.count("batch/sweep_topo_end"); got != len(sources) {
		t.Errorf("sweep_topo_end emitted %d times, want %d", got, len(sources))
	}

	// A topology's cells share one tunnel set per pair count. Nothing below
	// runCell may write to it: after three cells have run on it (two of four
	// pairs, fixed and elastic demand, and one of six) the cache must still
	// hold exactly what a fresh computation gives.
	cfg := Config{Tolerance: 0.05}
	peak6 := namedDemandModels["peak"]
	peak6.Name, peak6.Pairs = "peak6", 6
	var cells []Cell
	for _, dm := range []DemandModel{namedDemandModels["peak"], namedDemandModels["elastic"], peak6} {
		cells = append(cells, Cell{MaxFailures: 1, Threshold: 1e-3, Demand: dm})
	}
	for _, src := range sources {
		if _, poisoned := wantFailures[src.Name]; poisoned {
			continue
		}
		top, err := src.Load()
		if err != nil {
			t.Fatalf("topology %s: %v", src.Name, err)
		}
		shared := make(map[int]tunnels)
		for _, cell := range cells {
			if cr := runCell(context.Background(), &cfg, top, cell, 0, 1, shared); cr.Err != "" {
				t.Errorf("topology %s cell %s failed: %s", src.Name, cell.Name(), cr.Err)
			}
		}
		if len(shared) != 2 {
			t.Errorf("topology %s: %d tunnel sets cached for two pair counts", src.Name, len(shared))
		}
		for n, tn := range shared {
			pairs := demand.TopPairs(top, n, 1)
			dps, err := paths.Compute(top, pairs, 2, 1, nil)
			if err != nil || !reflect.DeepEqual(tn.pairs, pairs) || !reflect.DeepEqual(tn.dps, dps) {
				t.Errorf("topology %s: the %d-pair tunnels the cells shared differ from a fresh computation (err %v)", src.Name, n, err)
			}
		}
	}
}

// TestSweepBoundClosedAndInfeasibleCells: on a three-link line no single
// failure is as probable as 1e-3, so the elastic cell's two phases are closed
// by the lost-capacity bound — counted in the report, no MILP behind them —
// and at a threshold above the all-up probability phase 1 is infeasible and
// phase 2 is never analysed.
func TestSweepBoundClosedAndInfeasibleCells(t *testing.T) {
	sources, err := ZooDir("../topology/testdata")
	if err != nil {
		t.Fatal(err)
	}
	var line []Source
	for _, s := range sources {
		if s.Name == "line4" {
			line = append(line, s)
		}
	}
	for _, tc := range []struct {
		threshold        float64
		status           string
		closed, analyses int
	}{
		{1e-3, "optimal", 1, 2},
		{0.999, "infeasible", 0, 1},
	} {
		tr := &memTracer{}
		rep, err := Run(context.Background(), Config{
			Sources: line,
			Grid:    Grid{MaxFailures: []int{0}, Thresholds: []float64{tc.threshold}, Demands: []DemandModel{namedDemandModels["elastic"]}},
			Tracer:  tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.CellsOK != 1 || rep.CellsClosedByBound != tc.closed {
			t.Fatalf("threshold %g: %d cells ok, %d closed by the bound, want 1 and %d (%+v)", tc.threshold, rep.CellsOK, rep.CellsClosedByBound, tc.closed, rep.Failures)
		}
		cr := rep.Topologies[0].Cells[0]
		if cr.Status != tc.status || cr.NodesExplored != 0 || cr.ClosedByBound != (tc.closed == 1) {
			t.Errorf("threshold %g: cell %+v, want %s at zero nodes", tc.threshold, cr, tc.status)
		}
		if got := tr.count("metaopt/analysis_start"); got != tc.analyses {
			t.Errorf("threshold %g: %d analyses started, want %d", tc.threshold, got, tc.analyses)
		}
		if got := tr.count("milp/solve_start"); got != 0 {
			t.Errorf("threshold %g: %d MILP solves in a cell the budget alone decides", tc.threshold, got)
		}
	}
}

// TestSweepWorkerRouting: Workers is the sweep's whole budget, split over
// the source count — topologies first, the leftover inside each solve — and
// where the workers go never changes what a cell computes.
func TestSweepWorkerRouting(t *testing.T) {
	all, err := ZooDir("../topology/testdata")
	if err != nil {
		t.Fatal(err)
	}
	var sources []Source
	for _, src := range all {
		if src.Name == "star5" || src.Name == "zoostyle" {
			sources = append(sources, src)
		}
	}
	if len(sources) != 2 {
		t.Fatalf("fixture corpus has %d of star5/zoostyle", len(sources))
	}
	sweep := func(sources []Source, workers int) (*Report, *memTracer) {
		tr := &memTracer{}
		rep, err := Run(context.Background(), Config{
			Sources: sources, Grid: tinyGrid(), Tolerance: 0.05, Workers: workers, Tracer: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep, tr
	}
	split := func(tr *memTracer, want [3]int) {
		t.Helper()
		if len(tr.splits) != 1 || tr.splits[0] != want {
			t.Errorf("batch/parallelism events %v, want one reading %v", tr.splits, want)
		}
		if tr.maxWidth > want[2] {
			t.Errorf("a solve started %d wide under a per-solve share of %d", tr.maxWidth, want[2])
		}
	}

	serial, tr1 := sweep(sources, 1)
	split(tr1, [3]int{2, 1, 1})
	wide, tr8 := sweep(sources, 8)
	split(tr8, [3]int{2, 2, 4})
	for i, st := range serial.Topologies {
		wt := wide.Topologies[i]
		if st.Err != "" || wt.Err != "" || len(st.Cells) == 0 || len(st.Cells) != len(wt.Cells) {
			t.Fatalf("topology %s: serial %q (%d cells), wide %q (%d cells)", st.Name, st.Err, len(st.Cells), wt.Err, len(wt.Cells))
		}
		for j, sc := range st.Cells {
			wc := wt.Cells[j]
			//raha:lint-allow float-cmp cells that prove optimality are bit-identical at any budget
			if sc.Err != "" || sc.Status != wc.Status || sc.Raised != wc.Raised || sc.Normalized != wc.Normalized {
				t.Errorf("topology %s cell %s: serial %s/%v/%g (err %q), wide %s/%v/%g",
					st.Name, sc.Cell.Name(), sc.Status, sc.Raised, sc.Normalized, sc.Err, wc.Status, wc.Raised, wc.Normalized)
			}
		}
	}

	// More sources than workers: the fan-out takes the whole budget.
	_, tr2 := sweep(stubSources("a", "b", "c", "d", "e"), 2)
	split(tr2, [3]int{5, 2, 1})
}

// TestSweepSourceFaultTolerance injects every loader failure mode next to a
// healthy builtin: a panic, an error, and a nil-without-error return must
// each become that topology's recorded failure while the healthy topology
// still completes.
func TestSweepSourceFaultTolerance(t *testing.T) {
	sources := []Source{
		{Name: "panics", Kind: "test", Load: func() (*topology.Topology, error) { panic("boom") }},
		{Name: "errors", Kind: "test", Load: func() (*topology.Topology, error) { return nil, errors.New("no such fleet") }},
		{Name: "nilnil", Kind: "test", Load: func() (*topology.Topology, error) { return nil, nil }},
		{Name: "b4", Kind: "builtin", Load: func() (*topology.Topology, error) { return topology.B4(), nil }},
	}
	rep, err := Run(context.Background(), Config{
		Sources:       sources,
		Grid:          tinyGrid(),
		Tolerance:     0.05,
		BudgetPerTopo: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"panics": "load panicked: boom",
		"errors": "no such fleet",
		"nilnil": "loader returned no topology",
	}
	for _, tres := range rep.Topologies {
		if sub, bad := want[tres.Name]; bad {
			if !strings.Contains(tres.Err, sub) {
				t.Errorf("topology %s: Err %q, want substring %q", tres.Name, tres.Err, sub)
			}
			continue
		}
		if tres.Err != "" {
			t.Errorf("b4 failed: %s", tres.Err)
		}
		if ok, _, _ := tres.cellCounts(); ok == 0 {
			t.Error("b4 produced no successful cells")
		}
	}
	if rep.TopoFailed != len(want) {
		t.Errorf("TopoFailed %d, want %d", rep.TopoFailed, len(want))
	}
	if len(rep.Ranking) != 1 || rep.Ranking[0].Name != "b4" {
		t.Errorf("ranking %+v, want exactly b4", rep.Ranking)
	}
}

// TestSweepShardPartition checks that shards partition the fleet: every
// source lands in exactly one shard, regardless of M.
func TestSweepShardPartition(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e"}
	sources := stubSources(names...)
	for _, numShards := range []int{1, 2, 3, 5, 7} {
		seen := map[string]int{}
		for shard := 1; shard <= numShards; shard++ {
			rep, err := Run(context.Background(), Config{
				Sources: sources,
				Grid:    tinyGrid(),
				Shard:   shard, NumShards: numShards,
			})
			if err != nil {
				t.Fatalf("shard %d/%d: %v", shard, numShards, err)
			}
			if rep.Shard != shard || rep.NumShards != numShards {
				t.Errorf("report echoes shard %d/%d, want %d/%d", rep.Shard, rep.NumShards, shard, numShards)
			}
			for _, tres := range rep.Topologies {
				seen[tres.Name]++
			}
		}
		for _, n := range names {
			if seen[n] != 1 {
				t.Errorf("M=%d: source %q swept by %d shards, want exactly 1", numShards, n, seen[n])
			}
		}
	}
}

// TestSweepCancellationPartial cancels mid-sweep and expects a partial
// report — no error, Cancelled set, completed work kept, unstarted
// topologies marked skipped.
func TestSweepCancellationPartial(t *testing.T) {
	sources := stubSources("one", "two", "three", "four")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first := true
	rep, err := Run(ctx, Config{
		Sources: sources,
		Grid:    tinyGrid(),
		Workers: 1, // serial, so cancelling after topology 1 skips 2..4
		OnTopoDone: func(TopoResult) {
			if first {
				first = false
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatalf("cancelled sweep must return the partial report without error, got %v", err)
	}
	if !rep.Cancelled {
		t.Error("Cancelled not set")
	}
	var done, skipped int
	for _, tres := range rep.Topologies {
		if tres.Skipped {
			skipped++
			if !strings.Contains(tres.Err, "cancelled") {
				t.Errorf("skipped topology %s: Err %q", tres.Name, tres.Err)
			}
		} else {
			done++
		}
	}
	if done < 1 || skipped < 1 {
		t.Errorf("want at least one completed and one skipped topology, got %d done / %d skipped", done, skipped)
	}
	if done+skipped != len(sources) {
		t.Errorf("slots unaccounted for: %d done + %d skipped != %d", done, skipped, len(sources))
	}
}

func TestSweepConfigValidation(t *testing.T) {
	good := func() (*topology.Topology, error) { return topology.B4(), nil }
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"no sources", Config{}, "at least one topology"},
		{"negative tolerance", Config{Sources: []Source{{Name: "x", Load: good}}, Tolerance: -1}, "negative tolerance"},
		{"shard without M", Config{Sources: []Source{{Name: "x", Load: good}}, Shard: 1}, "both N and M"},
		{"M without shard", Config{Sources: []Source{{Name: "x", Load: good}}, NumShards: 2}, "both N and M"},
		{"shard out of range", Config{Sources: []Source{{Name: "x", Load: good}}, Shard: 3, NumShards: 2}, "does not exist"},
		{"negative shard", Config{Sources: []Source{{Name: "x", Load: good}}, Shard: -1, NumShards: -1}, "negative shard"},
		{"bad grid", Config{Sources: []Source{{Name: "x", Load: good}}, Grid: Grid{MaxFailures: []int{-1}, Thresholds: []float64{1e-3}, Demands: []DemandModel{namedDemandModels["peak"]}}}, "negative k-failure"},
		{"bad threshold", Config{Sources: []Source{{Name: "x", Load: good}}, Grid: Grid{MaxFailures: []int{0}, Thresholds: []float64{2}, Demands: []DemandModel{namedDemandModels["peak"]}}}, "outside (0, 1)"},
		{"NaN threshold", Config{Sources: []Source{{Name: "x", Load: good}}, Grid: Grid{MaxFailures: []int{0}, Thresholds: []float64{math.NaN()}, Demands: []DemandModel{namedDemandModels["peak"]}}}, "outside (0, 1)"},
		{"NaN tolerance", Config{Sources: []Source{{Name: "x", Load: good}}, Tolerance: math.NaN()}, "tolerance is NaN"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(context.Background(), tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

func TestParseGrid(t *testing.T) {
	t.Run("empty is default", func(t *testing.T) {
		g, err := ParseGrid("")
		if err != nil {
			t.Fatal(err)
		}
		def := DefaultGrid()
		if len(g.Cells()) != len(def.Cells()) {
			t.Fatalf("empty spec: %d cells, want %d", len(g.Cells()), len(def.Cells()))
		}
	})
	t.Run("full spec", func(t *testing.T) {
		g, err := ParseGrid(" k=0,2 ; p=1e-4,1e-3 ; d=peak,surge ")
		if err != nil {
			t.Fatal(err)
		}
		cells := g.Cells()
		if len(cells) != 8 {
			t.Fatalf("%d cells, want 2*2*2=8", len(cells))
		}
		// k varies outermost, demand innermost.
		if got := cells[0].Name(); got != "k0/p1e-04/peak" {
			t.Errorf("first cell %q", got)
		}
		if got := cells[7].Name(); got != "k2/p1e-03/surge" {
			t.Errorf("last cell %q", got)
		}
	})
	t.Run("partial spec keeps defaults", func(t *testing.T) {
		g, err := ParseGrid("k=1")
		if err != nil {
			t.Fatal(err)
		}
		def := DefaultGrid()
		if len(g.MaxFailures) != 1 || g.MaxFailures[0] != 1 {
			t.Errorf("k = %v", g.MaxFailures)
		}
		if len(g.Thresholds) != len(def.Thresholds) || len(g.Demands) != len(def.Demands) {
			t.Errorf("omitted dimensions not defaulted: %+v", g)
		}
	})
	bad := []struct{ spec, want string }{
		{"k=x", "grid k value"},
		{"p=zero", "grid p value"},
		{"d=nope", "unknown demand model"},
		{"q=1", "unknown grid dimension"},
		{"k0,2", "not key=v1,v2"},
		{"p=0", "outside (0, 1)"},
		{"k=-1", "negative k-failure"},
	}
	for _, tc := range bad {
		if _, err := ParseGrid(tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseGrid(%q): want error containing %q, got %v", tc.spec, tc.want, err)
		}
	}
}
