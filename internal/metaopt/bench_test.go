package metaopt

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"raha/internal/demand"
	"raha/internal/milp"
	"raha/internal/paths"
	"raha/internal/topology"
)

// benchConfig builds a Figure-5-style variable-demand analysis on the given
// topology, sized so the MILP has a non-trivial tree to search.
func benchConfig(b testing.TB, top *topology.Topology, seed int64, workers int) Config {
	b.Helper()
	pairs := demand.TopPairs(top, 6, seed)
	dps, err := paths.Compute(top, pairs, 2, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	base := demand.Gravity(top, pairs, top.MeanLAGCapacity(), seed)
	return Config{
		Topo:        top,
		Demands:     dps,
		Envelope:    demand.UpTo(base, 0.5),
		QuantBits:   2,
		MaxFailures: 2,
		Solver:      milp.Params{Workers: workers},
	}
}

// benchAnalyze runs the analysis b.N times and reports branch-and-bound
// throughput, the figure that shows what the worker pool buys: compare
// nodes/sec between the /serial and /parallel variants. warmstarts/solve
// and coldfallbacks/solve report the warm-start hit rate (a regression to
// cold solves shows up here before it shows up in nodes/sec). bytes/solve
// is the cumulative heap allocation per analysis (runtime TotalAlloc delta,
// all goroutines) — the memory half of the sparse-LP story.
func benchAnalyze(b *testing.B, top *topology.Topology, seed int64, workers int) {
	cfg := benchConfig(b, top, seed, workers)
	nodes := 0
	var warm, cold, fixed, rows, bounds, prop int64
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocStart := ms.TotalAlloc
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Analyze(cfg)
		if err != nil {
			b.Fatal(err)
		}
		nodes += res.Nodes
		warm += res.Stats.WarmStarts
		cold += res.Stats.ColdFallbacks
		fixed += res.Stats.PresolveFixedVars
		rows += res.Stats.PresolveRemovedRows
		bounds += res.Stats.PresolveTightenedBounds
		prop += res.Stats.PropagationPrunes
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.TotalAlloc-allocStart)/float64(b.N), "bytes/solve")
	b.ReportMetric(float64(nodes)/b.Elapsed().Seconds(), "nodes/sec")
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/solve")
	b.ReportMetric(float64(warm)/float64(b.N), "warmstarts/solve")
	b.ReportMetric(float64(cold)/float64(b.N), "coldfallbacks/solve")
	b.ReportMetric(float64(fixed)/float64(b.N), "presolvefixed/solve")
	b.ReportMetric(float64(rows)/float64(b.N), "presolverows/solve")
	b.ReportMetric(float64(bounds)/float64(b.N), "presolvebounds/solve")
	b.ReportMetric(float64(prop)/float64(b.N), "propprunes/solve")
}

func BenchmarkAnalyzeB4Serial(b *testing.B)   { benchAnalyze(b, topology.B4(), 4, 1) }
func BenchmarkAnalyzeB4Parallel(b *testing.B) { benchAnalyze(b, topology.B4(), 4, 0) }

func BenchmarkAnalyzeUninettSerial(b *testing.B) {
	benchAnalyze(b, topology.Uninett2010(), 2010, 1)
}

func BenchmarkAnalyzeUninettParallel(b *testing.B) {
	benchAnalyze(b, topology.Uninett2010(), 2010, 0)
}

// medianOf runs fn reps times and returns the median and total elapsed
// time. The scaling ratios below must be stable at -benchtime 1x: a
// parallel search explores a slightly different tree each run, and a
// single unlucky order can swing a raw wall-clock ratio by ±30%. The
// median of three absorbs one outlier per width for the wall ratios;
// the throughput ratio uses the totals (all reps count as samples).
func medianOf(b *testing.B, reps int, fn func()) (median, total time.Duration) {
	b.Helper()
	times := make([]time.Duration, reps)
	for i := range times {
		start := time.Now()
		fn()
		times[i] = time.Since(start)
		total += times[i]
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[reps/2], total
}

// benchScaling runs the same analysis at Workers 1, 2, and 4 and reports
// the speedup curve — the direct measure of ROADMAP item 2 ("Workers=4
// slower than serial"). parallel-efficiency is speedup@4 divided by 4:
// 1.0 is perfect scaling, 0.25 means four workers add nothing, and below
// 0.25 the worker pool is actively losing to queue contention.
//
// Wall-clock speedup of a parallel search is a compound of two effects:
// scheduler overhead (contention, steal traffic, idle) and search order
// (a different exploration order grows or shrinks the tree, by luck).
// The order effect makes the wall ratios swing ±30% run to run, so they
// are advisory. node-throughput-w4 — aggregate nodes/sec at Workers 4
// over nodes/sec at Workers 1 — divides the tree size out and isolates
// the scheduler: on an N-core machine it approaches min(4, N) when the
// pool adds no overhead, and collapses when workers fight over shared
// state. That is the stable signal; the gated measurement of it is the
// bench/ module's milp.node_throughput_w2 probe.
func benchScaling(b *testing.B, top *topology.Topology, seed int64, reps int) {
	cfg := benchConfig(b, top, seed, 1)
	elapsed := map[int]time.Duration{}
	totals := map[int]time.Duration{}
	nodes := map[int]int{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, workers := range []int{1, 2, 4} {
			cfg.Solver.Workers = workers
			med, tot := medianOf(b, reps, func() {
				res, err := Analyze(cfg)
				if err != nil {
					b.Fatal(err)
				}
				nodes[workers] += res.Nodes
			})
			elapsed[workers] += med
			totals[workers] += tot
		}
	}
	if elapsed[2] <= 0 || elapsed[4] <= 0 {
		b.Fatal("scaling run too fast to time")
	}
	s2 := elapsed[1].Seconds() / elapsed[2].Seconds()
	s4 := elapsed[1].Seconds() / elapsed[4].Seconds()
	b.ReportMetric(s2, "speedup-w2")
	b.ReportMetric(s4, "speedup-w4")
	b.ReportMetric(s4/4, "parallel-efficiency")
	rate1 := float64(nodes[1]) / totals[1].Seconds()
	rate4 := float64(nodes[4]) / totals[4].Seconds()
	if rate1 > 0 {
		b.ReportMetric(rate4/rate1, "node-throughput-w4")
	}
}

// B4 solves are cheap, so it affords more repetitions; its small tree
// makes per-run rates noisier, and the extra samples buy the stability
// back. Uninett is ~6× slower per pass and stable at three.
func BenchmarkB4Scaling(b *testing.B)      { benchScaling(b, topology.B4(), 4, 7) }
func BenchmarkUninettScaling(b *testing.B) { benchScaling(b, topology.Uninett2010(), 2010, 3) }

// BenchmarkPortfolioScaling measures what splitting the budget buys on a
// clustered analysis: the same four-cluster Uninett run at Workers 1
// (serial waves of serial solves) versus Workers 4 split across each wave.
// The ratio reports under the same speedup-w4 / parallel-efficiency names
// as the intra-solve scaling benchmarks, so the two tiers read side by
// side.
func BenchmarkPortfolioScaling(b *testing.B) {
	ccfg := ClusterConfig{Config: benchConfig(b, topology.Uninett2010(), 2010, 1), Clusters: 4}
	elapsed := map[int]time.Duration{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, workers := range []int{1, 4} {
			ccfg.Solver.Workers = workers
			med, _ := medianOf(b, 3, func() {
				if _, err := AnalyzeClustered(ccfg); err != nil {
					b.Fatal(err)
				}
			})
			elapsed[workers] += med
		}
	}
	if elapsed[4] <= 0 {
		b.Fatal("portfolio run too fast to time")
	}
	s4 := elapsed[1].Seconds() / elapsed[4].Seconds()
	b.ReportMetric(s4, "speedup-w4")
	b.ReportMetric(s4/4, "parallel-efficiency")
}
