package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"raha"
)

// smallWorkloads are the four workloads scaled down until the whole set
// runs in a few seconds. They keep the shape (entry point, envelope kind,
// budget or not, fleet mix) and drop the pinned answers.
func smallWorkloads(t *testing.T) map[string]workload {
	t.Helper()
	t.Chdir("..") // fleet_sweep reads the GML fixtures relative to the repository root
	return map[string]workload{
		"uninett_optimal": &analysisWorkload{analysisSpec: analysisSpec{
			topo: raha.Uninett2010, pairs: 4, seeds: []int64{2014, 2015}, primary: 2,
			slack: 0.5, quantBits: 2, exhaustive: true,
		}},
		"b4_budget": &analysisWorkload{analysisSpec: analysisSpec{
			topo: raha.B4, pairs: 6, seeds: []int64{4}, primary: 4,
			slack: 0.5, quantBits: 3, timeLimit: 100 * time.Millisecond,
		}},
		"africa_fixed": &analysisWorkload{analysisSpec: analysisSpec{
			topo: raha.AfricaWAN, pairs: 12, seeds: []int64{2}, primary: 2,
			peakFactor: 1.5, exhaustive: true,
		}},
		"fleet_sweep": &fleetWorkload{
			builtins: raha.SweepBuiltins()[:1], synthetic: raha.SweepSynthetic(2, 7),
			rng: rand.New(rand.NewSource(1)), workers: 2, budget: 30 * time.Second,
		},
	}
}

func metricNames(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	slices.Sort(out)
	return out
}

// Every workload, scaled down, runs clean untraced and traced, and emits
// exactly the metrics the tables (and so BENCHMARK.json) name.
func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for name, w := range smallWorkloads(t) {
		for _, traced := range []bool{false, true} {
			rd, err := measure(w, 1, 0, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			rec := report(name, 1, 0, 0, rd)
			if !rec.Correct || rec.Attempted < 1 || rec.Failed != 0 {
				t.Errorf("%s traced=%v: correct %v attempted %d failed %d: %v", name, traced, rec.Correct, rec.Attempted, rec.Failed, rec.Detail.Errors)
			}
			want := metricNames(endToEnd)
			if traced {
				want = metricNames(perLayer)
			}
			got := make([]string, 0, len(rec.Metrics))
			for m, v := range rec.Metrics {
				got = append(got, m)
				if math.IsNaN(v.Value) || v.Value < 0 {
					t.Errorf("%s traced=%v: %s = %g", name, traced, m, v.Value)
				}
				if !traced && v.Value == 0 {
					t.Errorf("%s: end-to-end metric %s reads 0", name, m)
				}
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("%s traced=%v: emitted %v, tables name %v", name, traced, got, want)
			}
			var out bytes.Buffer
			if err := printRecord(&out, rec); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || len(last) != 4 {
				t.Errorf("%s traced=%v: last line is not the four-key result object: %v %s", name, traced, err, lines[len(lines)-1])
			}
		}
	}
}

// BENCHMARK.json is the metric tables, written out: nothing named in one
// is missing from the other, and the contract's limits hold.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	var onDisk manifestFile
	if err := readJSON("../BENCHMARK.json", &onDisk); err != nil {
		t.Fatal(err)
	}
	if want := manifest(); !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from `bench -manifest`; regenerate it")
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q breaks the naming rule", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range onDisk.Workloads {
		check("workload", w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.Name)
		}
	}
	if n := len(onDisk.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if len(onDisk.EndToEnd) > 16 || len(onDisk.PerLayer) > 128 {
		t.Errorf("too many metrics: %d end-to-end, %d per-layer", len(onDisk.EndToEnd), len(onDisk.PerLayer))
	}
	setup := false
	for _, m := range append(append([]manifestMetric(nil), onDisk.EndToEnd...), onDisk.PerLayer...) {
		check("metric", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", m.Name, *m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" && m.Bound != nil)
	}
	if !setup {
		t.Errorf("no setup_s end-to-end metric")
	}
	if onDisk.RunSeconds < 1 || onDisk.RunSeconds > 60 {
		t.Errorf("run_seconds %d", onDisk.RunSeconds)
	}
	for _, name := range workloadNames() {
		if _, err := newWorkload(name, 1, 0); err != nil {
			t.Errorf("workload %s named but not built: %v", name, err)
		}
	}
}

// Two runs at one seed do identical work: same nodes, same simplex
// iterations, same answer, op by op. The budgeted workload stops on the
// clock, so only its answer is pinned. -short checks the scaled-down
// workloads; the full run checks the real ones.
func TestSameSeedSameWork(t *testing.T) {
	build := func(name string) workload {
		w, err := newWorkload(name, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	var small map[string]workload
	if testing.Short() {
		small = smallWorkloads(t)
		build = func(name string) workload { return small[name] }
	}
	for _, name := range []string{"uninett_optimal", "africa_fixed", "b4_budget"} {
		var runs [2]runRecord
		for i := range runs {
			rd, err := measure(build(name), 7, 0, false)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			runs[i] = report(name, 7, 0, 0, rd)
		}
		a, b := runs[0], runs[1]
		if da, db := a.Metrics["degradation_norm"].Value, b.Metrics["degradation_norm"].Value; math.Float64bits(da) != math.Float64bits(db) {
			t.Errorf("%s: degradation_norm %v vs %v", name, da, db)
		}
		if name == "b4_budget" {
			continue
		}
		if !slices.Equal(a.Detail.Nodes, b.Detail.Nodes) || !slices.Equal(a.Detail.LPIterations, b.Detail.LPIterations) {
			t.Errorf("%s: counts differ between runs:\n nodes %v vs %v\n iterations %v vs %v", name, a.Detail.Nodes, b.Detail.Nodes, a.Detail.LPIterations, b.Detail.LPIterations)
		}
	}
}

// A machine phase that slows the reference kernel and the ops alike leaves
// the gated times where they were; a workload that shares none of the
// kernel's slow-down keeps its times as measured, one that shares half of it
// is scaled by the square root.
func TestGatedPassTakesTheMachineOut(t *testing.T) {
	pass := func(slow float64) []opStats {
		var ops []opStats
		for inst, secs := range []float64{1, 2} {
			for range 5 {
				d := time.Duration(secs * slow * float64(time.Second))
				ops = append(ops, opStats{inst: inst, wall: d, cpu: d, ref: time.Duration(slow * float64(refNominal)), attempted: 1, closedSum: 1})
			}
		}
		return ops
	}
	calm, slowed := gatedPass(pass(1), 1), gatedPass(pass(1.44), 1)
	if math.Abs(calm.wall-3) > 1e-6 || math.Abs(slowed.wall-calm.wall) > 1e-6 || math.Abs(slowed.cpu-calm.cpu) > 1e-6 {
		t.Errorf("share 1: calm %+v, slowed %+v, want 3 s of wall and CPU both", calm, slowed)
	}
	if got := gatedPass(pass(1.44), 0); math.Abs(got.wall-3*1.44) > 1e-6 {
		t.Errorf("share 0: wall %.3f, want %.3f as measured", got.wall, 3*1.44)
	}
	if got := gatedPass(pass(1.44), 0.5); math.Abs(got.wall-3*1.2) > 1e-6 {
		t.Errorf("share 0.5: wall %.3f, want %.3f", got.wall, 3*1.2)
	}
	if calm.instances != 2 || calm.cells != 2 || calm.closed != 2 {
		t.Errorf("outcome fields: %+v", calm)
	}
}
