package milp

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"raha/internal/obs"
)

// TestStatsAccSnapshotMapping pins how fold turns the per-worker accounting
// into Result.Stats. Every worker gets a distinct value in every field, so
// each counter must come out as the sum of the workers' own — except the
// solve-wide figures, which fold takes from the search (MaxOpen,
// IncumbentUpdates) and the plan (the presolve figures) — and PerWorker must
// come from each worker's utilization atomics and its own steal counts. A
// field left out of the sum, or summed when it is solve-wide, fails here.
// Every int64 field of Stats and WorkerStats must also carry a trace tag no
// other field of its struct (nor a solve_end key of the Result's own) uses.
func TestStatsAccSnapshotMapping(t *testing.T) {
	m := knapsack(8, 1)
	p := Params{Workers: 3, OnProgress: func(Progress) {}} // observed, so timed
	pl, err := m.prepare(&p, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := newSearch(m, p, pl, time.Now())
	if len(s.wstats) != 3 || pl.pres == nil {
		t.Fatalf("%d workers, presolve %v: want 3 workers and a presolve", len(s.wstats), pl.pres != nil)
	}
	for i := range s.wstats {
		a := &s.wstats[i]
		v := reflect.ValueOf(&a.stats).Elem()
		for j := 0; j < v.NumField(); j++ {
			if v.Field(j).Kind() == reflect.Int64 {
				v.Field(j).SetInt(int64(1000*(i+1) + j))
			}
		}
		a.nodes.Store(int64(10 + i))
		a.busyNs.Store(int64(20 + i))
		a.waitNs.Store(int64(30 + i))
		a.wallNs = int64(100 + i)
	}
	s.maxOpen.Store(7)
	s.inc.updates.Store(5)
	pl.presolveNs = 11
	pl.pres.fixedVars, pl.pres.removedRows, pl.pres.tightenedBounds, pl.pres.tightenedCoefs = 12, 13, 14, 15

	got := s.fold().Stats
	solveWide := map[string]int64{
		"MaxOpen": 7, "IncumbentUpdates": 5, "PresolveNs": 11, "PresolveFixedVars": 12,
		"PresolveRemovedRows": 13, "PresolveTightenedBounds": 14, "PresolveTightenedCoefs": 15,
	}
	rv, rt := reflect.ValueOf(got), reflect.TypeFor[Stats]()
	for j := 0; j < rt.NumField(); j++ {
		f := rt.Field(j)
		if f.Type.Kind() != reflect.Int64 {
			continue
		}
		want, ok := solveWide[f.Name]
		if !ok {
			want = int64(1000+j) + int64(2000+j) + int64(3000+j)
		}
		if g := rv.Field(j).Int(); g != want {
			t.Errorf("Stats.%s = %d, want %d", f.Name, g, want)
		}
	}
	if len(got.PerWorker) != 3 {
		t.Fatalf("PerWorker has %d entries, want 3", len(got.PerWorker))
	}
	for i, w := range got.PerWorker {
		own := s.wstats[i].stats
		want := WorkerStats{
			Nodes: int64(10 + i), BusyNs: int64(20 + i), QueueWaitNs: int64(30 + i), IdleNs: int64(50 - i),
			WallNs: int64(100 + i), Steals: own.Steals, StolenNodes: own.StolenNodes,
		}
		if w != want {
			t.Errorf("PerWorker[%d] = %+v, want %+v", i, w, want)
		}
	}

	reserved := []string{"status", "nodes", "runtime_s", "per_worker", "stop", "obj", "bound", "gap"}
	checkTags := func(rt reflect.Type, reserved []string) {
		seen := map[string]string{}
		for _, k := range reserved {
			seen[k] = "the Result"
		}
		for i := 0; i < rt.NumField(); i++ {
			f := rt.Field(i)
			if f.Type.Kind() != reflect.Int64 {
				continue
			}
			key := f.Tag.Get("trace")
			if key == "" {
				t.Errorf("%s.%s has no trace tag", rt.Name(), f.Name)
			} else if other, dup := seen[key]; dup {
				t.Errorf("%s.%s and %s share the trace key %q", rt.Name(), f.Name, other, key)
			}
			seen[key] = f.Name
		}
	}
	checkTags(reflect.TypeFor[Stats](), reserved)
	checkTags(reflect.TypeFor[WorkerStats](), nil)
}

// TestProcessCountersMatchStats: over one solve, every process-wide counter
// a Stats or WorkerStats field names in its counter tag moves by exactly
// that field (WorkerStats fields summed over the workers), the three live
// counters by the solve, node and incumbent counts, and no other milp
// counter moves at all. The names are pinned: they are what /debug/vars,
// bench/ and raha-experiments read.
func TestProcessCountersMatchStats(t *testing.T) {
	m := knapsack(18, 3)
	before := obs.Default.Snapshot()
	res, err := m.Solve(Params{Workers: 4, OnProgress: func(Progress) {}}) // observed, so timed
	if err != nil {
		t.Fatal(err)
	}
	after := obs.Default.Snapshot()

	want := map[string]int64{
		"milp.solves":     1,
		"milp.nodes":      int64(res.Nodes),
		"milp.incumbents": res.Stats.IncumbentUpdates,
	}
	tally := func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			if name := v.Type().Field(i).Tag.Get("counter"); name != "" {
				want[name] += v.Field(i).Int()
			}
		}
	}
	tally(reflect.ValueOf(res.Stats))
	for _, w := range res.Stats.PerWorker {
		tally(reflect.ValueOf(w))
	}
	for _, name := range []string{
		"milp.warm_starts", "milp.cold_fallbacks", "milp.propagation_prunes", "milp.budget_prunes",
		"milp.presolve_fixed_vars", "milp.presolve_removed_rows", "milp.presolve_tightened_bounds",
		"milp.presolve_tightened_coefs", "milp.steals", "milp.stolen_nodes", "milp.failed_steals",
		"milp.worker_busy_ns", "milp.worker_wait_ns", "milp.worker_idle_ns", "milp.restarts",
	} {
		if _, ok := want[name]; !ok {
			t.Errorf("no Stats or WorkerStats field is tagged counter:%q", name)
		}
	}
	if len(want) != 3+15 {
		t.Errorf("%d counters, want the 3 live ones and 15 tagged: %v", len(want), want)
	}
	if want["milp.warm_starts"] == 0 || want["milp.worker_busy_ns"] == 0 {
		t.Fatalf("solve too small to move the counters: %v", want)
	}
	for name, d := range after {
		if !strings.HasPrefix(name, "milp.") {
			continue
		}
		if got := d - before[name]; got != want[name] {
			t.Errorf("%s moved by %d over the solve, want %d", name, got, want[name])
		}
	}
}

// TestStatsConcurrentSampling hammers the exact interleaving the
// owner-only accounting must survive: four workers writing their own stats
// and utilization atomics while the sampler goroutine reads a live timeline
// at high frequency. Under -race this fails on any shared plain write or
// atomic/plain mixing; under a normal run it still checks that the
// mid-flight snapshots are sane and the final fold dominates every live
// observation.
func TestStatsConcurrentSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 6; i++ {
		m := knapsack(14+rng.Intn(6), int64(100+i))
		var liveMax int64
		res, err := m.Solve(Params{
			Workers:       4,
			ProgressEvery: time.Millisecond,
			OnProgress: func(p Progress) {
				if p.Incumbents < 0 {
					t.Errorf("live incumbent counter went negative: %d", p.Incumbents)
				}
				if p.Incumbents > liveMax {
					liveMax = p.Incumbents
				}
			},
		})
		if err != nil {
			t.Fatalf("inst=%d: %v", i, err)
		}
		if res.Stats.IncumbentUpdates < liveMax {
			t.Fatalf("inst=%d: final IncumbentUpdates %d below a live observation %d",
				i, res.Stats.IncumbentUpdates, liveMax)
		}
		if got := statsOutcomes(res.Stats); got != int64(res.Nodes) {
			t.Fatalf("inst=%d: outcome sum %d != Nodes %d under concurrent sampling",
				i, got, res.Nodes)
		}
	}
}
