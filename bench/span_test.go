package main

import (
	"math"
	"testing"

	"raha/internal/obs"
)

func TestSpanSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "paths", Start: 10, End: 30, Parent: 0},
		{Name: "analyze", Start: 40, End: 90, Parent: 0},
		{Name: "solve", Start: 50, End: 80, Parent: 2},
		{Name: "late", Start: 95, End: 150, Parent: 0},     // runs past its parent: clipped to 5
		{Name: "orphan", Start: 200, End: 230, Parent: 99}, // no such parent: a root
		{Name: "open", Start: 300, End: -1, Parent: 0},     // never closed: counts for nothing
	}
	got := map[string]int64{}
	for name, st := range spanStats(spans) {
		got[name] = st.ns
	}
	want := map[string]int64{"op": 100 - 20 - 50 - 5, "paths": 20, "analyze": 20, "solve": 30, "late": 55, "orphan": 30}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
	if _, ok := got["open"]; ok {
		t.Errorf("unclosed span was given a self time")
	}
	// Children never exceed their parent: no self time is negative, and
	// within one tree the self times add up to the root's duration.
	var tree int64
	for _, name := range []string{"op", "paths", "analyze", "solve"} {
		if got[name] < 0 {
			t.Errorf("negative self time for %s", name)
		}
		tree += got[name]
	}
	if tree+5 != 100 { // +5: the clipped part of "late"
		t.Errorf("self times of the op tree sum to %d, want 95 + 5 clipped", tree)
	}
}

func TestRecorderNesting(t *testing.T) {
	r := newRecorder()
	a := r.begin("a")
	b := r.begin("b")
	r.end(b)
	c := r.begin("c")
	r.end(c)
	r.end(a)
	d := r.begin("d")
	r.end(d)
	for i, want := range []int{-1, a, a, -1} {
		if r.spans[i].Parent != want {
			t.Errorf("span %d parent = %d, want %d", i, r.spans[i].Parent, want)
		}
		if r.spans[i].End < r.spans[i].Start {
			t.Errorf("span %d not closed", i)
		}
	}
	var nilRec *recorder
	nilRec.end(nilRec.begin("ignored")) // untraced runs pass nil: must not panic
}

func TestPrimalDualIntegral(t *testing.T) {
	sec := func(s float64) int64 { return int64(s * 1e9) }
	evs := []event{
		{T: sec(0), Ev: "solve_start", Fields: obs.F{"vars": 10, "cons": 20, "int_vars": 5}}, // a hint solve
		{T: sec(1), Ev: "solve_end", Fields: obs.F{"runtime_s": 1.0}},
		{T: sec(1), Ev: "hint"},
		{T: sec(2), Ev: "solve_start", Fields: obs.F{"vars": 30, "cons": 40, "int_vars": 15}},
		{T: sec(3), Ev: "progress", Fields: obs.F{}},                            // no incumbent yet: gap stays 1
		{T: sec(4), Ev: "incumbent", Fields: obs.F{"obj": 10.0, "bound": 15.0}}, // gap 0.5
		{T: sec(6), Ev: "progress", Fields: obs.F{"gap": 0.25}},
		{T: sec(8), Ev: "solve_end", Fields: obs.F{"runtime_s": 6.0, "lp_warm_ns": int64(5)}},
	}
	st := readSolves(evs)
	if want := 2*1 + 2*0.5 + 2*0.25; math.Abs(st.pdi-want) > 1e-9 {
		t.Errorf("primal-dual integral = %g, want %g", st.pdi, want)
	}
	if st.solves != 2 || st.hints != 1 || st.vars != 30 || st.sumVars != 40 {
		t.Errorf("solves %d hints %d vars %g sumVars %g", st.solves, st.hints, st.vars, st.sumVars)
	}
	if st.incumbents != 1 || math.Abs(st.firstIncumbent-2) > 1e-9 {
		t.Errorf("incumbents %d, first at %g s; want 1 at 2 s", st.incumbents, st.firstIncumbent)
	}
	if st.runtimeNs != 7e9 || st.lpWarmNs != 5 {
		t.Errorf("solve_end sums: runtime %g lp_warm %g", st.runtimeNs, st.lpWarmNs)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of three = %g %g %g", q1, q2, q3)
	}
}
