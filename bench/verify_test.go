package main

import (
	"strings"
	"testing"
	"time"

	"raha"
)

// smallAnalysis is a quick variable-demand pool on B4 for the tests.
func smallAnalysis() *analysisWorkload {
	return &analysisWorkload{analysisSpec: analysisSpec{
		topo: raha.B4, pairs: 4, seeds: []int64{4, 5}, primary: 2,
		slack: 0.5, quantBits: 2, exhaustive: true,
	}}
}

// solved runs instance 0 of smallAnalysis and returns the oracle that
// accepts its result.
func solved(t *testing.T) (oracle, *raha.Result) {
	t.Helper()
	w := smallAnalysis()
	if err := w.setup(nil); err != nil {
		t.Fatal(err)
	}
	in := w.inst[0]
	dps, err := raha.ComputePaths(in.top, in.pairs, w.primary, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, env, err := w.analyze(in, dps, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := oracle{top: in.top, dps: dps, env: env, threshold: probThreshold}
	if err := o.check(res, nil); err != nil {
		t.Fatalf("oracle rejects an untouched result: %v", err)
	}
	if res.Degradation <= 0 || res.Scenario.NumFailedLinks() == 0 {
		t.Fatalf("test instance has no degradation to tamper with: %+v", res)
	}
	return o, res
}

// nudgeDemand moves the first demand that carries traffic to half its
// value: still inside the envelope, but no longer the analysed point.
func nudgeDemand(res *raha.Result) {
	for k, d := range res.Demands {
		if d > 0 {
			res.Demands[k] = d / 2
			return
		}
	}
}

// reviveLink brings the first failed link back up.
func reviveLink(res *raha.Result) {
	for e := range res.Scenario.LinkDown {
		for l, down := range res.Scenario.LinkDown[e] {
			if down {
				res.Scenario.LinkDown[e][l] = false
				return
			}
		}
	}
}

func TestOracleRejectsTamperedResults(t *testing.T) {
	for name, tamper := range map[string]func(*raha.Result){
		"demand nudged":       nudgeDemand,
		"failed link flipped": reviveLink,
		"demand outside envelope": func(r *raha.Result) {
			r.Demands[0] = -1
		},
		"unsound bound": func(r *raha.Result) { r.Bound = r.Degradation / 2 },
		"improbable scenario": func(r *raha.Result) {
			for e := range r.Scenario.LinkDown {
				r.Scenario.FailLAG(e)
			}
		},
	} {
		o, res := solved(t)
		tamper(res)
		if err := o.check(res, nil); err == nil {
			t.Errorf("%s: oracle accepted the result", name)
		}
	}
}

// A wrong answer must surface in the run's result line: failed analyses
// counted, correct false.
func TestTamperedOpsCountAsFailed(t *testing.T) {
	for name, tamper := range map[string]func(*raha.Result){"demand nudged": nudgeDemand, "failed link flipped": reviveLink} {
		w := smallAnalysis()
		if err := w.setup(nil); err != nil {
			t.Fatal(err)
		}
		w.tamper = tamper
		st := w.op(0, nil)
		if st.attempted != 1 || st.failed != 1 || len(st.errs) == 0 {
			t.Errorf("%s: op reported attempted %d failed %d errs %v", name, st.attempted, st.failed, st.errs)
		}
		w.tamper = nil
		rd := &runData{setups: []setupStats{{wall: time.Second}}, ops: []opStats{st, w.op(1, nil)}}
		rec := report("small", 1, 0, 0, rd)
		if rec.Correct || rec.Failed != 1 || rec.Attempted != 2 || rec.Detail.FailedFrac != 0.5 {
			t.Errorf("%s: record correct %v failed %d/%d failed_frac %g", name, rec.Correct, rec.Failed, rec.Attempted, rec.Detail.FailedFrac)
		}
		if !strings.Contains(strings.Join(rec.Detail.Errors, " "), "instance 0") {
			t.Errorf("%s: record does not name the failed instance: %v", name, rec.Detail.Errors)
		}
	}
}
