package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is the
// median, at the nominal machine speed like the op times (see gatedPass).
const setupRepeats = 3

// maxTraceOverhead is the traced ÷ untraced op time above which a traced
// run is flagged.
const maxTraceOverhead = 1.05

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// advisoryValue is a number the host may be unable to measure: Value is
// null then, and Reason says why.
type advisoryValue struct {
	Value  *float64 `json:"value"`
	Reason string   `json:"reason,omitempty"`
}

// runRecord is a run's full account: the result line plus what the sets
// protocol and -compare need (spread of the op times, exact counts).
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Shift    int64   `json:"shift"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	Set      int     `json:"set,omitempty"`
	result
	Detail runDetail `json:"detail"`
}

// opSample is one op as timed: enough to gate the run again by another rule.
type opSample struct {
	Inst  int     `json:"inst"`
	WallS float64 `json:"wall_s"`
	CPUS  float64 `json:"cpu_s"`
	RefMs float64 `json:"ref_ms"`
}

type runDetail struct {
	Ops          int                      `json:"ops"`
	TimedWallS   float64                  `json:"timed_wall_s"`
	OpWallP50S   float64                  `json:"op_wall_p50_s"`              // untraced ops of this run, as the clock read
	OpWallS      float64                  `json:"op_wall_s"`                  // the same at the nominal machine speed (the gated figure)
	TracedWallS  float64                  `json:"traced_op_wall_s,omitempty"` // likewise for the traced ops
	TracedMeanS  float64                  `json:"traced_op_wall_mean_s,omitempty"`
	OpWallMinS   float64                  `json:"op_wall_fastest_op_s"`
	OpWallQ1S    float64                  `json:"op_wall_q1_s"`
	OpWallQ3S    float64                  `json:"op_wall_q3_s"`
	OpWallMaxS   float64                  `json:"op_wall_slowest_op_s"`
	SetupsS      []float64                `json:"setups_s"`
	ProvedFrac   float64                  `json:"proved_frac"`
	FailedFrac   float64                  `json:"failed_frac"`
	Nodes        []int64                  `json:"milp_nodes_per_op"`
	LPIterations []int64                  `json:"lp_iterations_per_op"`
	RefMsP50     float64                  `json:"ref_ms_p50"`
	Each         []opSample               `json:"each_op"` // every untraced op, in the order run
	Errors       []string                 `json:"errors,omitempty"`
	Flags        []string                 `json:"flags,omitempty"`
	Advisory     map[string]advisoryValue `json:"advisory,omitempty"`
}

// measure is one process's job: set up, run the closed loop for about secs
// seconds (whole passes over the instance pool, one client, ops back to
// back), and return what was measured. In a traced run the passes alternate
// untraced/traced so that both see the same machine phase; the per-layer
// figures come from the traced ones.
//
// The reference kernel runs before the first and after every timed piece
// (set-up, op), so each piece is bracketed by two samples of the machine's
// speed; their mean is the piece's ref.
func measure(w workload, seed int64, secs float64, traced bool) (*runData, error) {
	rd := &runData{refShare: w.refShare()}
	var tr *tracing
	if traced {
		tr = newTracing()
		rd.tr = tr
	}
	before := refSample()
	bracket := func() time.Duration {
		after := refSample()
		rd.refs = append(rd.refs, after)
		ref := (before + after) / 2
		before = after
		return ref
	}
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if err := w.setup(tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		wall := time.Since(start)
		rd.setups = append(rd.setups, setupStats{wall: wall, ref: bracket()})
	}

	runtime.GC() // every run starts its loop from a collected heap
	before = refSample()
	rng := rand.New(rand.NewSource(seed))
	budget := time.Duration(secs * float64(time.Second))
	start := time.Now()
	for pass := 0; ; pass++ {
		tracedPass := traced && pass%2 == 1
		for _, i := range rng.Perm(w.instances()) {
			if tracedPass {
				tr.beginOp()
				st := w.op(i, tr)
				tr.endOp()
				st.ref = bracket()
				rd.traced = append(rd.traced, st)
			} else {
				st := w.op(i, nil)
				st.ref = bracket()
				rd.ops = append(rd.ops, st)
			}
		}
		if tracedPass {
			for i := 0; i < w.instances(); i++ {
				w.probe(i, tr)
			}
			before = refSample()
		}
		if time.Since(start) >= budget && (!traced || tracedPass) {
			break
		}
	}
	if traced {
		rd.advisory = w.advisory()
	}
	if kb, ok := procStatusKB("VmHWM"); ok {
		rd.peakRSS = kb / 1024
	}
	return rd, nil
}

// report turns a run into its record.
func report(name string, seed, shift int64, secs float64, rd *runData) runRecord {
	rec := runRecord{Workload: name, Seed: seed, Shift: shift, Seconds: secs, Traced: rd.tr != nil}
	rec.Metrics = map[string]metricValue{}
	defs, values := endToEnd, endToEndValues(rd)
	if rd.tr != nil {
		defs, values = perLayer, perLayerValues(rd)
	}
	for _, d := range defs {
		rec.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}

	var walls []float64
	proved := 0
	for _, op := range append(append([]opStats(nil), rd.ops...), rd.traced...) {
		rec.Attempted += op.attempted
		rec.Failed += op.failed
		proved += op.proved
		rec.Detail.Errors = append(rec.Detail.Errors, op.errs...)
	}
	for _, op := range rd.ops {
		walls = append(walls, op.wall.Seconds())
		rec.Detail.TimedWallS += op.wall.Seconds()
		rec.Detail.Nodes = append(rec.Detail.Nodes, op.nodes)
		rec.Detail.LPIterations = append(rec.Detail.LPIterations, op.lpIters)
		rec.Detail.Each = append(rec.Detail.Each, opSample{op.inst, op.wall.Seconds(), op.cpu.Seconds(), op.ref.Seconds() * 1e3})
	}
	rec.Correct = rec.Failed == 0
	d := &rec.Detail
	d.Ops = len(rd.ops)
	d.OpWallP50S = opWallP50(rd.ops)
	if tp := gatedPass(rd.ops, rd.refShare); tp.instances > 0 {
		d.OpWallS = tp.wall / float64(tp.instances)
	}
	if tp := gatedPass(rd.traced, rd.refShare); tp.instances > 0 {
		d.TracedWallS = tp.wall / float64(tp.instances)
		for _, op := range rd.traced {
			d.TracedMeanS += op.wall.Seconds() / float64(len(rd.traced))
		}
	}
	d.OpWallQ1S, _, d.OpWallQ3S = quartiles(walls)
	d.OpWallMinS, d.OpWallMaxS = walls[0], walls[0]
	for _, w := range walls {
		d.OpWallMinS, d.OpWallMaxS = min(d.OpWallMinS, w), max(d.OpWallMaxS, w)
	}
	for _, su := range rd.setups {
		d.SetupsS = append(d.SetupsS, su.wall.Seconds())
	}
	d.ProvedFrac = float64(proved) / float64(rec.Attempted)
	d.FailedFrac = float64(rec.Failed) / float64(rec.Attempted)
	d.RefMsP50 = median(seconds(rd.refs)) * 1e3
	d.Advisory = rd.advisory
	if r := rec.Metrics["obs.trace_overhead_ratio"].Value; r > maxTraceOverhead {
		d.Flags = append(d.Flags, fmt.Sprintf("obs.trace_overhead_ratio %.3f > %.2f: tracing (or a machine phase) slowed the traced passes; read this run's per-layer times with care", r, maxTraceOverhead))
	}
	return rec
}

// printRecord writes every metric as "name value unit", then the result
// object as the last line.
func printRecord(w io.Writer, rec runRecord) error {
	defs := endToEnd
	if rec.Traced {
		defs = perLayer
	}
	var b strings.Builder
	for _, d := range defs {
		fmt.Fprintf(&b, "%-32s %.6g %s\n", d.Name, rec.Metrics[d.Name].Value, d.Unit)
	}
	for _, e := range rec.Detail.Errors {
		fmt.Fprintf(&b, "FAILED %s\n", e)
	}
	for _, f := range rec.Detail.Flags {
		fmt.Fprintf(&b, "FLAG %s\n", f)
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s%s\n", b.String(), line)
	return err
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// scalingProbe compares node throughput at two workers with one on a
// single instance. It is advisory: wall ratios at Workers > 1 swing with
// search order, and the figure is unmeasurable on a one-CPU host.
func scalingProbe(nodesPerSec func(workers int) (float64, error)) advisoryValue {
	if runtime.GOMAXPROCS(0) < 2 {
		return advisoryValue{Reason: "GOMAXPROCS < 2: two workers would share one CPU"}
	}
	one, err := nodesPerSec(1)
	if err != nil {
		return advisoryValue{Reason: err.Error()}
	}
	two, err := nodesPerSec(2)
	if err != nil {
		return advisoryValue{Reason: err.Error()}
	}
	v := ratio(two, one)
	return advisoryValue{Value: &v}
}
