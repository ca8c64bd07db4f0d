package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"raha"
	"raha/internal/obs"
)

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the recorder was created; Parent indexes the enclosing
// span (-1 at the root) and Op numbers the operation the span belongs to
// (-1 outside any op).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// recorder keeps spans in memory until the run ends. Only the benchmark's
// main goroutine opens and closes spans, so it needs no lock. A nil
// recorder records nothing: untraced runs pass nil everywhere.
type recorder struct {
	t0    time.Time
	spans []span
	cur   int // innermost open span, -1 at the root
	op    int // current op id, -1 outside ops
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), cur: -1, op: -1} }

// begin opens a span under the innermost open one and returns its id.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.t0).Nanoseconds(), End: -1, Parent: r.cur, Op: r.op})
	r.cur = id
	return id
}

// end closes span id (and makes its parent the innermost open span again).
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].End = time.Since(r.t0).Nanoseconds()
	r.cur = r.spans[id].Parent
}

// spanStat is the count and the summed self time of the spans sharing a
// name.
type spanStat struct {
	n  int
	ns int64
}

// spanStats sums, per span name, each span's duration minus the part of it
// its direct children cover. A child is clipped to its parent's interval, so
// a malformed child can never push a parent's self time below zero; a span
// whose parent index is out of range (an orphan) is treated as a root; an
// unclosed span counts for nothing.
func spanStats(spans []span) map[string]spanStat {
	covered := make([]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		if s.End < s.Start || s.Parent < 0 || s.Parent >= len(spans) || s.Parent == i {
			continue
		}
		p := &spans[s.Parent]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			covered[s.Parent] += hi - lo
		}
	}
	out := map[string]spanStat{}
	for i := range spans {
		s := &spans[i]
		if s.End < s.Start {
			continue
		}
		st := out[s.Name]
		st.n++
		st.ns += max(0, s.End-s.Start-covered[i])
		out[s.Name] = st
	}
	return out
}

// event is one program trace event kept by the sink, stamped with the
// recorder's clock and the op it arrived in.
type event struct {
	T      int64  `json:"t_ns"`
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Ev     string `json:"ev"`
	Fields obs.F  `json:"fields,omitempty"`
}

// sink is the benchmark-owned raha.Tracer. Solver workers, sweep goroutines
// and the progress sampler all emit into it, so it locks. Per-node events
// are only counted, without the lock; everything else is kept.
type sink struct {
	t0 time.Time

	total atomic.Int64 // every event received

	// "node" events, and those among them pruned by bound or by the LP
	// iteration cap.
	nodes, prunedBound, prunedIterLimit atomic.Int64

	mu   sync.Mutex
	op   int
	kept []event
}

func newSink(t0 time.Time) *sink { return &sink{t0: t0, op: -1} }

func (s *sink) Emit(layer, ev string, fields obs.F) {
	s.total.Add(1)
	switch ev {
	case "worker_sample":
		return
	case "node":
		s.nodes.Add(1)
		switch fields["reason"] {
		case "bound":
			s.prunedBound.Add(1)
		case "iterlimit":
			s.prunedIterLimit.Add(1)
		}
		return
	}
	t := time.Since(s.t0).Nanoseconds()
	s.mu.Lock()
	s.kept = append(s.kept, event{T: t, Op: s.op, Layer: layer, Ev: ev, Fields: fields})
	s.mu.Unlock()
}

// progress is the OnProgress callback: it keeps the sampled gap as a
// synthetic "progress" event so the primal-dual integral sees the dual
// bound move between incumbents.
func (s *sink) progress(p raha.SolveProgress) {
	f := obs.F{}
	if !math.IsInf(p.Gap, 0) && !math.IsNaN(p.Gap) {
		f["gap"] = p.Gap // absent = no finite gap yet, read as 1
	}
	s.Emit("bench", "progress", f)
}

func (s *sink) setOp(op int) {
	s.mu.Lock()
	s.op = op
	s.mu.Unlock()
}

// mark is the current position in the kept-event log; cut returns the
// events kept since a mark.
func (s *sink) mark() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.kept)
}

func (s *sink) cut(from int) []event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.kept[from:len(s.kept):len(s.kept)]
}

// tracing bundles what a traced op needs; nil means untraced.
type tracing struct {
	rec  *recorder
	sink *sink
	la   *layerAcc
	ops  int
}

func newTracing() *tracing {
	rec := newRecorder()
	return &tracing{rec: rec, sink: newSink(rec.t0), la: newLayerAcc()}
}

// beginOp and endOp bracket one traced op so its spans and events carry
// its number.
func (t *tracing) beginOp() {
	t.rec.op = t.ops
	t.sink.setOp(t.ops)
	t.ops++
}

func (t *tracing) endOp() {
	t.rec.op = -1
	t.sink.setOp(-1)
}

// mark is the sink's current log position, for cut after the op.
func (t *tracing) mark() int {
	if t == nil {
		return 0
	}
	return t.sink.mark()
}

func (t *tracing) recorder() *recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// flush writes the spans and kept events of the run to path.
func (t *tracing) flush(path string) error {
	return writeJSON(path, struct {
		Spans  []span  `json:"spans"`
		Events []event `json:"events"`
	}{t.rec.spans, t.sink.cut(0)})
}

// num reads a numeric event field; NaN when it is absent.
func num(f obs.F, key string) float64 {
	switch v := f[key].(type) {
	case float64:
		return v
	case int:
		return float64(v)
	case int64:
		return float64(v)
	}
	return math.NaN()
}

func numOr0(f obs.F, key string) float64 {
	if v := num(f, key); !math.IsNaN(v) {
		return v
	}
	return 0
}

// solveTrace is what the event log says about the solves of one op.
type solveTrace struct {
	solves                   int     // solve_start events
	vars, rows, ints         float64 // model size: last solve (single analyses) — see modelDims
	sumVars, sumRows, sumInt float64 // summed over solves, for the fleet mean
	preVars, preRows         float64
	sumPreVars, sumPreRows   float64
	presolves                int
	hints                    int     // metaopt hint analyses
	incumbents               int     // incumbent events of the last solve
	firstIncumbent           float64 // seconds from the last solve's start; 0 when none
	pdi                      float64 // primal-dual integral of the last solve, seconds
	topoRuntime              []float64
	// Sums of the solve_end phase clocks over every solve of the op.
	presolveNs, lpWarmNs, lpColdNs, heurNs, branchNs, runtimeNs float64
}

// readSolves folds an op's kept events. The "last solve" is the one opened
// by the final solve_start: in a single analysis the hint solves come first
// and the exact MILP last.
func readSolves(evs []event) solveTrace {
	var st solveTrace
	last := -1
	for i, e := range evs {
		switch e.Ev {
		case "solve_start":
			st.solves++
			last = i
			st.vars, st.rows, st.ints = num(e.Fields, "vars"), num(e.Fields, "cons"), num(e.Fields, "int_vars")
			st.sumVars, st.sumRows, st.sumInt = st.sumVars+st.vars, st.sumRows+st.rows, st.sumInt+st.ints
			st.preVars, st.preRows = st.vars, st.rows
		case "presolve_end":
			st.presolves++
			st.preVars, st.preRows = num(e.Fields, "vars"), num(e.Fields, "cons")
			st.sumPreVars, st.sumPreRows = st.sumPreVars+st.preVars, st.sumPreRows+st.preRows
		case "hint":
			st.hints++
		case "sweep_topo_end":
			st.topoRuntime = append(st.topoRuntime, num(e.Fields, "runtime_s"))
		case "solve_end":
			st.presolveNs += numOr0(e.Fields, "presolve_ns")
			st.lpWarmNs += numOr0(e.Fields, "lp_warm_ns")
			st.lpColdNs += numOr0(e.Fields, "lp_cold_ns")
			st.heurNs += numOr0(e.Fields, "heur_ns")
			st.branchNs += numOr0(e.Fields, "branch_ns")
			st.runtimeNs += numOr0(e.Fields, "runtime_s") * 1e9
		}
	}
	if last < 0 {
		return st
	}
	// Primal-dual integral of the last solve: gap(t) held constant between
	// samples, 1 before the first incumbent, capped at 1.
	start := evs[last].T
	gap, at := 1.0, start
	for _, e := range evs[last+1:] {
		var g float64
		switch e.Ev {
		case "incumbent":
			st.incumbents++
			if st.incumbents == 1 {
				st.firstIncumbent = float64(e.T-start) / 1e9
			}
			g = relGap(num(e.Fields, "obj"), num(e.Fields, "bound"))
		case "progress":
			g = num(e.Fields, "gap")
			if st.incumbents == 0 {
				g = 1
			}
		case "solve_end":
			g = 0
		default:
			continue
		}
		st.pdi += gap * float64(e.T-at) / 1e9
		at = e.T
		if math.IsNaN(g) || g > 1 {
			g = 1
		}
		gap = g
		if e.Ev == "solve_end" {
			break
		}
	}
	return st
}

// relGap mirrors the solver's relative gap: |bound − incumbent| over
// max(1, |incumbent|), NaN when either side is not finite.
func relGap(incumbent, bound float64) float64 {
	if math.IsNaN(incumbent) || math.IsInf(incumbent, 0) || math.IsNaN(bound) || math.IsInf(bound, 0) {
		return math.NaN()
	}
	return math.Abs(bound-incumbent) / math.Max(1, math.Abs(incumbent))
}
