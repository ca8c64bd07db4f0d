package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"raha/internal/milp"
	"raha/internal/obs"
)

// trace is one parsed JSONL trace file, reduced to the aggregates the
// subcommands print. A file may hold many solves (raha analyze runs one
// MILP per analysis step); aggregates sum across all of them.
type trace struct {
	path   string
	events int
	layers map[string]int // events per layer

	solves   int     // solve_end events seen
	runtimeS float64 // summed solve wall clock
	nodes    int64

	// stats sums every solve_end's counters (milp.Stats.AddTrace); its
	// PerWorker is indexed by worker id, summed across solves.
	stats milp.Stats

	depths     map[int]int64    // node depth -> count
	reasons    map[string]int64 // fathom reason -> count
	incumbents []incPoint
	samples    []sample // worker_sample timeline, in file order
}

type incPoint struct {
	t     float64
	obj   float64
	nodes int64
}

// sample is one worker_sample event: cumulative per-worker counters at
// time t. Differencing consecutive samples yields the utilization timeline.
type sample struct {
	t      float64
	busyNs []int64
	waitNs []int64
	nodes  []int64
}

// parseTrace reads one JSONL trace. Malformed lines fail hard with their
// line number — a trace that does not parse must fail CI, not be skipped.
func parseTrace(path string) (*trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := parseTraceFrom(f)
	if err != nil {
		return nil, fmt.Errorf("%s:%v", path, err)
	}
	tr.path = path
	return tr, nil
}

func parseTraceFrom(r io.Reader) (*trace, error) {
	tr := &trace{
		layers:  make(map[string]int),
		depths:  make(map[int]int64),
		reasons: make(map[string]int64),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24) // worker_sample lines grow with worker count
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("%d: %v", line, err)
		}
		if e.Layer == "" || e.Ev == "" {
			return nil, fmt.Errorf("%d: event missing layer or ev", line)
		}
		tr.events++
		tr.layers[e.Layer]++
		if e.Layer == "milp" {
			if err := tr.addMILP(e); err != nil {
				return nil, fmt.Errorf("%d: %s event: %v", line, e.Ev, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%d: %v", line, err)
	}
	if tr.events == 0 {
		return nil, fmt.Errorf("1: empty trace")
	}
	return tr, nil
}

func (tr *trace) addMILP(e obs.Event) error {
	f := e.Fields
	switch e.Ev {
	case "node":
		tr.depths[int(fnum(f, "depth"))]++
		reason, _ := f["reason"].(string)
		if reason == "" {
			return fmt.Errorf("missing reason")
		}
		tr.reasons[reason]++
	case "incumbent":
		tr.incumbents = append(tr.incumbents, incPoint{
			t:     e.T,
			obj:   fnum(f, "obj"),
			nodes: int64(fnum(f, "nodes")),
		})
	case "worker_sample":
		s := sample{
			t:      e.T,
			busyNs: fints(f, "w_busy_ns"),
			waitNs: fints(f, "w_wait_ns"),
			nodes:  fints(f, "w_nodes"),
		}
		if s.busyNs != nil {
			tr.samples = append(tr.samples, s)
		}
	case "solve_end":
		tr.solves++
		tr.runtimeS += fnum(f, "runtime_s")
		tr.nodes += int64(fnum(f, "nodes"))
		return tr.stats.AddTrace(f)
	}
	return nil
}

// attributedNs is the total time the trace accounts for: root presolve plus
// every disjoint in-node bucket plus queue wait. Zero means the trace came
// from an unobserved or solver-free run and there is nothing to analyze.
func (tr *trace) attributedNs() int64 {
	st := &tr.stats
	return st.PresolveNs + st.LPWarmNs + st.LPColdNs + st.HeurNs + st.BranchNs +
		st.QueuePopNs + st.QueuePushNs
}

// workerWallNs sums every worker's lifetime; the denominator for worker-
// time shares. Falls back to runtime_s when the trace predates per_worker.
func (tr *trace) workerWallNs() int64 {
	var total int64
	for _, w := range tr.stats.PerWorker {
		total += w.WallNs
	}
	if total == 0 {
		total = int64(tr.runtimeS * 1e9)
	}
	return total
}

// idleNs is the summed worker idle remainder.
func (tr *trace) idleNs() int64 {
	var total int64
	for _, w := range tr.stats.PerWorker {
		total += w.IdleNs
	}
	return total
}

// sortedLayers renders the per-layer event counts deterministically.
func (tr *trace) sortedLayers() string {
	keys := make([]string, 0, len(tr.layers))
	for k := range tr.layers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for i, k := range keys {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%d", k, tr.layers[k])
	}
	return out
}

// fnum reads a numeric field (JSON numbers decode as float64). Missing
// fields read as 0: older traces simply lack newer fields.
func fnum(f obs.F, key string) float64 {
	v, _ := f[key].(float64)
	return v
}

// fints reads an []int64 field from a decoded event ([]any of float64).
func fints(f obs.F, key string) []int64 {
	raw, ok := f[key].([]any)
	if !ok {
		return nil
	}
	out := make([]int64, len(raw))
	for i, v := range raw {
		x, ok := v.(float64)
		if !ok {
			return nil
		}
		out[i] = int64(x)
	}
	return out
}
