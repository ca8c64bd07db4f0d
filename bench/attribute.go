package main

import (
	"fmt"
	"io"
	"strings"
)

// attribute prints, for each traced run of a -sets record, where an op's
// time went by layer: means over the traced ops, summed against the mean
// wall of those same ops, with the untraced passes of the same run beside
// them (another run sits in another machine phase). This is the
// table bench/README.md carries.
func attribute(w io.Writer, path string) error {
	var rec setsRecord
	if err := readJSON(path, &rec); err != nil {
		return err
	}
	var b strings.Builder
	for _, name := range workloadNames() {
		var traced *runRecord
		for i, r := range rec.Runs {
			if r.Workload == name && r.Traced {
				traced = &rec.Runs[i]
			}
		}
		if traced == nil {
			return fmt.Errorf("%s: record has no traced run", name)
		}
		m := func(metric string) float64 { return traced.Metrics[metric].Value }
		rows := singleRows(m)
		unit, total := "s", traced.Detail.TracedMeanS
		if name == "fleet_sweep" {
			rows = fleetRows(m)
			// The sweep's layers run on several workers: the rows are
			// worker-seconds and add up to workers × wall × efficiency.
			unit, total = "worker-s", total*min(2, m("machine.gomaxprocs"))*m("batch.fanout_efficiency")
		}
		var sum float64
		for _, r := range rows {
			sum += r.v
		}
		fmt.Fprintf(&b, "\n**%s** — traced ops: mean %.3f s as the clock read, %.3f s at the nominal machine speed; untraced passes of the same run: %.3f s at the nominal speed (trace overhead ratio %.3f), median %.3f s as the clock read\n\n",
			name, traced.Detail.TracedMeanS, traced.Detail.TracedWallS, traced.Detail.OpWallS, m("obs.trace_overhead_ratio"), traced.Detail.OpWallP50S)
		fmt.Fprintf(&b, "| layer (self time) | %s per op | share |\n|---|---|---|\n", unit)
		for _, r := range rows {
			fmt.Fprintf(&b, "| %s | %.4f | %.1f%% |\n", r.name, r.v, 100*r.v/sum)
		}
		fmt.Fprintf(&b, "| **sum** | %.4f | %.1f%% of the traced mean, %.4f %s |\n", sum, 100*sum/total, total, unit)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

type attrRow struct {
	name string
	v    float64
}

// singleRows splits one single-topology op. The exact MILP's LP time is
// what is left of solve_s after the other phase clocks.
func singleRows(m func(string) float64) []attrRow {
	lp := m("metaopt.solve_s") - m("milp.presolve_s") - m("milp.heur_s") - m("milp.branch_s") - m("milp.search_self_s")
	return []attrRow{
		{"`paths` k-shortest tunnels", m("paths.compute_s")},
		{"`metaopt` model build (+ `failures` encoding)", m("metaopt.build_self_s")},
		{"`metaopt` hint analyses (their own build, MILP and LP verify)", m("metaopt.hint_s")},
		{"`milp` presolve", m("milp.presolve_s")},
		{"`lp` solves inside the exact MILP (warm re-solves + cold root/fallbacks)", lp},
		{"`milp` branching, propagation, node bookkeeping", m("milp.branch_s")},
		{"`milp` rounding heuristic (outside its LPs)", m("milp.heur_s")},
		{"`milp` search remainder (queue, sampler, set-up, fold)", m("milp.search_self_s")},
		{"`metaopt`/`te` LP verification of the incumbent", m("metaopt.verify_s")},
		{"benchmark loop inside the op (span bookkeeping)", m("obs.op_self_s")},
	}
}

// fleetRows splits one sweep in worker-seconds. Cells carry no Stats, so
// everything outside the solves is one row, and the load row is the direct
// loader calls of the traced pass (one per source, as in the sweep).
func fleetRows(m func(string) float64) []attrRow {
	lp := m("lp.warm_s") + m("lp.cold_s")
	sources := m("batch.cells")/8 + m("topology.load_failures")
	return []attrRow{
		{"`topology` loaders (GML parse, `Generate`, builtin constructors)", sources * m("topology.load_s")},
		{"`milp` presolve", m("milp.presolve_s")},
		{"`lp` warm re-solves", m("lp.warm_s")},
		{"`lp` cold solves", m("lp.cold_s")},
		{"`milp` branching, propagation, node bookkeeping", m("milp.branch_s")},
		{"`milp` rounding heuristic (outside its LPs)", m("milp.heur_s")},
		{"`milp` search remainder", m("metaopt.solve_s") - lp - m("milp.presolve_s") - m("milp.heur_s") - m("milp.branch_s")},
		{"cells outside solves: `demand` pairs, `paths`, `metaopt` build and verify, `alert`/`batch` checks", m("alert.run_s") - m("metaopt.solve_s")},
	}
}
