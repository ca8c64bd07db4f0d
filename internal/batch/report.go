package batch

import (
	"sort"
	"time"

	"raha/internal/obs"
)

// hCellLatency feeds successful cell runtimes into the process-wide
// registry so a long sweep's latency distribution shows up on /metrics.
var hCellLatency = obs.Default.Histogram("batch.cell_ns")

// CellResult is one grid cell's outcome on one topology.
type CellResult struct {
	Cell

	// Err is non-empty when the cell failed: a solver error, a panic, a
	// model-check gate, an exhausted budget, or an invariant violation.
	// The other fields are meaningful only when Err is empty.
	Err string `json:",omitempty"`

	Raised     bool
	Phase      int     // raising phase (1 or 2), 0 when quiet
	Normalized float64 // worst degradation / mean LAG capacity

	Status        string // final solve status (Optimal, Feasible, ...)
	NodesExplored int64  // branch-and-bound nodes across both phases
	LPSolves      int64  // LP relaxations across both phases
	Runtime       time.Duration

	// ClosedByBound: the lost-capacity bound ended every phase that ran
	// (metaopt.Result.ClosedByBound) — nothing the budget allows hurts, or
	// the first incumbent to reach the bound drained the tree.
	ClosedByBound bool `json:",omitempty"`
	// ClosedByNeighbour: what the topology's looser cells had proved ended
	// every phase that ran, and not the lost-capacity bound alone — a phase
	// reused from an identical proven question, or a search the looser
	// cells' dual bound drained (DESIGN.md §2.10).
	ClosedByNeighbour bool `json:",omitempty"`
}

// TopoResult is one topology's sweep outcome: either a topology-level
// failure (Err set, no cells) or the full grid of cell results.
type TopoResult struct {
	Name string
	Kind string

	// Err records a topology-level failure: load error, disconnected
	// graph, no capacity, or a skipped slot after cancellation.
	Err     string `json:",omitempty"`
	Skipped bool   `json:",omitempty"` // cancelled before the topology started

	Nodes, LAGs, Links int

	Cells []CellResult `json:",omitempty"`

	// Worst* summarize the most fragile successful cell.
	WorstNormalized float64
	WorstCell       string `json:",omitempty"`
	WorstPhase      int
	WorstRaised     bool

	Runtime time.Duration
}

// cellCounts splits the topology's cells into succeeded and failed, and
// counts the succeeded ones the budget bound closed and the ones their
// looser neighbours closed.
func (t *TopoResult) cellCounts() (ok, failed, closedByBound, closedByNeighbour int) {
	for i := range t.Cells {
		c := &t.Cells[i]
		if c.Err != "" {
			failed++
			continue
		}
		ok++
		if c.ClosedByBound {
			closedByBound++
		}
		if c.ClosedByNeighbour {
			closedByNeighbour++
		}
	}
	return ok, failed, closedByBound, closedByNeighbour
}

// nodesAndSolves totals the branch-and-bound work across the topology's
// successful cells.
func (t *TopoResult) nodesAndSolves() (nodes, lpSolves int64) {
	for i := range t.Cells {
		if t.Cells[i].Err == "" {
			nodes += t.Cells[i].NodesExplored
			lpSolves += t.Cells[i].LPSolves
		}
	}
	return nodes, lpSolves
}

// FragilityEntry is one row of the ranked "most fragile topologies" report.
type FragilityEntry struct {
	Name string
	// Normalized is the topology's worst degradation across every
	// successful cell, divided by its mean LAG capacity.
	Normalized float64
	// Raised and Phase report whether (and in which phase) that worst cell
	// raised an alert.
	Raised bool
	Phase  int
	// Cell names the grid cell that produced the worst degradation.
	Cell string
	// Nodes and LPSolves total the search work spent on the topology.
	Nodes    int64
	LPSolves int64
}

// Failure is one recorded partial result: a topology or cell that did not
// produce a usable analysis.
type Failure struct {
	Topology string
	Cell     string `json:",omitempty"` // empty for topology-level failures
	Err      string
}

// Report is a finished sweep.
type Report struct {
	Topologies []TopoResult

	// Ranking orders every topology with at least one successful cell,
	// most fragile first.
	Ranking []FragilityEntry

	// Failures flattens every topology- and cell-level failure.
	Failures []Failure `json:",omitempty"`

	TopoCount   int // topologies in this shard (including failures)
	TopoFailed  int // topology-level failures (load, connectivity, skip)
	CellsTotal  int
	CellsOK     int
	CellsFailed int
	// CellsClosedByBound counts the OK cells whose phases the lost-capacity
	// bound ended (CellResult.ClosedByBound).
	CellsClosedByBound int
	// CellsClosedByNeighbour counts the OK cells their topology's looser
	// cells closed (CellResult.ClosedByNeighbour).
	CellsClosedByNeighbour int

	// Cancelled reports that the parent context died mid-sweep; the
	// report carries whatever completed first.
	Cancelled bool `json:",omitempty"`

	// Shard/NumShards echo the fleet slice this report covers (0/0 = all).
	Shard, NumShards int `json:",omitempty"`

	Elapsed time.Duration

	// Sweep throughput, the breadth metrics.
	CellsPerMin float64
	ToposPerMin float64

	// CellLatency is the runtime distribution of successful cells: the
	// tail (P99 vs P50) is the first place a hung topology or a
	// pathological grid cell shows up. Zero-valued when no cell succeeded.
	CellLatency obs.HistogramSnapshot
}

func assembleReport(cfg *Config, results []TopoResult, elapsed time.Duration, cancelled bool) *Report {
	rep := &Report{
		Topologies: results,
		TopoCount:  len(results),
		Cancelled:  cancelled,
		Shard:      cfg.Shard,
		NumShards:  cfg.NumShards,
		Elapsed:    elapsed,
	}
	for i := range results {
		t := &results[i]
		if t.Err != "" {
			rep.TopoFailed++
			rep.Failures = append(rep.Failures, Failure{Topology: t.Name, Err: t.Err})
		}
		ok, failed, closed, byNeighbour := t.cellCounts()
		rep.CellsOK += ok
		rep.CellsFailed += failed
		rep.CellsClosedByBound += closed
		rep.CellsClosedByNeighbour += byNeighbour
		rep.CellsTotal += len(t.Cells)
		for j := range t.Cells {
			if t.Cells[j].Err != "" {
				rep.Failures = append(rep.Failures, Failure{
					Topology: t.Name,
					Cell:     t.Cells[j].Name(),
					Err:      t.Cells[j].Err,
				})
			}
		}
		if ok > 0 {
			nodes, lps := t.nodesAndSolves()
			rep.Ranking = append(rep.Ranking, FragilityEntry{
				Name:       t.Name,
				Normalized: t.WorstNormalized,
				Raised:     t.WorstRaised,
				Phase:      t.WorstPhase,
				Cell:       t.WorstCell,
				Nodes:      nodes,
				LPSolves:   lps,
			})
		}
	}
	sort.Slice(rep.Ranking, func(i, j int) bool {
		a, b := rep.Ranking[i], rep.Ranking[j]
		if a.Normalized != b.Normalized { //raha:lint-allow float-cmp sort tie-break on identical degradations is harmless
			return a.Normalized > b.Normalized
		}
		return a.Name < b.Name
	})
	if mins := elapsed.Minutes(); mins > 0 {
		rep.CellsPerMin = float64(rep.CellsTotal) / mins
		rep.ToposPerMin = float64(rep.TopoCount) / mins
	}

	var lat obs.Histogram
	for i := range results {
		for j := range results[i].Cells {
			c := &results[i].Cells[j]
			if c.Err == "" && c.Runtime > 0 {
				lat.Observe(c.Runtime.Nanoseconds())
				hCellLatency.Observe(c.Runtime.Nanoseconds())
			}
		}
	}
	rep.CellLatency = lat.Snapshot()
	return rep
}
