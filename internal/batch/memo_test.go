package batch

import (
	"context"
	"math"
	"testing"

	"raha/internal/obs"
)

// reuseTracer counts the phases a sweep answered from an earlier cell's
// proof, by phase.
type reuseTracer struct{ reused [3]int }

func (r *reuseTracer) Emit(layer, ev string, f obs.F) {
	if layer == "batch" && ev == "phase_reused" {
		r.reused[f["phase"].(int)]++
	}
}

// TestGridReuseMatchesIndependentCells is the referee of the topology memo
// (topoMemo.solve): a sweep that reuses its grid's proofs must give every
// cell the answer a cell solved alone gives. Over the GML fixture corpus, B4
// and three synthetic WANs, each topology's grid runs once through Run, with
// one memo per topology, and once cell by cell with a fresh memo each. Status,
// Raised, Phase and the normalized degradation must agree cell for cell, on
// the default grid and on a grid written tightest first, and so must a third
// pass through one memo in grid order. Both sweeps must reuse a phase 1 and
// close a cell by its neighbours, or the test proves nothing.
func TestGridReuseMatchesIndependentCells(t *testing.T) {
	zoo, err := ZooDir("../topology/testdata")
	if err != nil {
		t.Fatal(err)
	}
	sources := append(append(zoo, Builtins()[0]), Synthetic(3, 7)...)
	tightFirst, err := ParseGrid("k=2,0;p=1e-3,1e-4")
	if err != nil {
		t.Fatal(err)
	}
	for _, grid := range []Grid{DefaultGrid(), tightFirst} {
		tr := &reuseTracer{}
		cfg := Config{Sources: sources, Grid: grid, Tolerance: 0.05, Workers: 1, Tracer: tr}
		rep, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := Config{Tolerance: cfg.Tolerance}
		cells := grid.Cells()
		for i, tres := range rep.Topologies {
			if tres.Err != "" {
				continue
			}
			top, err := loadSource(sources[i])
			if err != nil {
				t.Fatalf("%s: %v", tres.Name, err)
			}
			// The memo must be sound in any order, not only loosest first: the
			// same grid through one memo in grid order is held to the same
			// answers.
			inOrder := newTopoMemo(tres.Name)
			for j, cell := range cells {
				want := runCell(context.Background(), &ref, top, cell, 0, 1, newTopoMemo(tres.Name))
				for _, got := range []CellResult{tres.Cells[j], runCell(context.Background(), &ref, top, cell, 0, 1, inOrder)} {
					if got.Cell != cell || got.Err != "" || want.Err != "" {
						t.Fatalf("%s cell %d: %s (err %q), alone %s (err %q)", tres.Name, j, got.Name(), got.Err, cell.Name(), want.Err)
					}
					if got.Status != want.Status || got.Raised != want.Raised || got.Phase != want.Phase ||
						math.Abs(got.Normalized-want.Normalized) > 1e-6*(1+math.Abs(want.Normalized)) {
						t.Errorf("%s %s: %s raised %v phase %d at %.9g; alone %s raised %v phase %d at %.9g",
							tres.Name, cell.Name(), got.Status, got.Raised, got.Phase, got.Normalized,
							want.Status, want.Raised, want.Phase, want.Normalized)
					}
					if got.ClosedByNeighbour && got.ClosedByBound {
						t.Errorf("%s %s: closed both by its neighbours and by the budget bound", tres.Name, cell.Name())
					}
				}
			}
		}
		t.Logf("grid %v: %d phase 1 and %d phase 2 answers reused, %d of %d cells closed by a neighbour, %d by the bound",
			grid.MaxFailures, tr.reused[1], tr.reused[2], rep.CellsClosedByNeighbour, rep.CellsOK, rep.CellsClosedByBound)
		if tr.reused[1] == 0 || rep.CellsClosedByNeighbour == 0 {
			t.Errorf("grid %v: %d phase 1 answers reused, %d cells closed by a neighbour; want both > 0",
				grid.MaxFailures, tr.reused[1], rep.CellsClosedByNeighbour)
		}
	}
}
