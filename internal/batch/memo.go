package batch

import (
	"sort"

	"raha/internal/demand"
	"raha/internal/metaopt"
)

// topoMemo is what one topology's cells share: the tunnels per pair count,
// the gravity matrices over them, and the analysis sessions that answer
// their phases (metaopt.Sessions, which holds every reuse between them).
type topoMemo struct {
	name     string // the topology's, for trace events
	tunnels  map[int]tunnels
	gravity  map[gravityKey]demand.Matrix
	sessions metaopt.Sessions
}

// gravityKey names one demand.Gravity matrix of a topology: its pair count
// (the tunnels' pair set), scale and seed.
type gravityKey struct {
	pairs int
	scale float64
	seed  int64
}

func newTopoMemo(name string) *topoMemo {
	return &topoMemo{name: name, tunnels: make(map[int]tunnels), gravity: make(map[gravityKey]demand.Matrix)}
}

// solveOrder returns the indices of cells, loosest budget first: no count
// row before any, larger k before smaller, then lower thresholds first. A
// cell looser than another sorts before it, so every looser neighbour has
// been solved when a cell starts. The sort is stable: cells of one budget
// keep their grid order.
func solveOrder(cells []Cell) []int {
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := cells[order[i]], cells[order[j]]
		if a.MaxFailures != b.MaxFailures {
			return a.MaxFailures == 0 || b.MaxFailures != 0 && a.MaxFailures > b.MaxFailures
		}
		return a.Threshold < b.Threshold
	})
	return order
}
