package experiments

import (
	"fmt"
	"sync"
	"time"

	"raha/internal/milp"
	"raha/internal/obs"
)

// SweepProgress is one update of a figure sweep: how many analyses have
// finished and a projection of the time remaining, assuming the remaining
// points cost about what the finished ones did. Delivered to
// Setup.OnProgress after every completed analysis.
type SweepProgress struct {
	Figure  string
	Done    int
	Total   int
	Elapsed time.Duration
	ETA     time.Duration // zero until the first point completes
}

// String renders the update as a progress-bar line, e.g.
//
//	figure8 7/24 solves  elapsed 42s  eta 1m43s
func (p SweepProgress) String() string {
	eta := "-"
	if p.ETA > 0 {
		eta = p.ETA.Round(time.Second).String()
	}
	return fmt.Sprintf("%s %d/%d solves  elapsed %s  eta %s",
		p.Figure, p.Done, p.Total, p.Elapsed.Round(time.Second), eta)
}

// sweepTracker counts completed analyses of one figure sweep and fans the
// updates out to Setup.OnProgress and the tracer. Safe for concurrent step
// calls from a sweep's parallel workers.
type sweepTracker struct {
	s      *Setup
	figure string
	total  int
	start  time.Time

	mu   sync.Mutex
	done int
}

// sweep starts tracking a figure's sweep of total independent analyses.
func (s *Setup) sweep(figure string, total int) *sweepTracker {
	t := &sweepTracker{s: s, figure: figure, total: total, start: time.Now()}
	if s.Tracer != nil {
		s.Tracer.Emit("experiments", "sweep_start", obs.F{
			"figure": figure,
			"solves": total,
		})
	}
	return t
}

// step records one completed analysis and publishes the updated progress.
func (t *sweepTracker) step() {
	t.mu.Lock()
	t.done++
	p := SweepProgress{
		Figure:  t.figure,
		Done:    t.done,
		Total:   t.total,
		Elapsed: time.Since(t.start),
	}
	t.mu.Unlock()
	if p.Done > 0 && p.Done < p.Total {
		p.ETA = time.Duration(float64(p.Elapsed) / float64(p.Done) * float64(p.Total-p.Done))
	}
	if t.s.OnProgress != nil {
		t.s.OnProgress(p)
	}
	if t.s.Tracer != nil {
		t.s.Tracer.Emit("experiments", "sweep_point", obs.F{
			"figure":    t.figure,
			"done":      p.Done,
			"total":     p.Total,
			"elapsed_s": p.Elapsed.Seconds(),
			"eta_s":     p.ETA.Seconds(),
		})
	}
}

// solver builds the milp.Params every analysis of this setup shares: the
// setup's share of the worker budget (which the root-LP estimate may still
// shrink), and its tracer, so solver-layer events land in the same stream
// as the sweep's own.
func (s *Setup) solver() milp.Params {
	return milp.Params{
		TimeLimit: s.Budget,
		Workers:   s.Workers,
		Tracer:    s.Tracer,
	}
}
