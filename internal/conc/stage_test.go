package conc

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"raha/internal/obs"
)

// splitTracer records every event a stage emits.
type splitTracer struct {
	mu     sync.Mutex
	events []string // layer/ev
	fields []obs.F
}

func (r *splitTracer) Emit(layer, ev string, f obs.F) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, layer+"/"+ev)
	r.fields = append(r.fields, f)
}

// TestStageSplitsBudget: a stage of units jobs under a budget of 4 workers
// runs every index exactly once, at most fanout at a time, hands each job
// Split's per-solve share, and emits that split once under the caller's
// layer — fan-out first, the leftover inside each solve (one big job gets
// the whole budget, three get one worker each, sixteen run four at a time).
func TestStageSplitsBudget(t *testing.T) {
	for _, tt := range []struct{ units, fanout, perSolve int }{
		{1, 1, 4},
		{3, 3, 1},
		{16, 4, 1},
	} {
		tr := &splitTracer{}
		hit := make([]atomic.Int32, tt.units)
		var mu sync.Mutex
		cur, peak := 0, 0
		err := Stage(context.Background(), tr, "experiments", tt.units, 4, func(_ context.Context, i, perSolve int) error {
			mu.Lock()
			cur++
			peak = max(peak, cur)
			mu.Unlock()
			time.Sleep(time.Millisecond)
			mu.Lock()
			cur--
			mu.Unlock()
			hit[i].Add(1)
			if perSolve != tt.perSolve {
				t.Errorf("units %d: job %d got %d workers, want %d", tt.units, i, perSolve, tt.perSolve)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("units %d: %v", tt.units, err)
		}
		for i := range hit {
			if h := hit[i].Load(); h != 1 {
				t.Errorf("units %d: index %d ran %d times", tt.units, i, h)
			}
		}
		if peak > tt.fanout {
			t.Errorf("units %d: %d jobs ran at once, fanout %d", tt.units, peak, tt.fanout)
		}
		want := obs.F{"units": tt.units, "fanout": tt.fanout, "solver_workers": tt.perSolve}
		if len(tr.events) != 1 || tr.events[0] != "experiments/parallelism" {
			t.Fatalf("units %d: events %v, want one experiments/parallelism", tt.units, tr.events)
		}
		for k, v := range want {
			if tr.fields[0][k] != v {
				t.Errorf("units %d: event %s = %v, want %v", tt.units, k, tr.fields[0][k], v)
			}
		}
	}
}

// TestStageNilTracer: without a tracer a stage emits nothing and still
// runs every job.
func TestStageNilTracer(t *testing.T) {
	var ran atomic.Int32
	err := Stage(context.Background(), nil, "batch", 5, 2, func(context.Context, int, int) error {
		ran.Add(1)
		return nil
	})
	if err != nil || ran.Load() != 5 {
		t.Fatalf("err %v, %d of 5 jobs ran", err, ran.Load())
	}
}

// TestStageStopsOnErrorAndCancel: a stage returns its first job error, and
// a cancelled context stops it before the remaining jobs run.
func TestStageStopsOnErrorAndCancel(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int32
	err := Stage(context.Background(), nil, "metaopt", 1000, 2, func(_ context.Context, i, _ int) error {
		ran.Add(1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || ran.Load() == 1000 {
		t.Fatalf("err %v after %d jobs, want %v before the last job", err, ran.Load(), boom)
	}

	ctx, cancel := context.WithCancel(context.Background())
	ran.Store(0)
	err = Stage(ctx, nil, "metaopt", 1000, 2, func(context.Context, int, int) error {
		if ran.Add(1) == 4 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) || ran.Load() == 1000 {
		t.Fatalf("err %v after %d jobs, want context.Canceled before the last job", err, ran.Load())
	}
}
