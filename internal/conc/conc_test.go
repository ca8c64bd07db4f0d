package conc

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachRunsEveryIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		var hit [50]atomic.Int32
		err := ForEach(context.Background(), len(hit), workers, func(_ context.Context, i int) error {
			hit[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hit {
			if h := hit[i].Load(); h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur atomic.Int32
	var peak int32
	var mu sync.Mutex
	err := ForEach(context.Background(), 24, workers, func(_ context.Context, i int) error {
		n := cur.Add(1)
		mu.Lock()
		if n > peak {
			peak = n
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak > workers {
		t.Fatalf("observed %d concurrent calls, limit %d", peak, workers)
	}
}

func TestForEachReturnsFirstErrorAndStops(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int32
	err := ForEach(context.Background(), 1000, 2, func(ctx context.Context, i int) error {
		ran.Add(1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if n := ran.Load(); n == 1000 {
		t.Fatal("error did not short-circuit the remaining work")
	}
}

func TestForEachHonorsParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := ForEach(ctx, 1000, 2, func(ctx context.Context, i int) error {
		if ran.Add(1) == 4 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n == 1000 {
		t.Fatal("cancellation did not short-circuit the remaining work")
	}
}

func TestForEachEmptyAndLeaks(t *testing.T) {
	if err := ForEach(context.Background(), 0, 4, nil); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for trial := 0; trial < 20; trial++ {
		_ = ForEach(context.Background(), 8, 4, func(context.Context, int) error { return nil })
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after", before, g)
	}
}

func TestWorkers(t *testing.T) {
	if Workers(5) != 5 {
		t.Fatal("Workers must pass positive values through")
	}
	if Workers(0) != runtime.GOMAXPROCS(0) || Workers(-1) != runtime.GOMAXPROCS(0) {
		t.Fatal("Workers must default non-positive values to GOMAXPROCS")
	}
}

// TestFreeList: last in, first out; bounded by Max; GetN takes the newest.
func TestFreeList(t *testing.T) {
	l := FreeList[int]{Max: 3}
	if _, ok := l.Get(); ok {
		t.Fatal("empty list returned a value")
	}
	for i := 1; i <= 5; i++ {
		l.Put(i)
	}
	if got := l.GetN(nil, 2); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("GetN(2) = %v, want [2 3] (Max 3 kept 1, 2, 3)", got)
	}
	if v, ok := l.Get(); !ok || v != 1 {
		t.Fatalf("Get = %d, %v; want 1", v, ok)
	}
	if got := l.GetN(nil, 4); len(got) != 0 {
		t.Fatalf("GetN on an empty list = %v", got)
	}
}
