package milp

import (
	"math"
	"sync"
	"sync/atomic"

	"raha/internal/obs"
)

// incumbent is the shared best-known feasible solution, designed so the
// per-node fathoming test — the one read every worker performs on every
// node — is a single atomic load with no lock in sight. Improvements are
// rare (a handful per solve), so the write side can afford a two-phase
// protocol: a CAS race on the objective word decides the winner, then a
// small mutex serializes installing the point and emitting the trace
// event.
type incumbent struct {
	// bits is the objective in model sense as math.Float64bits. The
	// worst representable objective for the solve's sense (±Inf) is the
	// "no incumbent yet" sentinel: every feasible objective is finite and
	// therefore strictly better, so have-ness needs no second flag.
	bits atomic.Uint64

	// x is the incumbent point, published as an immutable snapshot and
	// swapped whole. A classic seqlock'd copy would let readers touch the
	// buffer while an install rewrites it — a data race under the Go
	// memory model (and the race detector) even when the retry loop
	// discards the torn read — so the copy is published by pointer
	// instead: the same lock-free read, at the cost of one small
	// allocation per install.
	x atomic.Pointer[[]float64]

	// updates counts published installs: Stats.IncumbentUpdates, which
	// Progress.Incumbents reads live.
	updates atomic.Int64

	// mu serializes installs (x swap, stats, trace emit) only. The CAS on
	// bits decides winners outside it, so fathoming and losing offers
	// never block on an install in progress.
	mu sync.Mutex
}

// init stores the no-incumbent sentinel: the worst objective in the
// model's sense, s.toObj(+Inf) — +Inf when minimizing, -Inf when
// maximizing.
func (inc *incumbent) init(worst float64) {
	inc.bits.Store(math.Float64bits(worst))
}

// obj returns the incumbent objective and whether one exists. The
// sentinel is the only non-finite value bits can hold.
func (inc *incumbent) obj() (float64, bool) {
	v := math.Float64frombits(inc.bits.Load())
	return v, !math.IsInf(v, 0)
}

// snapshotX returns the installed incumbent point (nil before the first
// install). The slice is immutable by contract: installs swap in a fresh
// copy rather than mutating.
func (inc *incumbent) snapshotX() []float64 {
	if p := inc.x.Load(); p != nil {
		return *p
	}
	return nil
}

// incumbentObj is the fathoming fast path: one atomic load.
func (s *search) incumbentObj() (float64, bool) { return s.inc.obj() }

// offerIncumbent installs (obj, x) as the incumbent if it improves on
// the current one. Phase one is a CAS loop on the objective word: the
// strict better() test makes the stored value monotonically improving,
// and a losing offer exits without ever blocking. Phase two installs the
// point under inc.mu — but only if bits still holds this offer's value.
// If a better offer won the word in between, the superseded install is
// skipped entirely: the final winner always installs (nothing can
// supersede it), so at quiescence x matches bits, and because only the
// offer matching the current word installs, the emitted incumbent
// timeline is strictly improving and IncumbentUpdates equals the number
// of incumbent trace events.
func (s *search) offerIncumbent(obj float64, x []float64) {
	objBits := math.Float64bits(obj)
	for {
		cur := s.inc.bits.Load()
		if !s.better(obj, math.Float64frombits(cur)) {
			return
		}
		if s.inc.bits.CompareAndSwap(cur, objBits) {
			break
		}
	}
	s.inc.mu.Lock()
	if s.inc.bits.Load() == objBits {
		cp := append([]float64(nil), x...)
		s.inc.x.Store(&cp)
		s.inc.updates.Add(1)
		cIncumbents.Inc()
		if s.tracer != nil {
			f := obs.F{"obj": obj, "nodes": int(s.nodes.Load())}
			addFinite(f, "bound", math.Float64frombits(s.boundBits.Load()))
			s.tracer.Emit("milp", "incumbent", f)
		}
	}
	s.inc.mu.Unlock()
}
