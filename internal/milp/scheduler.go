package milp

import (
	"container/heap"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"raha/internal/lp"
	"raha/internal/obs"
)

// The branch-and-bound scheduler: one worker loop (worker → claim →
// process → publish) over per-worker local queues. A worker pushes
// children to and pops work from its own queue, and steals a batch from a
// random victim only when its own runs dry. What a search-wide queue would
// centralize — the incumbent, the dual bound, and "is the tree done" — is
// a lock-free CAS word (incumbent.go), a min-reduction over per-worker
// published bounds, and an outstanding-node counter.
//
// The local queue has two disciplines, chosen by the pool's width and by
// nothing else (popLocal / pushLocal / localBest are the only
// width-dependent code):
//
//   - One worker: a best-bound heap, ties to the newest node. With nobody
//     to share the tree with, exploring in bound order is what closes the
//     gap fastest under a budget — a lone LIFO dive proves optimality on
//     some trees sooner but leaves a worse bound at a deadline — and the
//     order is deterministic run to run.
//   - Several workers: a conc.Deque, LIFO at the owner's end (a worker
//     keeps diving into the subtree it just expanded — the locality the
//     dual simplex warm start depends on), FIFO at the thieves' end (the
//     oldest, shallowest, best-bounded work moves).
//
// DESIGN.md §2.14 carries the full correctness argument; the invariants
// in brief:
//
//   - Bound coverage: at every instant, every live node's relaxation
//     bound is ≥-covered (in the better() sense) by some pubBound entry.
//     Owners are the only writers of their own entry; a thief that is
//     about to make a batch invisible to its victim first publishes the
//     covers-everything bound on its own entry, so the min-reduction can
//     dip conservatively low during a steal but can never miss a node.
//   - Termination: outstanding counts nodes that exist (queued anywhere
//     or in flight). Retiring a parent and enqueuing its k children is a
//     single Add(k-1), so the counter never transits zero while the tree
//     lives; zero is stable and final.

// Idle backoff: a worker that found nothing to pop or steal yields the
// processor a few times (cheap, keeps latency low when a victim is about
// to publish children), then sleeps with exponential backoff so a
// starved worker does not spin a core while one long subtree finishes.
const (
	stealSpinTries  = 4
	stealBackoffMin = 20 * time.Microsecond
	stealBackoffCap = time.Millisecond
)

// popLocal takes the next node off the worker's own queue: the best-bound
// node of the lone worker's heap, the newest of a deque. nil when empty.
func (s *search) popLocal(id int) *node {
	if s.open != nil {
		if s.open.Len() == 0 {
			return nil
		}
		return heap.Pop(s.open).(*node)
	}
	n, _ := s.deques[id].Pop()
	return n
}

// pushLocal queues a node on the worker's own queue. The heap's
// tie-breaking sequence number is assigned here, in push order.
func (s *search) pushLocal(id int, n *node) {
	if s.open != nil {
		n.seq = s.nextSeq
		s.nextSeq++
		heap.Push(s.open, n)
		return
	}
	s.deques[id].Push(n)
}

// localBest returns the best relaxation bound among the worker's queued
// nodes, or the worst-by-sense sentinel when it has none.
func (s *search) localBest(id int) float64 {
	if s.open != nil {
		if s.open.Len() > 0 {
			return s.open.nodes[0].relax
		}
	} else if best, ok := s.deques[id].Best(s.nodeBetter); ok {
		return best.relax
	}
	return s.toObj(math.Inf(1))
}

// globalBound min-reduces the per-worker published bounds into the global
// dual bound. Each entry covers its owner's queued and in-flight
// nodes (or is the covers-everything value during that owner's steal
// window), so the reduction bounds every live node; it starts from the
// abandoned bound, which covers the subtrees no live node does any more
// (worst by sense, the reduction's identity, while there are none). When
// the result is worse than the incumbent, the incumbent itself is the
// tightest sound bound on the optimum — every remaining node would be
// pruned — which is also what makes the bound collapse to the objective at
// exhaustion. A floor that is tighter than the tree's bound replaces it:
// the caller-proved Params.Bound, or the bound the first pass had proved
// when the search restarted (restart) — the reduction never reports weaker
// than what is known, so the reported bound cannot move backwards when the
// second pass re-opens the root.
func (s *search) globalBound() float64 {
	b := math.Float64frombits(s.abandoned.Load())
	for i := range s.pubBound {
		if v := math.Float64frombits(s.pubBound[i].Load()); s.better(v, b) {
			b = v
		}
	}
	if f := math.Float64frombits(s.floor.Load()); s.better(b, f) {
		b = f
	}
	if inc, ok := s.incumbentObj(); ok && s.better(inc, b) {
		b = inc
	}
	return b
}

// stealRand steps the worker's private xorshift64 state. Victim
// selection needs cheap statistical spread, not entropy (and math/rand
// in solver loops is banned by the lint tree for reproducibility); the
// state is owner-only, so no synchronization.
func (s *search) stealRand(id int) uint64 {
	x := s.stealRng[id]
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.stealRng[id] = x
	return x
}

// stealScan walks the other deques from a random start and moves half of
// the first non-empty victim's nodes into this worker's deque, returning
// the batch (nil when every victim was empty). Before extracting, the
// thief publishes the covers-everything bound on its own entry: from
// that store until the batch is re-counted below, the global reduction
// dips conservatively instead of ever missing the migrating nodes. The
// donation is bound-ordered, worst first, so the thief's next LIFO pops
// take the best stolen work first.
func (s *search) stealScan(id int) []*node {
	w := len(s.deques)
	coverAll := math.Float64bits(s.toObj(math.Inf(-1)))
	worst := math.Float64bits(s.toObj(math.Inf(1)))
	start := int(s.stealRand(id) % uint64(w))
	for i := 0; i < w; i++ {
		v := start + i
		if v >= w {
			v -= w
		}
		if v == id || s.deques[v].Len() == 0 {
			continue
		}
		s.pubBound[id].Store(coverAll)
		batch := s.deques[v].Steal(s.stealBuf[id][:0], 0)
		s.stealBuf[id] = batch[:0]
		if len(batch) == 0 {
			// Raced with the victim draining its deque. Retract the cover:
			// this worker's deque is empty and it holds nothing in flight,
			// so the worst-by-sense sentinel is its true local bound.
			s.pubBound[id].Store(worst)
			continue
		}
		// Insertion sort, worst bound first (batches are a handful of
		// nodes; no closure, no allocation — sort.Slice would be both).
		for j := 1; j < len(batch); j++ {
			nj := batch[j]
			k := j - 1
			for k >= 0 && s.better(batch[k].relax, nj.relax) {
				batch[k+1] = batch[k]
				k--
			}
			batch[k+1] = nj
		}
		d := &s.deques[id]
		for _, n := range batch {
			d.Push(n)
		}
		// The batch is locally queued: replace the cover with the exact
		// local bound (the batch's best — the deque holds nothing else).
		s.pubBound[id].Store(math.Float64bits(batch[len(batch)-1].relax))
		return batch
	}
	return nil
}

// stealFrom performs one steal attempt for claim, with accounting:
// successful steals tick the worker's counters and feed the steal-latency
// histogram; a full scan of empty victims counts as a failed steal (the
// signal that the search is in its starved tail).
func (s *search) stealFrom(id int) bool {
	var t0 time.Time
	if s.timed {
		t0 = time.Now()
	}
	st := &s.wstats[id].stats
	batch := s.stealScan(id)
	if len(batch) == 0 {
		st.FailedSteals++
		return false
	}
	st.Steals++
	st.StolenNodes += int64(len(batch))
	if s.timed {
		ns := time.Since(t0).Nanoseconds()
		st.StealNs += ns
		hSteal.Observe(ns)
	}
	return true
}

// stealWait parks an idle worker for the round's backoff slice and
// returns the nanoseconds actually slept (0 untimed). Sleeping is not
// queue wait — callers subtract it so waitNs keeps meaning "time spent
// obtaining work", and the remainder lands in the worker's idle share.
func (s *search) stealWait(round int) int64 {
	d := stealBackoffMin << min(round, 6)
	if d > stealBackoffCap {
		d = stealBackoffCap
	}
	if !s.timed {
		time.Sleep(d)
		return 0
	}
	t0 := time.Now()
	time.Sleep(d)
	return time.Since(t0).Nanoseconds()
}

// claim obtains the worker's next node: pop locally, steal when the local
// queue is dry, park with backoff when there is nothing to steal anywhere,
// and return nil — the search is over for this worker — when outstanding
// hits zero or the search stops. It also returns nil, without halting, once
// the claim count reaches the restart point: every worker leaves with the
// node in hand finished, and runPool re-roots the tree. A lone worker never
// reaches the steal: its queue is the whole tree, so an empty pop means
// outstanding is zero. The whole call's latency minus backoff sleep is
// charged to the worker's queue-wait share.
func (s *search) claim(id int) (n *node, claimNo int) {
	acc := &s.wstats[id]
	var backoffNs int64
	if s.timed {
		waitStart := time.Now()
		defer func() {
			ns := time.Since(waitStart).Nanoseconds() - backoffNs
			if ns > 0 {
				acc.waitNs.Add(ns)
				// Every call counts toward queuePopNs — steal scans, spin
				// yields, pre-pruned pops and the terminal drain are still
				// time spent obtaining work, and the trace attribution needs
				// queuePopNs+queuePushNs to cover the summed worker wait
				// share. The latency histogram stays successful-claims-only
				// so its percentiles mean pop latency.
				acc.stats.QueuePopNs += ns
				if n != nil {
					hQueuePop.Observe(ns)
				}
			}
		}()
	}

	spins := 0
	for {
		if s.stop.Load() || s.outstanding.Load() == 0 {
			return nil, 0
		}
		if s.p.NodeLimit > 0 && int(s.nodes.Load()) >= s.p.NodeLimit {
			s.halt()
			return nil, 0
		}
		if s.restartAt > 0 && s.nodes.Load() >= s.restartAt {
			return nil, 0
		}
		if n = s.popLocal(id); n == nil {
			if s.stealFrom(id) {
				spins = 0
				continue
			}
			spins++
			if spins <= stealSpinTries {
				runtime.Gosched()
			} else {
				backoffNs += s.stealWait(spins - stealSpinTries)
			}
			continue
		}
		spins = 0
		s.openCount.Add(-1)

		// Republish the local bound so it covers both the popped (now
		// in-flight) node and everything still queued. Between the pop and
		// this store the previous published value still covers the node —
		// published bounds only ever lag conservatively.
		b := n.relax
		if lb := s.localBest(id); s.better(lb, b) {
			b = lb
		}
		s.pubBound[id].Store(math.Float64bits(b))

		if inc, ok := s.incumbentObj(); ok {
			// Prune by inherited bound (does not count as an explored node):
			// the parent's relaxation, or the caller's bound on the whole
			// problem — once the incumbent has reached that one, every node
			// goes this way and the tree drains. n.relax itself and the heap
			// keys are left as they are.
			byRelax := !s.better(n.relax, inc)
			if byRelax || s.boundMet(inc) {
				if !byRelax {
					acc.stats.BoundPrunes++
				}
				acc.stats.PrePruned++
				s.pools[id].put(n.lo)
				s.pools[id].put(n.hi)
				s.outstanding.Add(-1)
				continue
			}
			// Publish the global dual bound and test the gap target. The
			// reduction is eventually consistent but always a true bound,
			// so a met gap here is a met gap.
			bound := s.globalBound()
			s.boundBits.Store(math.Float64bits(bound))
			if s.p.MIPGap > 0 && relGap(inc, bound) <= s.p.MIPGap {
				s.halt()
				return nil, 0
			}
		}

		claimNo = int(s.nodes.Add(1))
		if s.p.NodeLimit > 0 && claimNo > s.p.NodeLimit {
			// Another worker took the last number under the limit between
			// the check above and here. Hand this one back and stop; the
			// popped node stays counted in outstanding and covered by the
			// bound published for it above, as any unexplored node is.
			s.nodes.Add(-1)
			s.halt()
			return nil, 0
		}
		s.inflight.Add(1)
		cNodes.Inc()
		acc.nodes.Add(1)
		acc.stats.QueuePops++
		return n, claimNo
	}
}

// publish queues a processed node's children on the worker's own queue
// and retires the parent. The parent→children handoff on outstanding is a
// single Add(k−1), so the counter never transits zero while the subtree
// lives — what makes zero a stable termination signal. The republished
// local bound may be worse than the parent's: sound, because the parent is
// now fully accounted for by its queued children.
func (s *search) publish(id int, children []*node) {
	var pushStart time.Time
	if s.timed {
		pushStart = time.Now()
	}
	for _, c := range children {
		s.pushLocal(id, c)
	}
	if k := int64(len(children)); k > 0 {
		cur := s.openCount.Add(k)
		for {
			old := s.maxOpen.Load()
			if cur <= old || s.maxOpen.CompareAndSwap(old, cur) {
				break
			}
		}
	}
	s.pubBound[id].Store(math.Float64bits(s.localBest(id)))
	s.inflight.Add(-1)
	s.outstanding.Add(int64(len(children)) - 1)
	acc := &s.wstats[id]
	acc.stats.QueuePushes++
	if s.timed {
		ns := time.Since(pushStart).Nanoseconds()
		acc.waitNs.Add(ns)
		acc.stats.QueuePushNs += ns
		hQueuePush.Observe(ns)
	}
}

// pushRoot queues the root — the searched model's whole box at the given
// relaxation bound, warm-starting from basis — as the only node of the tree,
// on worker 0's queue.
func (s *search) pushRoot(relax float64, basis *lp.Basis) {
	pool := &s.pools[0]
	s.pushLocal(0, &node{lo: pool.get(s.m.lo), hi: pool.get(s.m.hi), relax: relax, basis: basis, bvar: -1})
	s.pubBound[0].Store(math.Float64bits(relax))
	s.outstanding.Store(1)
	s.openCount.Store(1)
}

// restart re-roots the search once its first pass has claimed as many
// nodes as the searched model has integer variables: by then the pass has
// observed most candidates in both directions, and a tree whose top levels
// were branched before those observations existed is cheaper searched again
// than finished. The incumbent, the pseudocost table and the stats carry
// over; the open nodes are dropped and the root is queued again.
//
// It runs between two runs of the pool, with no node in flight, so the
// queues are quiescent and globalBound is exact; that bound becomes the
// floor no later report may be weaker than. The sampler may still read the
// bound while the state is reset, so the floor and the root's cover on
// worker 0's entry are stored before anything else changes: every
// intermediate state reads as the floor. The abandoned bound resets with
// the tree, since the subtrees it covered are searched again.
func (s *search) restart() {
	floor := s.globalBound()
	bits := math.Float64bits(floor)
	s.floor.Store(bits)
	s.pubBound[0].Store(bits)
	worst := math.Float64bits(s.toObj(math.Inf(1)))
	for i := 1; i < len(s.pubBound); i++ {
		s.pubBound[i].Store(worst)
	}
	s.abandoned.Store(worst)

	var dropped int64
	for id := range s.pools {
		for n := s.popLocal(id); n != nil; n = s.popLocal(id) {
			s.pools[id].put(n.lo)
			s.pools[id].put(n.hi)
			dropped++
		}
	}
	s.restartAt = 0
	// No worker runs, so worker 0's accounting is free to write (as in
	// seedHints).
	st := &s.wstats[0].stats
	st.Restarts++
	st.RestartDiscarded += dropped
	s.pushRoot(floor, s.rootBasis)

	if s.tracer != nil {
		f := obs.F{"nodes": s.nodes.Load(), "discarded": dropped}
		addFinite(f, "bound", floor)
		s.tracer.Emit("milp", "restart", f)
	}
}

// autoWidthMinFrac is the root-fractionality threshold below which a
// solve runs serial regardless of the requested width: F fractional
// integer variables at the root bound the interesting tree to roughly
// 2^F shapes, and a solve that fathoms in a few dozen nodes cannot keep
// several workers fed — they would only pay synchronization and explore
// nodes the serial search proves unnecessary.
const autoWidthMinFrac = 3

// autoWidth estimates whether the solve is a long-tail tree worth
// intra-solve workers, by solving the root relaxation once and counting
// fractional integer variables. The probe LP is off the books; its optimal
// basis is returned for the search's root to warm-start from, so the root
// LP is solved cold once, not twice. Width is also capped at GOMAXPROCS:
// branch and bound is CPU-bound, and oversubscribed workers only add
// contention. The probe polls stop like any node LP: a probe it interrupts
// reports frac -1 and no basis, and leaves the width as asked.
func autoWidth(m *Model, intTol float64, workers int, stop *atomic.Bool) (width, frac int, basis *lp.Basis) {
	width = workers
	if g := runtime.GOMAXPROCS(0); width > g {
		width = g
	}
	sol, err := lp.Solve(m.reuseLP(nil, m.lo, m.hi), &lp.Options{Stop: stop})
	if err != nil || sol.Status != lp.Optimal {
		return width, -1, nil
	}
	for v, t := range m.vtype {
		if t == Continuous {
			continue
		}
		f := sol.X[v] - math.Floor(sol.X[v])
		if math.Min(f, 1-f) > intTol {
			frac++
		}
	}
	if frac <= autoWidthMinFrac {
		return 1, frac, sol.Basis
	}
	return width, frac, sol.Basis
}
