// Package atomicmix is the atomic-mix fixture: every call of a sync/atomic
// package function is flagged — on a field, on a slice element, or through
// a helper's pointer parameter — while a typed atomic's methods, the
// float-bits CAS loop on an atomic.Uint64, and plain access of a field no
// goroutine shares stay legal. A typed atomic cannot be read or written
// plainly (the compiler refuses it) or copied (go vet's copylocks check).
package atomicmix

import (
	"math"
	"sync/atomic"
)

// counters mixes the untyped words the rule flags with the typed atomics
// it recommends.
type counters struct {
	hits  int64    // untyped: every atomic call on it is flagged
	cold  int64    // never shared: plain access is legal
	bits  []uint64 // untyped elements: an atomic call on one is flagged
	opq   int64    // untyped, handed to a helper: the helper's call is flagged
	typed atomic.Int64
	sums  []atomic.Uint64 // float64 bits
}

func bump(c *counters) {
	atomic.AddInt64(&c.hits, 1)     // want:atomic-mix
	atomic.AddUint64(&c.bits[0], 7) // want:atomic-mix
	c.cold++                        // legal: a plain field, never reached atomically
	c.typed.Add(1)                  // legal: a typed atomic's method
}

func load(c *counters) int64 {
	return c.typed.Load() + c.cold // legal
}

func header(c *counters) int {
	return len(c.bits) + len(c.sums) // legal: slice headers
}

func viaHelper(c *counters) {
	helperAdd(&c.opq, 1) // legal here; the call inside the helper is flagged
}

func helperAdd(p *int64, v int64) {
	atomic.AddInt64(p, v) // want:atomic-mix
}

// addFloat is the float-bits CAS loop on a typed word: legal.
func addFloat(c *counters, i int, d float64) {
	for {
		old := c.sums[i].Load()
		if c.sums[i].CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}
